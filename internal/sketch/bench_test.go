package sketch

import (
	"testing"

	"ntpddos/internal/rng"
)

// benchKeys pre-draws a key stream so the benchmarks time the sketch, not
// the generator.
func benchKeys(n int) []uint64 {
	src := rng.New(1)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(src.IntN(100_000))
	}
	return keys
}

func BenchmarkHLLAdd(b *testing.B) {
	keys := benchKeys(1 << 16)
	h := NewHLL(14, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Add(keys[i&(len(keys)-1)])
	}
}

func BenchmarkHLLEstimate(b *testing.B) {
	keys := benchKeys(1 << 16)
	h := NewHLL(14, 1)
	for _, k := range keys {
		h.Add(k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Estimate()
	}
}

func BenchmarkSpaceSavingAdd(b *testing.B) {
	keys := benchKeys(1 << 16)
	ss := NewSpaceSaving(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ss.Add(keys[i&(len(keys)-1)], 3)
	}
}
