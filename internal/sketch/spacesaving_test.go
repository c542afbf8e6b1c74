package sketch

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"ntpddos/internal/rng"
)

// zipfStream feeds n draws from a Zipf-distributed key universe into both a
// sketch and its exact twin — the shape real victim/amplifier streams have
// (a few heavy hitters over a long tail).
func zipfStream(src *rng.Source, universe uint64, n int, add func(key uint64, count int64)) {
	z := src.Zipf(1.2, universe)
	for i := 0; i < n; i++ {
		add(z.Uint64(), 1+int64(src.IntN(20)))
	}
}

// plantedStream interleaves h heavy keys (large planted counts) with a long
// light tail — the adversarial-ish shape SpaceSaving's guarantee is stated
// for.
func plantedStream(src *rng.Source, heavy, tail int, add func(key uint64, n int64)) {
	for i := 0; i < heavy; i++ {
		// Heavy keys live in a distinct range and get 5k–15k total count,
		// spread over several additions.
		key := uint64(1_000_000 + i)
		remaining := int64(5_000 + src.IntN(10_000))
		for remaining > 0 {
			n := int64(1 + src.IntN(500))
			if n > remaining {
				n = remaining
			}
			add(key, n)
			remaining -= n
		}
	}
	for i := 0; i < tail; i++ {
		add(uint64(src.IntN(200_000)), 1+int64(src.IntN(3)))
	}
}

// TestSpaceSavingGuaranteedRecovery asserts the paper-stated property: when
// the summary's own guarantee predicate holds for the top n, the reported
// top-n key set is exactly the true top-n from the exact twin.
func TestSpaceSavingGuaranteedRecovery(t *testing.T) {
	const (
		heavy = 40
		k     = 512
	)
	for trial := 0; trial < 10; trial++ {
		src := rng.New(uint64(31 + trial))
		ss := NewSpaceSaving(k)
		exact := NewExactTopK()
		plantedStream(src, heavy, 40_000, func(key uint64, n int64) {
			ss.Add(key, n)
			exact.Add(key, n)
		})
		if !ss.GuaranteedTop(heavy) {
			t.Fatalf("trial %d: guarantee predicate does not hold for top %d (k=%d too small?)",
				trial, heavy, k)
		}
		want := make(map[uint64]int64, heavy)
		for _, e := range exact.Top(heavy) {
			want[e.Key] = e.Count
		}
		for _, e := range ss.Top(heavy) {
			truth, ok := want[e.Key]
			if !ok {
				t.Fatalf("trial %d: summary top-%d contains %d, not in true top set", trial, heavy, e.Key)
			}
			if e.Count < truth {
				t.Fatalf("trial %d: key %d estimate %d under true count %d", trial, e.Key, e.Count, truth)
			}
			if e.Count-e.Err > truth {
				t.Fatalf("trial %d: key %d guaranteed count %d above true count %d",
					trial, e.Key, e.Count-e.Err, truth)
			}
		}
	}
}

// TestSpaceSavingOverestimateOnly checks that for every monitored key the
// summary never under-counts — the invariant the detector's byte rankings
// rely on.
func TestSpaceSavingOverestimateOnly(t *testing.T) {
	src := rng.New(77)
	ss := NewSpaceSaving(64)
	exact := NewExactTopK()
	zipfStream(src, 5_000, 20_000, func(key uint64, n int64) {
		ss.Add(key, n)
		exact.Add(key, n)
	})
	for _, e := range ss.Top(ss.Len()) {
		if truth := exact.counts.Estimate(e.Key); e.Count < truth {
			t.Fatalf("key %d: summary %d < true %d", e.Key, e.Count, truth)
		}
	}
}

// TestSpaceSavingDeterministicTies pins the deterministic tie-break: with
// every count equal, eviction order and reported order depend only on keys.
func TestSpaceSavingDeterministicTies(t *testing.T) {
	build := func() []TopEntry {
		ss := NewSpaceSaving(4)
		for _, k := range []uint64{9, 3, 7, 1, 5, 8} {
			ss.Add(k, 1)
		}
		return ss.Top(4)
	}
	a, b := build(), build()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("entry %d differs across identical runs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestSpaceSavingGuaranteeBoundary(t *testing.T) {
	ss := NewSpaceSaving(4)
	ss.Add(1, 10)
	ss.Add(2, 5)
	// Fewer entries than n: the boundary is unobserved, no guarantee.
	if ss.GuaranteedTop(2) {
		t.Fatal("guarantee claimed with no entry beyond the boundary")
	}
	ss.Add(3, 1)
	if !ss.GuaranteedTop(2) {
		t.Fatal("exact summary (no evictions) must guarantee its top 2")
	}
}

func TestSpaceSavingCapacityValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSpaceSaving(0) did not panic")
		}
	}()
	NewSpaceSaving(0)
}

// TestSpaceSavingAddsCompose checks the property that lets a caller fuse
// consecutive adds to one key: Add(k, a) then Add(k, b) leaves the same
// summary as Add(k, a+b), down to every heap position and inherited error,
// whether k is held, absent with room, or absent from a full table. The
// (count, key) heap order is total, so the second add sifts the entry down
// the same path the fused add takes. Small counts force count ties.
func TestSpaceSavingAddsCompose(t *testing.T) {
	src := rng.New(20140210)
	var held, room, full int
	for trial := 0; trial < 20_000; trial++ {
		k := 1 + src.IntN(12)
		universe := uint64(3 * k)
		split, fused := NewSpaceSaving(k), NewSpaceSaving(k)
		for n := src.IntN(4 * k); n > 0; n-- {
			key, c := src.Uint64N(universe), 1+src.Int64N(6)
			split.Add(key, c)
			fused.Add(key, c)
		}
		key := src.Uint64N(universe + 4)
		switch _, ok := split.entries[key]; {
		case ok:
			held++
		case split.Len() < k:
			room++
		default:
			full++
		}
		a, b := 1+src.Int64N(6), 1+src.Int64N(6)
		split.Add(key, a)
		split.Add(key, b)
		fused.Add(key, a+b)
		if got, want := dumpSummary(split), dumpSummary(fused); got != want {
			t.Fatalf("trial %d: Add(%d, %d); Add(%d, %d) left\n%s\nAdd(%d, %d) left\n%s",
				trial, key, a, key, b, got, key, a+b, want)
		}
	}
	if held < 1000 || room < 1000 || full < 1000 {
		t.Fatalf("cases under-covered: %d held, %d absent with room, %d absent from a full table", held, room, full)
	}
}

// dumpSummary renders a summary's heap in position order and its entries
// map in key order.
func dumpSummary(s *SpaceSaving) string {
	var b strings.Builder
	for i, e := range s.heap {
		fmt.Fprintf(&b, "heap[%d] key=%d count=%d err=%d idx=%d\n", i, e.key, e.count, e.err, e.heapIdx)
	}
	keys := make([]uint64, 0, len(s.entries))
	for k := range s.entries {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		e := s.entries[k]
		fmt.Fprintf(&b, "entries[%d] key=%d count=%d err=%d idx=%d\n", k, e.key, e.count, e.err, e.heapIdx)
	}
	return b.String()
}
