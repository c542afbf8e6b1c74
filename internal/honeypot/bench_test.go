package honeypot

import (
	"testing"
	"time"

	"ntpddos/internal/netaddr"
	"ntpddos/internal/vtime"
)

// BenchmarkDetectorIngestAttack measures the hot path under attack load:
// one victim key, batched triggers arriving across the fleet.
func BenchmarkDetectorIngestAttack(b *testing.B) {
	d := NewDetector(24)
	victim := netaddr.MustParseAddr("203.0.113.9")
	now := vtime.Epoch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Ingest(i%24, victim, 80, 110, 30, now.Add(time.Duration(i)*time.Second))
	}
}

// BenchmarkDetectorIngestScan measures the worst case for state growth:
// every probe is a fresh (source, port) key, exercising map churn and the
// periodic prune.
func BenchmarkDetectorIngestScan(b *testing.B) {
	d := NewDetector(24)
	now := vtime.Epoch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src := netaddr.Addr(0x0a000000 + uint32(i%100000))
		d.Ingest(i%24, src, 32768+uint16(i%28000), 50, 1, now.Add(time.Duration(i)*time.Second))
	}
}

// BenchmarkDetectorWindowAggregation stresses the sliding-window eviction:
// a dense packet train inside one window so every ingest both appends and
// compacts.
func BenchmarkDetectorWindowAggregation(b *testing.B) {
	d := NewDetector(24)
	victim := netaddr.MustParseAddr("203.0.113.9")
	now := vtime.Epoch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// 500ms spacing: a one-minute window holds ~120 samples at steady
		// state, so eviction runs on every call.
		d.Ingest(i%24, victim, 80, 110, 1, now.Add(time.Duration(i)*500*time.Millisecond))
	}
}
