package ntpddos

import (
	"fmt"
	"testing"
	"time"

	"ntpddos/internal/scenario"
)

// BenchmarkScaleWorld is the hot-path throughput ladder: the same calibrated
// world at three population rungs (~1k, ~10k and ~100k registered fabric
// hosts), each simulated over the golden corpus window (2013-09-01 through
// 2014-01-17, which spans the December..January attack ramp and the first
// ONP monlist survey). The reported hosts/s metric — registered hosts
// simulated per wall-clock second — is the number ROADMAP's million-host
// item gates on: scheduler and fabric refactors must move it, and
// BENCH_*.json snapshots record the trajectory.
//
// The ladder holds per-host behaviour constant and varies only Config.Scale,
// so rungs differ in population alone. It is skipped in -short mode (the CI
// bench smoke) because one 100k-host iteration costs minutes on the pre-
// refactor scheduler; run it explicitly with
//
//	go test -run '^$' -bench 'ScaleWorld' -benchtime=1x
//
// TestScaleWorldSmoke builds the ladder's 100k-host rung and simulates one
// quiet month end-to-end: the large-population smoke the CI race job runs,
// exercising the calendar queue, train pool recycling and batched
// delivery at the population size the ladder benchmarks — under -race,
// where a recycled-buffer aliasing bug would surface as a data race or a
// corrupted digest long before the golden corpus caught it. Skipped in
// -short mode to keep the bench-smoke cheap.
func TestScaleWorldSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-host smoke world skipped in -short mode")
	}
	cfg := scenario.DefaultConfig()
	cfg.Scale = 54
	cfg.End = time.Date(2013, 10, 1, 0, 0, 0, 0, time.UTC)
	cfg.FabricAttackDivisor = 4
	res := scenario.Run(cfg)
	if n := res.World.Net.NumHosts(); n < 70000 {
		t.Fatalf("100k rung registered only %d hosts", n)
	}
}

func BenchmarkScaleWorld(b *testing.B) {
	if testing.Short() {
		b.Skip("scale ladder skipped in -short mode")
	}
	// Scale divides the ~5.4M global population (1.4M monlist amplifiers +
	// 4M version responders); the rung labels are the resulting fabric host
	// counts, rounded. 5400 -> ~1k hosts, 540 -> ~10k, 54 -> ~100k.
	for _, rung := range []struct {
		name  string
		scale int
	}{
		{"hosts=1k", 5400},
		{"hosts=10k", 540},
		{"hosts=100k", 54},
	} {
		b.Run(rung.name, func(b *testing.B) {
			var hosts int
			for i := 0; i < b.N; i++ {
				cfg := scenario.DefaultConfig()
				cfg.Scale = rung.scale
				cfg.End = time.Date(2014, 1, 17, 0, 0, 0, 0, time.UTC)
				cfg.FabricAttackDivisor = 4
				res := scenario.Run(cfg)
				hosts = res.World.Net.NumHosts()
			}
			b.StopTimer()
			secs := b.Elapsed().Seconds()
			if secs > 0 {
				b.ReportMetric(float64(hosts)*float64(b.N)/secs, "hosts/s")
			}
			b.ReportMetric(float64(hosts), "hosts")
			b.Log(fmt.Sprintf("rung %s: %d registered hosts", rung.name, hosts))
		})
	}
}
