package ntpddos

import (
	"testing"
	"time"

	"ntpddos/internal/scenario"
)

// TestSchedulerQueueDepthRegression pins the scheduler's pending-event
// high-water mark for the golden baseline world. Periodic timers that
// re-arm themselves one tick at a time, and one event per train in flight,
// keep the queue proportional to genuinely in-flight work — a change that
// pre-materializes periodic timelines or schedules per payload rather than
// per train explodes this number long before it hurts at the million-host
// scale, so it fails here first.
func TestSchedulerQueueDepthRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation skipped in -short mode")
	}
	cfg := scenario.TestConfig()
	cfg.Scale = 4000
	cfg.End = time.Date(2014, 1, 17, 0, 0, 0, 0, time.UTC)
	cfg.Seed = 1
	res := scenario.Run(cfg)
	peak := res.World.Sched.PeakPending()
	t.Logf("peak pending events: %d", peak)
	if peak == 0 {
		t.Fatal("PeakPending never tracked anything — instrumentation broken")
	}
	// The golden baseline peaks around 2.5k pending events; 8k leaves
	// headroom for legitimate feature growth while still catching a
	// re-materialized timeline (the pre-refactor scheduler held every
	// future tick of every periodic timer, two orders of magnitude more).
	const budget = 8000
	if peak > budget {
		t.Fatalf("peak pending events = %d, budget %d: the scheduler is holding "+
			"far more queued work than the lazy-timer + one-event-per-train design should",
			peak, budget)
	}
}
