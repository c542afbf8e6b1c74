package timesync

import (
	"testing"
	"time"

	"ntpddos/internal/netaddr"
)

// pollSpan is one MaxPoll interval: once a client's poll has backed off to
// MaxPoll, each span holds one poll round trip per association.
const pollSpan = time.Duration(1<<uint(MaxPoll)) * time.Second

// warmRoundTrip builds one client polling one ntpd server over a fabric and
// runs it for a simulated day, long enough to step the clock, fill the
// clock filter, back the poll off and warm every pool on the path. The
// returned step advances the world by d.
func warmRoundTrip(tb testing.TB) (c *Client, step func(d time.Duration)) {
	tb.Helper()
	nw, sched := testHarness()
	start := sched.Clock().Now()
	c = NewClient(Config{
		Addr:       netaddr.MustParseAddr("192.0.2.1"),
		Servers:    []netaddr.Addr{testServer(nw, "198.51.100.10")},
		InitOffset: 300 * time.Millisecond,
		FreqPPM:    20,
	}, start)
	f := NewFleet()
	f.Add(c)
	f.Register(nw)
	f.Start(nw, start, start.Add(365*24*time.Hour))
	step = func(d time.Duration) { sched.RunUntil(sched.Clock().Now().Add(d)) }
	step(24 * time.Hour)
	if s := c.Stats(); s.Samples == 0 || s.Steps == 0 {
		tb.Fatalf("no warm round trip after a simulated day: %+v", s)
	}
	return c, step
}

// TestPollRoundTripAllocBudget is the regression wall for the
// disciplined-client plane, in the style of netsim's
// TestFabricDeliveryAllocBudget: once warm, a poll round trip (the client's
// mode 3 poll, the server's mode 4 reply, the client's filter and
// discipline, and the re-armed poll) must cost under half an allocation per
// poll. The steady state is zero, so any per-poll allocation fails.
func TestPollRoundTripAllocBudget(t *testing.T) {
	c, step := warmRoundTrip(t)
	before := c.Stats()
	const runs = 20
	avg := testing.AllocsPerRun(runs, func() { step(6 * time.Hour) })
	after := c.Stats()
	// AllocsPerRun makes one warm-up call before its measured runs.
	polls := float64(after.Polls-before.Polls) / (runs + 1)
	if polls < 1 {
		t.Fatalf("%.2f polls per run, want at least one: %+v", polls, after)
	}
	if perPoll := avg / polls; perPoll >= 0.5 {
		t.Errorf("a warm poll round trip costs %.4f allocs per poll, budget is under 0.5 (%.2f per run of %.1f polls)",
			perPoll, avg, polls)
	}
	// Every poll but one still in flight at the end must have been
	// answered and sampled.
	if after.Replies-before.Replies < after.Polls-before.Polls-1 || after.Samples == before.Samples {
		t.Fatalf("polls were not answered and sampled: before %+v, after %+v", before, after)
	}
}

// BenchmarkPollRoundTrip times the warm round trip of
// TestPollRoundTripAllocBudget, one MaxPoll interval per op, so -benchmem
// shows the path's allocations. It does not skip under -short. A fresh
// world replaces the old one, off the clock, every worldOps ops, so a long
// run never reaches the end of the simulated window.
func BenchmarkPollRoundTrip(b *testing.B) {
	const worldOps = 10000 // about 118 simulated days of MaxPoll intervals
	var (
		c     *Client
		step  func(time.Duration)
		polls int64
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%worldOps == 0 {
			b.StopTimer()
			if c != nil {
				polls += c.Stats().Polls
			}
			c, step = warmRoundTrip(b)
			polls -= c.Stats().Polls
			b.StartTimer()
		}
		step(pollSpan)
	}
	b.StopTimer()
	polls += c.Stats().Polls
	b.ReportMetric(float64(polls)/float64(b.N), "polls/op")
}
