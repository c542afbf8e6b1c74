package timesync

import (
	"testing"
	"time"

	"ntpddos/internal/metrics"
	"ntpddos/internal/netaddr"
	"ntpddos/internal/netsim"
	"ntpddos/internal/ntp"
	"ntpddos/internal/ntpd"
	"ntpddos/internal/packet"
	"ntpddos/internal/vtime"
)

func testHarness() (*netsim.Network, *vtime.Scheduler) {
	sched := vtime.NewScheduler()
	return netsim.New(sched, nil), sched
}

func testServer(nw *netsim.Network, addr string) netaddr.Addr {
	a := netaddr.MustParseAddr(addr)
	s := ntpd.New(ntpd.Config{
		Addr:    a,
		Stratum: 2,
		Profile: ntpd.Profile{SystemString: "linux", VersionString: "ntpd 4.2.6p5 2013", TTL: 64},
	})
	nw.Register(a, s)
	return a
}

func TestLocalClockDrift(t *testing.T) {
	start := vtime.Epoch
	c := NewLocalClock(start, 100*time.Millisecond, 50) // 50 ppm fast
	at := start.Add(1000 * time.Second).UnixNano()
	want := 100*time.Millisecond + 50*time.Millisecond // 50 ppm over 1000 s
	if got := c.ErrAt(at); got < want-time.Millisecond || got > want+time.Millisecond {
		t.Fatalf("ErrAt = %v, want ~%v", got, want)
	}
	c.Step(at, -c.ErrAt(at))
	if got := c.ErrAt(at); got > time.Microsecond || got < -time.Microsecond {
		t.Fatalf("error after corrective step = %v, want ~0", got)
	}
}

// TestBenignConvergence runs one disciplined client against four genuine
// servers over the fabric and requires the paper-faithful outcome: one
// initial step, then a slewed steady state within the 128 ms step
// threshold despite 40 ppm of hardware drift and path asymmetry.
func TestBenignConvergence(t *testing.T) {
	nw, sched := testHarness()
	start := sched.Now()
	end := start.Add(2 * 24 * time.Hour)

	servers := []netaddr.Addr{
		testServer(nw, "198.51.100.10"),
		testServer(nw, "198.51.100.20"),
		testServer(nw, "203.0.113.30"),
		testServer(nw, "203.0.113.40"),
	}
	c := NewClient(Config{
		Addr:       netaddr.MustParseAddr("192.0.2.1"),
		Servers:    servers,
		InitOffset: -1700 * time.Millisecond,
		FreqPPM:    40,
	}, start)
	f := NewFleet()
	f.Add(c)
	f.Register(nw)
	f.Start(nw, start, end)
	sched.RunUntil(end)

	sum := f.Summarize(end)
	if sum.Samples == 0 || sum.Polls == 0 {
		t.Fatalf("no samples flowed: %+v", sum)
	}
	if sum.Steps < 1 {
		t.Fatalf("initial offset of -1.7s was never stepped: %+v", sum)
	}
	if sum.Synced != 1 {
		t.Fatalf("client not synced at end: clock error %v", c.ClockErr(end))
	}
	if e := c.ClockErr(end); e >= StepThreshold || e <= -StepThreshold {
		t.Fatalf("steady-state clock error %v breaches the step threshold", e)
	}
	if sum.NoMajority != 0 {
		t.Fatalf("honest servers lost quorum %d times", sum.NoMajority)
	}
	if sum.Panicked != 0 {
		t.Fatalf("benign run panicked")
	}
	// Poll adaptation must have widened intervals beyond minpoll.
	if got := c.sysPoll(); got <= MinPoll {
		t.Errorf("poll exponent never backed off: still %d", got)
	}
}

// deliver injects a crafted reply from server into the client as if it
// arrived off the fabric.
func deliver(c *Client, nw *netsim.Network, server netaddr.Addr, h *ntp.Header, now time.Time) {
	dg := packet.NewDatagram(server, ntp.Port, c.cfg.Addr, Port, h.AppendTo(nil))
	c.HandlePacket(nw, dg, now)
}

// TestKoDHandling pins the kiss-o'-death state machine: RATE backs off the
// poll interval, DENY/RSTR kill the association, unknown codes pass
// through untouched, and a hardened client ignores forged codes while a
// CVE-class insecure client honors them blind.
func TestKoDHandling(t *testing.T) {
	server := netaddr.MustParseAddr("198.51.100.10")
	cases := []struct {
		name        string
		code        string
		insecure    bool
		forged      bool // origin cookie does not match the in-flight poll
		wantPoll    int8
		wantStopped bool
		wantCounted func(s Stats) int64
	}{
		{"RATE backs off poll", ntp.KissRATE, false, false, MinPoll + 1, false,
			func(s Stats) int64 { return s.KodRate }},
		{"DENY stops association", ntp.KissDENY, false, false, MinPoll, true,
			func(s Stats) int64 { return s.KodDeny }},
		{"RSTR stops association", ntp.KissRSTR, false, false, MinPoll, true,
			func(s Stats) int64 { return s.KodDeny }},
		{"unknown code ignored", "STEP", false, false, MinPoll, false,
			func(s Stats) int64 { return s.KodOther }},
		{"forged RATE rejected by hardened client", ntp.KissRATE, false, true, MinPoll, false,
			func(s Stats) int64 { return s.KodRejected }},
		{"forged DENY honored by insecure client", ntp.KissDENY, true, true, MinPoll, true,
			func(s Stats) int64 { return s.KodDeny }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nw, sched := testHarness()
			now := sched.Now()
			c := NewClient(Config{
				Addr:    netaddr.MustParseAddr("192.0.2.1"),
				Servers: []netaddr.Addr{server},
			}, now)
			if tc.insecure {
				c.MarkInsecure()
			}
			a := c.assocs[0]
			a.inflight = true
			a.xmt = ntp.ToNTPTime(now)
			origin := a.xmt
			if tc.forged {
				origin = 0
			}
			kod := ntp.NewKissReply(origin, tc.code, now)
			deliver(c, nw, server, &kod, now)
			if a.poll != tc.wantPoll {
				t.Errorf("poll = %d, want %d", a.poll, tc.wantPoll)
			}
			if a.stopped != tc.wantStopped {
				t.Errorf("stopped = %v, want %v", a.stopped, tc.wantStopped)
			}
			if got := tc.wantCounted(c.stats); got != 1 {
				t.Errorf("expected counter = %d, want 1 (stats %+v)", got, c.stats)
			}
			if c.stats.KissSeen != 1 {
				t.Errorf("KissSeen = %d, want 1", c.stats.KissSeen)
			}
		})
	}
}

// TestFalsetickerVoting pins the selection edge cases: with exactly 2 of 4
// servers lying coherently there is no majority clique and the clock must
// hold; with only 1 of 4 lying the liar is excluded and the clock follows
// the honest majority.
func TestFalsetickerVoting(t *testing.T) {
	now := vtime.Epoch
	nowNs := now.UnixNano()
	newFourServerClient := func() *Client {
		return NewClient(Config{
			Addr: netaddr.MustParseAddr("192.0.2.1"),
			Servers: []netaddr.Addr{
				netaddr.MustParseAddr("198.51.100.1"),
				netaddr.MustParseAddr("198.51.100.2"),
				netaddr.MustParseAddr("198.51.100.3"),
				netaddr.MustParseAddr("198.51.100.4"),
			},
		}, now)
	}

	t.Run("two of four lying: no majority, clock held", func(t *testing.T) {
		c := newFourServerClient()
		c.clk.everSet = true
		before := c.clk.ErrAt(nowNs)
		for i, off := range []float64{0.001, -0.002, 5.0, 5.001} {
			c.assocs[i].addSample(sample{offset: off, delay: 0.02, at: nowNs})
		}
		c.updateClock(now)
		if c.stats.NoMajority != 1 {
			t.Fatalf("NoMajority = %d, want 1", c.stats.NoMajority)
		}
		if c.stats.Steps != 0 || c.stats.Slews != 0 {
			t.Fatalf("clock was updated despite a 2-2 split: %+v", c.stats)
		}
		if got := c.clk.ErrAt(nowNs); got != before {
			t.Fatalf("clock error moved from %v to %v on a held update", before, got)
		}
	})

	t.Run("one of four lying: liar excluded, clock follows majority", func(t *testing.T) {
		c := newFourServerClient()
		c.clk.everSet = true
		for i, off := range []float64{0.001, -0.002, 0.002, 5.0} {
			c.assocs[i].addSample(sample{offset: off, delay: 0.02, at: nowNs})
		}
		c.updateClock(now)
		if c.stats.NoMajority != 0 {
			t.Fatalf("quorum lost with a 3-1 honest majority")
		}
		if c.stats.Slews != 1 {
			t.Fatalf("expected one slew, got %+v", c.stats)
		}
		// The 5 s liar must not have dragged the combined offset.
		if e := c.clk.ErrAt(nowNs); e > 100*time.Millisecond || e < -100*time.Millisecond {
			t.Fatalf("combined offset polluted by falseticker: clock error %v", e)
		}
	})
}

// TestPanicThreshold pins that offsets beyond 1000 s are never applied
// once the clock has been set, and that the client stops disciplining
// afterwards.
func TestPanicThreshold(t *testing.T) {
	now := vtime.Epoch
	c := NewClient(Config{
		Addr:    netaddr.MustParseAddr("192.0.2.1"),
		Servers: []netaddr.Addr{netaddr.MustParseAddr("198.51.100.1")},
	}, now)
	c.clk.everSet = true
	c.discipline(1500, now) // 1500 s > PANICT
	if !c.panicked || c.stats.Panics != 1 {
		t.Fatalf("panic threshold not enforced: %+v", c.stats)
	}
	if e := c.clk.ErrAt(now.UnixNano()); e != 0 {
		t.Fatalf("panic offset was applied: clock error %v", e)
	}
	c.assocs[0].addSample(sample{offset: 0.5, at: now.UnixNano()})
	c.updateClock(now)
	if c.stats.Steps != 0 && c.stats.Slews != 0 {
		t.Fatal("client kept disciplining after panic")
	}
}

// TestInsecureSpoofAcceptance pins the CVE-2015-7704/7705 surface: a
// spoofed reply with no valid origin cookie is rejected by a hardened
// client but steps an insecure client's clock to the attacker's time.
func TestInsecureSpoofAcceptance(t *testing.T) {
	server := netaddr.MustParseAddr("198.51.100.10")
	forged := func(now time.Time) *ntp.Header {
		h := &ntp.Header{Version: 4, Mode: ntp.ModeServer, Stratum: 2,
			ReceiveTime:  ntp.ToNTPTime(now.Add(10 * time.Second)),
			TransmitTime: ntp.ToNTPTime(now.Add(10 * time.Second))}
		return h
	}

	t.Run("hardened client rejects", func(t *testing.T) {
		nw, sched := testHarness()
		now := sched.Now()
		c := NewClient(Config{Addr: netaddr.MustParseAddr("192.0.2.1"),
			Servers: []netaddr.Addr{server}}, now)
		deliver(c, nw, server, forged(now), now)
		if c.stats.RejectedOrigin != 1 || c.stats.Samples != 0 {
			t.Fatalf("spoofed reply not rejected: %+v", c.stats)
		}
	})

	t.Run("insecure client steps to attacker time", func(t *testing.T) {
		nw, sched := testHarness()
		now := sched.Now()
		c := NewClient(Config{Addr: netaddr.MustParseAddr("192.0.2.1"),
			Servers: []netaddr.Addr{server}}, now)
		c.MarkInsecure()
		deliver(c, nw, server, forged(now), now)
		if c.stats.InsecureAccepts != 1 || c.stats.Steps != 1 {
			t.Fatalf("spoofed reply not accepted blind: %+v", c.stats)
		}
		e := c.ClockErr(now)
		if e < 9*time.Second || e > 11*time.Second {
			t.Fatalf("clock error %v, want ~10s (attacker-controlled)", e)
		}
	})
}

// TestMetricsPassive pins that attaching metrics changes no discipline
// outcome (the scenario-level determinism test covers the full world).
func TestMetricsPassive(t *testing.T) {
	run := func(withMetrics bool) (Stats, time.Duration) {
		nw, sched := testHarness()
		start := sched.Now()
		end := start.Add(12 * time.Hour)
		servers := []netaddr.Addr{
			testServer(nw, "198.51.100.10"),
			testServer(nw, "203.0.113.30"),
		}
		cfg := Config{Addr: netaddr.MustParseAddr("192.0.2.1"), Servers: servers,
			InitOffset: 300 * time.Millisecond, FreqPPM: -20}
		if withMetrics {
			cfg.Metrics = NewMetrics(newTestRegistry())
		}
		c := NewClient(cfg, start)
		f := NewFleet()
		f.Add(c)
		f.Register(nw)
		f.Start(nw, start, end)
		sched.RunUntil(end)
		return c.Stats(), c.ClockErr(end)
	}
	sOff, eOff := run(false)
	sOn, eOn := run(true)
	if sOff != sOn || eOff != eOn {
		t.Fatalf("metrics perturbed the discipline:\noff %+v err %v\non  %+v err %v",
			sOff, eOff, sOn, eOn)
	}
}

func newTestRegistry() *metrics.Registry { return metrics.NewRegistry() }
