package attack

import (
	"math"
	"testing"
	"time"

	"ntpddos/internal/netaddr"
	"ntpddos/internal/netsim"
	"ntpddos/internal/ntp"
	"ntpddos/internal/ntpd"
	"ntpddos/internal/packet"
	"ntpddos/internal/rng"
	"ntpddos/internal/vtime"
)

func TestPortDistributionMatchesTable4(t *testing.T) {
	src := rng.New(1)
	n := 200000
	counts := map[uint16]int{}
	for i := 0; i < n; i++ {
		counts[SamplePort(src)]++
	}
	for _, want := range []struct {
		port uint16
		frac float64
	}{{80, 0.362}, {123, 0.238}, {3074, 0.079}} {
		got := float64(counts[want.port]) / float64(n)
		if math.Abs(got-want.frac) > 0.01 {
			t.Fatalf("port %d fraction = %.4f, want ≈%.3f", want.port, got, want.frac)
		}
	}
}

func TestGamePortShare(t *testing.T) {
	// The paper: game-associated ports add up to at least 15% of the top-20
	// victim ports (excluding the ambiguous port 80).
	share := 0.0
	for _, p := range PortCatalog {
		if p.Game && p.Port != 80 {
			share += p.Weight
		}
	}
	if share < 0.15 {
		t.Fatalf("game port share = %.3f, want >= 0.15", share)
	}
	if !IsGamePort(25565) || IsGamePort(22) {
		t.Fatal("IsGamePort misclassifies")
	}
}

func TestDiurnalShape(t *testing.T) {
	if DiurnalWeight(20) <= DiurnalWeight(6) {
		t.Fatal("evening must out-weigh early morning")
	}
	src := rng.New(2)
	evening, morning := 0, 0
	for i := 0; i < 10000; i++ {
		h := SampleStartHour(src)
		if h >= 18 && h <= 23 {
			evening++
		}
		if h >= 3 && h <= 8 {
			morning++
		}
	}
	if evening <= morning {
		t.Fatalf("diurnal sampling: evening %d <= morning %d", evening, morning)
	}
}

type sink struct {
	packets int64
	bytes   int64
	ports   map[uint16]int64
}

func (s *sink) HandlePacket(_ *netsim.Network, dg *packet.Datagram, _ time.Time) {
	s.packets += dg.Rep
	s.bytes += int64(dg.OnWire()) * dg.Rep
	if s.ports == nil {
		s.ports = map[uint16]int64{}
	}
	s.ports[dg.UDP.DstPort] += dg.Rep
}

func harness() (*netsim.Network, *vtime.Scheduler) {
	var clock vtime.Clock
	sched := vtime.NewScheduler(&clock)
	return netsim.New(sched, nil), sched
}

func TestCampaignReflectsOffAmplifier(t *testing.T) {
	nw, sched := harness()
	amp := ntpd.New(ntpd.Config{Addr: netaddr.MustParseAddr("10.0.0.10"),
		MonlistEnabled: true, Profile: ntpd.Profile{TTL: 64}})
	nw.Register(amp.Addr(), amp)
	victim := netaddr.MustParseAddr("203.0.113.7")
	v := &sink{}
	nw.Register(victim, v)

	e := NewEngine(nw, rng.New(3), []netaddr.Addr{netaddr.MustParseAddr("192.0.2.1")})
	launched := 0
	e.OnLaunch = func(Campaign) { launched++ }
	e.Launch(Campaign{
		Victim: victim, Port: 80,
		Start:       nw.Now().Add(time.Minute),
		Duration:    10 * time.Minute,
		TriggerRate: 100, // per second per amplifier
		Amplifiers:  []netaddr.Addr{amp.Addr()},
	})
	sched.Drain()

	if launched != 1 {
		t.Fatalf("OnLaunch fired %d times", launched)
	}
	// 10 minutes at 100 pps = 60000 triggers; each yields >= 1 response
	// fragment carrying the same Rep.
	if e.TriggersSent != 60000 {
		t.Fatalf("TriggersSent = %d, want 60000", e.TriggersSent)
	}
	if v.packets < 60000 {
		t.Fatalf("victim received %d packets, want >= 60000", v.packets)
	}
	if v.ports[80] != v.packets {
		t.Fatalf("victim traffic not on attacked port: %v", v.ports)
	}
	// The victim must now be in the amplifier's monitor table with a huge
	// count and mode 7 — the observable §4 exploits.
	if amp.MRULen() == 0 {
		t.Fatal("amplifier table empty")
	}
}

func TestCampaignBlockedByBCP38(t *testing.T) {
	var clock vtime.Clock
	sched := vtime.NewScheduler(&clock)
	nw := netsim.New(sched, func(origin, claimed netaddr.Addr) bool { return false })
	amp := ntpd.New(ntpd.Config{Addr: netaddr.MustParseAddr("10.0.0.10"),
		MonlistEnabled: true, Profile: ntpd.Profile{TTL: 64}})
	nw.Register(amp.Addr(), amp)
	victim := netaddr.MustParseAddr("203.0.113.7")
	v := &sink{}
	nw.Register(victim, v)
	e := NewEngine(nw, rng.New(3), []netaddr.Addr{netaddr.MustParseAddr("192.0.2.1")})
	e.Launch(Campaign{Victim: victim, Port: 80, Start: nw.Now().Add(time.Minute),
		Duration: time.Minute, TriggerRate: 10, Amplifiers: []netaddr.Addr{amp.Addr()}})
	sched.Drain()
	if e.TriggersSent != 0 || e.TriggersBlocked == 0 {
		t.Fatalf("sent=%d blocked=%d under universal BCP38", e.TriggersSent, e.TriggersBlocked)
	}
	if v.packets != 0 {
		t.Fatal("victim hit despite BCP38")
	}
}

func TestPrimingFillsTable(t *testing.T) {
	nw, sched := harness()
	amp := ntpd.New(ntpd.Config{Addr: netaddr.MustParseAddr("10.0.0.10"),
		MonlistEnabled: true, Profile: ntpd.Profile{TTL: 64}})
	nw.Register(amp.Addr(), amp)
	victim := netaddr.MustParseAddr("203.0.113.7")
	v := &sink{}
	nw.Register(victim, v)
	e := NewEngine(nw, rng.New(5), []netaddr.Addr{netaddr.MustParseAddr("192.0.2.1")})
	e.Launch(Campaign{
		Victim: victim, Port: 80,
		Start:        nw.Now().Add(20 * time.Minute),
		Duration:     time.Minute,
		TriggerRate:  1,
		Amplifiers:   []netaddr.Addr{amp.Addr()},
		PrimeSources: 300,
	})
	sched.Drain()
	if amp.MRULen() < 300 {
		t.Fatalf("primed table has %d entries, want >= 300", amp.MRULen())
	}
	// A primed table means multi-fragment responses: victim packet count
	// must exceed trigger count substantially (packet amplification).
	if v.packets < e.TriggersSent*10 {
		t.Fatalf("victim packets %d vs triggers %d: priming had no effect", v.packets, e.TriggersSent)
	}
}

func TestTriggerTTLIsWindows(t *testing.T) {
	nw, sched := harness()
	var seen []uint8
	nw.AddTap(tapFunc(func(hdr *packet.Datagram, payloads [][]byte, _ []int64, _ time.Time) {
		if hdr.UDP.DstPort == ntp.Port && hdr.IP.Dst == netaddr.MustParseAddr("10.0.0.10") {
			for range payloads {
				seen = append(seen, hdr.IP.TTL)
			}
		}
	}))
	e := NewEngine(nw, rng.New(7), []netaddr.Addr{netaddr.MustParseAddr("192.0.2.1")})
	e.Launch(Campaign{Victim: netaddr.MustParseAddr("203.0.113.7"), Port: 80,
		Start: nw.Now().Add(time.Second), Duration: time.Minute, TriggerRate: 1,
		Amplifiers: []netaddr.Addr{netaddr.MustParseAddr("10.0.0.10")}})
	sched.Drain()
	if len(seen) == 0 {
		t.Fatal("no triggers observed")
	}
	for _, ttl := range seen {
		// Windows 128 minus 8..23 hops → 105..120: the §7.2 fingerprint.
		if ttl < 105 || ttl > 120 {
			t.Fatalf("trigger TTL %d outside Windows fingerprint band", ttl)
		}
	}
}

type tapFunc func(hdr *packet.Datagram, payloads [][]byte, reps []int64, now time.Time)

func (f tapFunc) ObserveTrain(hdr *packet.Datagram, payloads [][]byte, reps []int64, now time.Time) {
	f(hdr, payloads, reps, now)
}

func TestLaunchNoAmplifiersNoBots(t *testing.T) {
	nw, _ := harness()
	e := NewEngine(nw, rng.New(1), nil)
	e.OnLaunch = func(Campaign) { t.Fatal("launched with no bots") }
	e.Launch(Campaign{Victim: 1, Amplifiers: []netaddr.Addr{2}})
	e2 := NewEngine(nw, rng.New(1), []netaddr.Addr{3})
	e2.OnLaunch = func(Campaign) { t.Fatal("launched with no amplifiers") }
	e2.Launch(Campaign{Victim: 1})
}
