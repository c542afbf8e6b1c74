package netsim

import (
	"testing"
	"time"

	"ntpddos/internal/netaddr"
	"ntpddos/internal/packet"
	"ntpddos/internal/rng"
	"ntpddos/internal/vtime"
)

func repDatagram(src, dst netaddr.Addr, rep int64) *packet.Datagram {
	dg := packet.NewDatagram(src, 1, dst, 2, []byte("x"))
	dg.IP.TTL = TTLLinux
	dg.Rep = rep
	return dg
}

// TestImpairmentZeroRateIsInert pins the provable-inertness contract: arming
// a zero-rate config must leave the Network with no impairment state at all,
// so the hot path is bit-for-bit the clean fabric's.
func TestImpairmentZeroRateIsInert(t *testing.T) {
	net, _ := newNet(nil)
	net.SetImpairment(Impairment{}, rng.New(1).Fork("faults"))
	if net.impair != nil {
		t.Fatal("zero-rate impairment armed state")
	}
	net.SetImpairment(Impairment{Loss: 0.5}, rng.New(1).Fork("faults"))
	if net.impair == nil {
		t.Fatal("nonzero config did not arm")
	}
	net.SetImpairment(Impairment{}, rng.New(1).Fork("faults"))
	if net.impair != nil {
		t.Fatal("re-arming with zero rates did not disarm")
	}
}

// TestImpairmentLossDropsFraction sends a large Rep batch through a lossy
// fabric and checks drop accounting: dropped + delivered must conserve the
// batch, and the realized rate must bracket the configured mean (each link
// scales it by a factor in [0.5, 1.5)).
func TestImpairmentLossDropsFraction(t *testing.T) {
	net, sched := newNet(nil)
	net.SetImpairment(Impairment{Loss: 0.2}, rng.New(7).Fork("faults"))
	src := netaddr.MustParseAddr("10.0.0.1")
	dst := netaddr.MustParseAddr("10.0.0.2")
	var got int64
	net.Register(dst, HostFunc(func(_ *Network, dg *packet.Datagram, _ time.Time) {
		got += dg.Rep
	}))
	const rep = 100000
	if !net.SendFrom(src, repDatagram(src, dst, rep)) {
		t.Fatal("lossy send reported dropped at source")
	}
	sched.Drain()
	s := net.Stats()
	if s.DroppedLoss == 0 || s.DroppedLoss+got != rep {
		t.Fatalf("dropped %d + delivered %d != %d", s.DroppedLoss, got, rep)
	}
	frac := float64(s.DroppedLoss) / rep
	if frac < 0.05 || frac > 0.5 {
		t.Fatalf("loss fraction %.3f outside the [0.5x, 1.5x] band around 0.2", frac)
	}
}

// TestImpairmentDuplicationInflatesDelivery checks duplicates arrive as
// extra Rep-weighted copies (taps and receiver both see them) while the
// original batch stays intact.
func TestImpairmentDuplicationInflatesDelivery(t *testing.T) {
	net, sched := newNet(nil)
	net.SetImpairment(Impairment{Dup: 0.1}, rng.New(11).Fork("faults"))
	src := netaddr.MustParseAddr("10.0.0.1")
	dst := netaddr.MustParseAddr("10.0.0.2")
	var got, tapped int64
	net.AddTap(tapFunc(func(_ *packet.Datagram, _ [][]byte, reps []int64, _ time.Time) {
		for _, r := range reps {
			tapped += r
		}
	}))
	net.Register(dst, HostFunc(func(_ *Network, dg *packet.Datagram, _ time.Time) {
		got += dg.Rep
	}))
	const rep = 50000
	net.SendFrom(src, repDatagram(src, dst, rep))
	sched.Drain()
	s := net.Stats()
	if s.Duplicated == 0 {
		t.Fatal("no duplicates at Dup=0.1")
	}
	if got != rep+s.Duplicated || tapped != got {
		t.Fatalf("delivered %d, tapped %d, want %d (rep %d + dups %d)",
			got, tapped, rep+s.Duplicated, rep, s.Duplicated)
	}
	frac := float64(s.Duplicated) / rep
	if frac < 0.05 || frac > 0.15 {
		t.Fatalf("dup fraction %.3f, want ~0.1", frac)
	}
}

// TestImpairmentReorderDelaysBatch checks a reordered batch arrives strictly
// later than the link's base latency but within the configured bound.
func TestImpairmentReorderDelaysBatch(t *testing.T) {
	net, sched := newNet(nil)
	net.SetImpairment(Impairment{Reorder: 1}, rng.New(3).Fork("faults"))
	src := netaddr.MustParseAddr("10.0.0.1")
	dst := netaddr.MustParseAddr("10.0.0.2")
	var at time.Time
	net.Register(dst, HostFunc(func(_ *Network, _ *packet.Datagram, now time.Time) { at = now }))
	start := net.Now()
	net.SendFrom(src, repDatagram(src, dst, 1))
	sched.Drain()
	base := PathLatency(src, dst)
	if lag := at.Sub(start); lag <= base || lag > base+reorderDelay+time.Millisecond {
		t.Fatalf("reordered delivery after %v, want (base %v, base+%v]", lag, base, reorderDelay+time.Millisecond)
	}
	if net.Stats().Reordered != 1 {
		t.Fatalf("stats = %+v", net.Stats())
	}
}

// TestImpairmentFlapWindows drives sends across many flap windows on one
// link: inside a down window the whole batch drops, and the long-run down
// fraction approximates FlapRate.
func TestImpairmentFlapWindows(t *testing.T) {
	sched := vtime.NewScheduler()
	net := New(sched, nil)
	net.SetImpairment(Impairment{FlapRate: 0.3}, rng.New(5).Fork("faults"))
	src := netaddr.MustParseAddr("10.0.0.1")
	dst := netaddr.MustParseAddr("10.0.0.2")
	net.Register(dst, HostFunc(func(_ *Network, _ *packet.Datagram, _ time.Time) {}))
	const windows = 2000
	for i := 0; i < windows; i++ {
		at := vtime.Epoch.Add(time.Duration(i)*flapPeriod + flapPeriod/2)
		sched.At(at, func(time.Time) {
			net.SendFrom(src, repDatagram(src, dst, 1))
		})
	}
	sched.Drain()
	s := net.Stats()
	if s.DroppedFlap+s.Delivered != windows {
		t.Fatalf("flap %d + delivered %d != %d", s.DroppedFlap, s.Delivered, windows)
	}
	frac := float64(s.DroppedFlap) / windows
	if frac < 0.2 || frac > 0.4 {
		t.Fatalf("flap down-fraction %.3f, want ~0.3", frac)
	}
	// Within one window the decision is constant: replaying the same instant
	// twice must agree.
	down := net.impair.linkDown(src, dst, vtime.Epoch.Add(flapPeriod+flapPeriod/2))
	if down != net.impair.linkDown(src, dst, vtime.Epoch.Add(flapPeriod+flapPeriod/2)) {
		t.Fatal("flap decision not stable within a window")
	}
}

// TestImpairmentDropCauseMetrics checks the labeled drop-cause family tracks
// the legacy counters for every cause.
func TestImpairmentDropCauseMetrics(t *testing.T) {
	net, sched := newNet(func(_, _ netaddr.Addr) bool { return false })
	net.SetMetrics(NewMetrics(nil)) // no-op registry path must not panic
	src := netaddr.MustParseAddr("10.0.0.1")
	dst := netaddr.MustParseAddr("10.0.0.2")
	victim := netaddr.MustParseAddr("10.0.0.3")
	net.SetImpairment(Impairment{Loss: 1}, rng.New(9).Fork("faults"))
	net.SendSpoofed(src, victim, 80, dst, 123, TTLWindows, []byte("q")) // spoof drop
	net.SendFrom(src, repDatagram(src, dst, 1000))                      // loss drops
	dgTTL := repDatagram(src, dst, 1)
	dgTTL.IP.TTL = 3
	net.SendFrom(src, dgTTL) // ttl drop
	sched.Drain()
	s := net.Stats()
	if s.DroppedSpoof != 1 {
		t.Fatalf("spoof drops = %d, want 1", s.DroppedSpoof)
	}
	if s.DroppedLoss == 0 {
		t.Fatalf("no loss drops at Loss=1: %+v", s)
	}
}
