package booter

import (
	"testing"
	"time"

	"ntpddos/internal/attack"
	"ntpddos/internal/netaddr"
	"ntpddos/internal/netsim"
	"ntpddos/internal/ntpd"
	"ntpddos/internal/packet"
	"ntpddos/internal/rng"
	"ntpddos/internal/vtime"
)

type fixture struct {
	nw     *netsim.Network
	sched  *vtime.Scheduler
	svc    *Service
	victim netaddr.Addr
	got    int64
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	sched := vtime.NewScheduler()
	nw := netsim.New(sched, nil)
	f := &fixture{nw: nw, sched: sched, victim: netaddr.MustParseAddr("203.0.113.9")}

	var amps []netaddr.Addr
	for i := 0; i < 20; i++ {
		addr := netaddr.Addr(0x0a010001 + uint32(i)*256)
		srv := ntpd.New(ntpd.Config{Addr: addr, MonlistEnabled: true, Profile: ntpd.Profile{TTL: 64}})
		nw.Register(addr, srv)
		amps = append(amps, addr)
	}
	nw.Register(f.victim, netsim.HostFunc(func(_ *netsim.Network, dg *packet.Datagram, _ time.Time) {
		f.got += dg.Rep
	}))
	engine := attack.NewEngine(nw, rng.New(2), []netaddr.Addr{netaddr.MustParseAddr("192.0.2.1")})
	f.svc = New("quantumbooter", engine, rng.New(3))
	f.svc.Amplifiers = amps
	return f
}

func TestSubscribeAndAttack(t *testing.T) {
	f := newFixture(t)
	now := f.nw.Now()
	if err := f.svc.Subscribe("rivalgamer", "silver", now); err != nil {
		t.Fatal(err)
	}
	o := f.svc.PlaceOrder("rivalgamer", f.victim, 3074, 600, now)
	if !o.Launched || o.Rejected != "" {
		t.Fatalf("order = %+v", o)
	}
	f.sched.RunUntil(now.Add(time.Hour))
	if f.got == 0 {
		t.Fatal("victim received nothing")
	}
	st := f.svc.Report(5)
	if st.Launched != 1 || st.RevenueUSD != 15 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestOrderWithoutSubscriptionRejected(t *testing.T) {
	f := newFixture(t)
	o := f.svc.PlaceOrder("freeloader", f.victim, 80, 60, f.nw.Now())
	if o.Launched || o.Rejected != "no subscription" {
		t.Fatalf("order = %+v", o)
	}
}

func TestExpiredSubscriptionRejected(t *testing.T) {
	f := newFixture(t)
	now := f.nw.Now()
	f.svc.Subscribe("lapsed", "bronze", now)
	f.sched.RunUntil(now.Add(32 * 24 * time.Hour))
	o := f.svc.PlaceOrder("lapsed", f.victim, 80, 60, f.nw.Now())
	if o.Launched || o.Rejected != "subscription expired" {
		t.Fatalf("order = %+v", o)
	}
}

func TestDurationClampedToTier(t *testing.T) {
	f := newFixture(t)
	now := f.nw.Now()
	f.svc.Subscribe("impatient", "bronze", now)
	o := f.svc.PlaceOrder("impatient", f.victim, 80, 99999, now)
	if !o.Launched || o.Seconds != 300 {
		t.Fatalf("order = %+v, want clamped to 300s", o)
	}
}

func TestConcurrencyLimit(t *testing.T) {
	f := newFixture(t)
	now := f.nw.Now()
	f.svc.Subscribe("spammer", "bronze", now) // Concurrent: 1
	o1 := f.svc.PlaceOrder("spammer", f.victim, 80, 300, now)
	o2 := f.svc.PlaceOrder("spammer", f.victim+1, 80, 300, now)
	if !o1.Launched {
		t.Fatalf("first order = %+v", o1)
	}
	if o2.Launched || o2.Rejected != "concurrency limit" {
		t.Fatalf("second order = %+v", o2)
	}
	// After the first attack ends, the slot frees up.
	f.sched.RunUntil(now.Add(time.Hour))
	o3 := f.svc.PlaceOrder("spammer", f.victim+2, 80, 60, f.nw.Now())
	if !o3.Launched {
		t.Fatalf("post-completion order = %+v", o3)
	}
}

func TestUnknownTier(t *testing.T) {
	f := newFixture(t)
	if err := f.svc.Subscribe("x", "platinum", f.nw.Now()); err == nil {
		t.Fatal("unknown tier accepted")
	}
}

func TestNoAmplifiersRejected(t *testing.T) {
	f := newFixture(t)
	f.svc.Amplifiers = nil
	now := f.nw.Now()
	f.svc.Subscribe("early", "gold", now)
	o := f.svc.PlaceOrder("early", f.victim, 80, 60, now)
	if o.Launched || o.Rejected != "no amplifiers harvested" {
		t.Fatalf("order = %+v", o)
	}
}

func TestTopVictimsRanking(t *testing.T) {
	f := newFixture(t)
	now := f.nw.Now()
	f.svc.Subscribe("feud", "gold", now) // Concurrent: 4
	for i := 0; i < 3; i++ {
		f.svc.PlaceOrder("feud", f.victim, 3074, 30, now.Add(time.Duration(i)*time.Minute))
		f.sched.RunUntil(now.Add(time.Duration(i+1) * time.Minute))
	}
	f.svc.PlaceOrder("feud", f.victim+9, 80, 30, f.nw.Now())
	st := f.svc.Report(2)
	if len(st.TopVictims) != 2 || st.TopVictims[0].Victim != f.victim || st.TopVictims[0].Orders != 3 {
		t.Fatalf("top victims = %+v", st.TopVictims)
	}
}
