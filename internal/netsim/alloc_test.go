package netsim

import (
	"testing"
	"time"

	"ntpddos/internal/netaddr"
	"ntpddos/internal/packet"
	"ntpddos/internal/rng"
	"ntpddos/internal/vtime"
)

// countTap counts the trains and payloads it is shown without allocating,
// so an allocation budget measured with it attached is the fabric's own.
type countTap struct{ calls, payloads int }

func (c *countTap) ObserveTrain(_ *packet.Datagram, payloads [][]byte, _ []int64, _ time.Time) {
	c.calls++
	c.payloads += len(payloads)
}

// TestFabricDeliveryAllocBudget is the regression wall for the pooled packet
// plane: once the train and event pools are warm, pushing a packet through
// send→observe→schedule→deliver→release must cost under half an allocation
// per delivered datagram. The budget absorbs
// amortized map and pool-slice growth; the steady state is zero, so any
// per-send allocation (one escaped slice is exactly 1 per datagram) fails.
func TestFabricDeliveryAllocBudget(t *testing.T) {
	sched := vtime.NewScheduler()
	nw := New(sched, nil)
	tap := &countTap{}
	nw.AddTap(tap)
	src := netaddr.MustParseAddr("10.0.0.1")
	dst := netaddr.MustParseAddr("10.0.0.2")
	delivered := 0
	nw.Register(dst, HostFunc(func(_ *Network, _ *packet.Datagram, _ time.Time) {
		delivered++
	}))
	payload := []byte("0123456789abcdef0123456789abcdef")

	const batch = 16
	run := func() {
		for i := 0; i < batch; i++ {
			nw.SendUDP(src, 5000, dst, 123, TTLLinux, payload)
		}
		sched.Drain()
	}
	run() // warm every pool
	warm := delivered

	avg := testing.AllocsPerRun(50, run)
	if perDG := avg / batch; perDG >= 0.5 {
		t.Errorf("fabric delivery costs %.4f allocs per datagram, budget is under 0.5 (%.2f per %d-packet drain)",
			perDG, avg, batch)
	}
	if delivered <= warm || tap.calls != delivered || tap.payloads != delivered {
		t.Fatalf("delivered %d, tap saw %d calls and %d payloads: want every send observed once",
			delivered, tap.calls, tap.payloads)
	}

	// A 100-payload train (a full monlist reply) to a registered address
	// costs at most one allocation per warm train, observed in one call per
	// tap and delivered payload by payload. To a dark address it costs none:
	// it is observed and counted dark at the send, which makes no train and
	// no scheduler item. With every fault knob on, each train with a
	// survivor is still one call per tap, carrying every survivor and
	// duplicate out of fabric scratch: to a dark address that costs nothing
	// once warm, and to a registered one the trains come from the pool, so
	// what allocates is the scheduler's calendar buckets, at most once per
	// scheduled item.
	for _, tc := range []struct {
		name                 string
		registered, impaired bool
		budget               float64
	}{
		{name: "train-dark"},
		{name: "train-registered", registered: true, budget: 1},
		{name: "train-impaired-dark", impaired: true},
		{name: "train-impaired", registered: true, impaired: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sched := vtime.NewScheduler()
			nw := New(sched, nil)
			if tc.impaired {
				nw.SetImpairment(allFaults, rng.New(7).Fork("faults"))
			}
			handled := 0
			tap := &countTap{}
			nw.AddTap(tap)
			if tc.registered {
				nw.Register(dst, HostFunc(func(_ *Network, _ *packet.Datagram, _ time.Time) { handled++ }))
			}
			hdr := packet.NewDatagram(src, 123, dst, 80, nil)
			payloads := make([][]byte, 100)
			for i := range payloads {
				payloads[i] = make([]byte, 440)
			}
			sends, items, pendingAfterSend := 0, 0, 0
			run := func() {
				nw.SendTrain(src, hdr, payloads)
				sends++
				items += sched.Pending()
				pendingAfterSend = max(pendingAfterSend, sched.Pending())
				if !tc.impaired {
					sched.Drain()
					return
				}
				// Past every delay, and now and then into the next flap window.
				sched.RunUntil(sched.Now().Add(flapPeriod / 8))
			}
			run()
			avg := testing.AllocsPerRun(50, run)
			budget := tc.budget
			if tc.impaired && tc.registered {
				budget = float64(items) / float64(sends)
			}
			if avg > budget {
				t.Errorf("a 100-payload train costs %.2f allocs, budget is %.2f", avg, budget)
			}
			s := nw.Stats()
			wantCalls, wantPayloads := sends, 100*sends
			if tc.impaired {
				// Every payload has Rep 1: a flap swallows a train's 100,
				// and loss and duplication take and add one each.
				wantCalls -= int(s.DroppedFlap / 100)
				wantPayloads = int(s.Sent - s.DroppedFlap - s.DroppedLoss + s.Duplicated)
				if s.DroppedFlap == 0 || s.DroppedLoss == 0 || s.Duplicated == 0 || s.Reordered == 0 {
					t.Fatalf("not every fault fired: %+v", s)
				}
			}
			if tap.calls != wantCalls || tap.payloads != wantPayloads || (tc.registered && handled != tap.payloads) {
				t.Fatalf("tap saw %d calls and %d payloads, host handled %d: want %d calls and %d payloads, one call per train with a survivor, each payload handled once",
					tap.calls, tap.payloads, handled, wantCalls, wantPayloads)
			}
			if nw.tapView.Payload != nil || nw.deliverView.Payload != nil || nw.sendOne[0] != nil {
				t.Fatal("a tap, delivery or send view retains a payload buffer")
			}
			for _, p := range nw.tapPayloads[:cap(nw.tapPayloads)] {
				if p != nil {
					t.Fatal("the tap scratch retains a sender's payload")
				}
			}
			if tc.registered {
				return
			}
			if pendingAfterSend != 0 || s.Dark != int64(tap.payloads) || (!tc.impaired && s.Dark != s.Sent) {
				t.Errorf("a dark send left %d scheduler items pending, stats %+v: want none, every payload dark", pendingAfterSend, s)
			}
			for c, free := range nw.trains {
				if len(free) != 0 {
					t.Errorf("a dark send made a train: size class %d holds %d idle trains", c, len(free))
				}
			}
		})
	}
}

// TestFabricSendScratchDoesNotPinPayload guards the convenience-send scratch:
// the fabric copies the payload and must drop the caller's reference.
func TestFabricSendScratchDoesNotPinPayload(t *testing.T) {
	sched := vtime.NewScheduler()
	nw := New(sched, nil)
	nw.SendUDP(1, 1, 2, 2, TTLLinux, []byte("x"))
	if nw.sendScratch.Payload != nil || nw.sendOne[0] != nil {
		t.Fatal("a send scratch retains the caller's payload buffer")
	}
	sched.Drain()
}

// BenchmarkTrainDelivery times the fabric's round trip for one datagram: a
// warm one-payload SendUDP to a registered host, then the Drain that runs
// its train's scheduler event and hands the payload to the host.
func BenchmarkTrainDelivery(b *testing.B) {
	sched := vtime.NewScheduler()
	nw := New(sched, nil)
	src := netaddr.MustParseAddr("10.0.0.1")
	dst := netaddr.MustParseAddr("10.0.0.2")
	delivered := 0
	nw.Register(dst, HostFunc(func(_ *Network, _ *packet.Datagram, _ time.Time) { delivered++ }))
	payload := make([]byte, 48) // one mode 3/4 NTP packet
	nw.SendUDP(src, 5000, dst, 123, TTLLinux, payload)
	sched.Drain() // warm the train and event pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.SendUDP(src, 5000, dst, 123, TTLLinux, payload)
		sched.Drain()
	}
	b.StopTimer()
	if delivered != b.N+1 {
		b.Fatalf("delivered %d datagrams, want %d", delivered, b.N+1)
	}
}
