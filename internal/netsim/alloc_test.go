package netsim

import (
	"testing"
	"time"

	"ntpddos/internal/netaddr"
	"ntpddos/internal/packet"
	"ntpddos/internal/vtime"
)

// countTap counts the trains and payloads it is shown without allocating,
// so an allocation budget measured with it attached is the fabric's own.
type countTap struct{ calls, payloads int }

func (c *countTap) ObserveTrain(_ *packet.Datagram, payloads [][]byte, _ time.Time) {
	c.calls++
	c.payloads += len(payloads)
}

// TestFabricDeliveryAllocBudget is the regression wall for the pooled packet
// plane: once the train, event, and batch-item pools are warm, pushing a
// packet through send→observe→schedule→coalesce→deliver→release must cost
// under half an allocation per delivered datagram. The budget absorbs
// amortized map and pool-slice growth; the steady state is zero, so any
// per-send allocation (one escaped slice is exactly 1 per datagram) fails.
func TestFabricDeliveryAllocBudget(t *testing.T) {
	var clock vtime.Clock
	sched := vtime.NewScheduler(&clock)
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
	// no scheduler item.
	for _, registered := range []bool{false, true} {
		name := "train-dark"
		if registered {
			name = "train-registered"
		}
		t.Run(name, func(t *testing.T) {
			var clock vtime.Clock
			sched := vtime.NewScheduler(&clock)
			nw := New(sched, nil)
			handled := 0
			tap := &countTap{}
			nw.AddTap(tap)
			if registered {
				nw.Register(dst, HostFunc(func(_ *Network, _ *packet.Datagram, _ time.Time) { handled++ }))
			}
			hdr := packet.NewDatagram(src, 123, dst, 80, nil)
			payloads := make([][]byte, 100)
			for i := range payloads {
				payloads[i] = make([]byte, 440)
			}
			pendingAfterSend := 0
			run := func() {
				nw.SendTrain(src, hdr, payloads)
				pendingAfterSend = max(pendingAfterSend, sched.Pending())
				sched.Drain()
			}
			run()
			budget := 0.0
			if registered {
				budget = 1
			}
			if avg := testing.AllocsPerRun(50, run); avg > budget {
				t.Errorf("a 100-payload train costs %.2f allocs, budget is %.0f", avg, budget)
			}
			if tap.calls == 0 || tap.payloads != 100*tap.calls || (registered && handled != tap.payloads) {
				t.Fatalf("tap saw %d calls and %d payloads, host handled %d: want one call per train, each payload handled once",
					tap.calls, tap.payloads, handled)
			}
			if nw.tapView.Payload != nil || nw.deliverView.Payload != nil || nw.sendOne[0] != nil {
				t.Fatal("a tap, delivery or send view retains a payload buffer")
			}
			if registered {
				return
			}
			if s := nw.Stats(); pendingAfterSend != 0 || s.Dark != s.Sent || s.Dark != int64(tap.payloads) {
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
	var clock vtime.Clock
	sched := vtime.NewScheduler(&clock)
	nw := New(sched, nil)
	nw.SendUDP(1, 1, 2, 2, TTLLinux, []byte("x"))
	if nw.sendScratch.Payload != nil || nw.sendOne[0] != nil {
		t.Fatal("a send scratch retains the caller's payload buffer")
	}
	sched.Drain()
}
