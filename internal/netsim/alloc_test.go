package netsim

import (
	"testing"
	"time"

	"ntpddos/internal/netaddr"
	"ntpddos/internal/packet"
	"ntpddos/internal/vtime"
)

// TestFabricDeliveryAllocBudget is the regression wall for the pooled packet
// plane: once the train, event, and batch-item pools are warm, pushing a
// packet through send→schedule→coalesce→deliver→release must cost at most
// one allocation per delivered datagram (the budget absorbs amortized map
// and pool-slice growth; the steady state is zero).
func TestFabricDeliveryAllocBudget(t *testing.T) {
	var clock vtime.Clock
	sched := vtime.NewScheduler(&clock)
	nw := New(sched, nil)
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
	if perDG := avg / batch; perDG > 1 {
		t.Errorf("fabric delivery costs %.2f allocs per datagram, budget is 1 (%.1f per %d-packet drain)",
			perDG, avg, batch)
	}
	if delivered <= warm {
		t.Fatal("measurement loop delivered nothing")
	}

	// A 100-payload train (a full monlist reply) costs at most one
	// allocation per warm train, observed and delivered payload by payload,
	// whether the destination is dark or answers.
	for _, registered := range []bool{false, true} {
		name := "train-dark"
		if registered {
			name = "train-registered"
		}
		t.Run(name, func(t *testing.T) {
			var clock vtime.Clock
			sched := vtime.NewScheduler(&clock)
			nw := New(sched, nil)
			observed, handled := 0, 0
			nw.AddTap(tapFunc(func(_ *packet.Datagram, _ time.Time) { observed++ }))
			if registered {
				nw.Register(dst, HostFunc(func(_ *Network, _ *packet.Datagram, _ time.Time) { handled++ }))
			}
			hdr := packet.NewDatagram(src, 123, dst, 80, nil)
			payloads := make([][]byte, 100)
			for i := range payloads {
				payloads[i] = make([]byte, 440)
			}
			run := func() {
				nw.SendTrain(src, hdr, payloads)
				sched.Drain()
			}
			run()
			if avg := testing.AllocsPerRun(50, run); avg > 1 {
				t.Errorf("a 100-payload train costs %.2f allocs, budget is 1", avg)
			}
			if observed%100 != 0 || observed == 0 || (registered && handled != observed) {
				t.Fatalf("observed %d, handled %d payloads: want whole trains, each payload handled once", observed, handled)
			}
			if nw.tapView.Payload != nil || nw.deliverView.Payload != nil {
				t.Fatal("a tap or delivery view retains a train's payload buffer")
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
	if nw.sendScratch.Payload != nil {
		t.Fatal("sendScratch retains the caller's payload buffer")
	}
	sched.Drain()
}
