package netsim

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"ntpddos/internal/metrics"
	"ntpddos/internal/netaddr"
	"ntpddos/internal/packet"
	"ntpddos/internal/rng"
	"ntpddos/internal/vtime"
)

// trainCase is one fabric configuration the differential test replays.
type trainCase struct {
	name     string
	deny     bool // BCP38 everywhere: spoofed trains never leave the source
	spoof    bool // claim a victim's address instead of the origin's
	ttl      uint8
	register bool // bind a recording host at the destination
	rebind   bool // the host re-binds, then unbinds, the destination mid-train
	// lateBind binds a host at the destination 1ms after each send, while
	// the train is in flight, and unbinds it (or, with register, binds the
	// first host again) before the next send.
	lateBind bool
	impair   Impairment
}

// allFaults turns every fault knob on, at rates that make each fire within
// one trainPlan.
var allFaults = Impairment{Loss: 0.3, Dup: 0.4, Reorder: 0.5, FlapRate: 0.3}

// trainFabric is one side of the differential test: a fabric, its metrics
// registry and fault stream, one log of every (payload, Rep) the first tap
// saw and every host event, and each call of both taps as the index of the
// send it belongs to and its number of payloads.
type trainFabric struct {
	sched    *vtime.Scheduler
	net      *Network
	reg      *metrics.Registry
	m        *Metrics
	faults   *rng.Source
	host     Host // the host register binds, unless the case re-binds mid-train
	log      []string
	sends    []bool
	cur      int // index of the send in progress
	tapCalls [2][]tapCall
	// hdrPayload records a tap being shown a header that carries a payload
	// or a Rep, and badTTL one whose TTL is not the sent TTL less the path's
	// hops; badReps a call whose reps do not match its payloads one to one.
	hdrPayload, badTTL, badReps bool
}

// tapCall is one ObserveTrain call: the send it was made in and how many
// payloads it carried.
type tapCall struct{ send, payloads int }

var (
	trainOrigin = netaddr.MustParseAddr("198.51.100.7")
	trainVictim = netaddr.MustParseAddr("203.0.113.9")
	trainDst    = netaddr.MustParseAddr("192.0.2.33")
)

func newTrainFabric(tc trainCase) *trainFabric {
	f := &trainFabric{sched: vtime.NewScheduler(), reg: metrics.NewRegistry()}
	var policy SpoofPolicy
	if tc.deny {
		policy = func(_, _ netaddr.Addr) bool { return false }
	}
	f.net = New(f.sched, policy)
	f.m = NewMetrics(f.reg)
	f.net.SetMetrics(f.m)
	f.faults = rng.New(42).Fork("faults")
	f.net.SetImpairment(tc.impair, f.faults)
	wantTTL := int(tc.ttl) - PathHops(trainOrigin, trainDst)
	for i := range f.tapCalls {
		i := i
		f.net.AddTap(tapFunc(func(hdr *packet.Datagram, payloads [][]byte, reps []int64, now time.Time) {
			f.tapCalls[i] = append(f.tapCalls[i], tapCall{send: f.cur, payloads: len(payloads)})
			f.hdrPayload = f.hdrPayload || hdr.Payload != nil || hdr.Rep != 0
			f.badTTL = f.badTTL || int(hdr.IP.TTL) != wantTTL
			f.badReps = f.badReps || len(reps) != len(payloads)
			if i > 0 || f.badReps {
				return
			}
			for j, p := range payloads {
				dg := *hdr
				dg.Payload, dg.Rep = p, reps[j]
				f.record("tap", &dg, now)
			}
		}))
	}
	if !tc.register {
		return f
	}
	if !tc.rebind {
		f.host = HostFunc(func(_ *Network, dg *packet.Datagram, now time.Time) {
			f.record("host", dg, now)
		})
		f.net.Register(trainDst, f.host)
		return f
	}
	// The first host re-binds the address on its second packet; the second
	// host unbinds it on its second, so the rest of the train goes dark.
	calls := 0
	second := HostFunc(func(nw *Network, dg *packet.Datagram, now time.Time) {
		f.record("host2", dg, now)
		if calls++; calls == 4 {
			nw.Unregister(trainDst)
		}
	})
	f.net.Register(trainDst, HostFunc(func(nw *Network, dg *packet.Datagram, now time.Time) {
		f.record("host1", dg, now)
		if calls++; calls == 2 {
			nw.Register(trainDst, second)
		}
	}))
	return f
}

func (f *trainFabric) record(who string, dg *packet.Datagram, now time.Time) {
	f.log = append(f.log, fmt.Sprintf("%s %+v %+v rep=%d %x @%d",
		who, dg.IP, dg.UDP, dg.Rep, dg.Payload, now.Sub(vtime.Epoch)))
}

// trainPlan is the traffic both fabrics carry: trains of 1 to 9 payloads of
// varied sizes, each in a flap window of its own, alternating Rep 1 and
// Rep 40 so the Rep-weighted fault draws take both paths.
func trainPlan(tc trainCase, send func(hdr *packet.Datagram, payloads [][]byte)) func(*trainFabric) {
	return func(f *trainFabric) {
		for i := 0; i < 12; i++ {
			i := i
			at := vtime.Epoch.Add(time.Duration(i)*(flapPeriod+7*time.Second) + time.Duration(i%3)*time.Millisecond)
			f.sched.At(at, func(time.Time) {
				hdr := &packet.Datagram{
					IP:  packet.IPv4{TTL: tc.ttl, Protocol: packet.ProtocolUDP, Src: trainOrigin, Dst: trainDst},
					UDP: packet.UDP{SrcPort: 123, DstPort: 80},
					Rep: int64(1 + 39*(i%2)),
				}
				if tc.spoof {
					hdr.IP.Src = trainVictim
				}
				payloads := make([][]byte, 1+i%9)
				for j := range payloads {
					payloads[j] = []byte(strings.Repeat(string(rune('a'+j)), 8+13*j+i))
				}
				f.cur = i
				send(hdr, payloads)
				if tc.lateBind {
					f.sched.After(time.Millisecond, func(time.Time) {
						f.net.Register(trainDst, HostFunc(func(_ *Network, dg *packet.Datagram, now time.Time) {
							f.record("late-host", dg, now)
						}))
					})
					f.sched.After(time.Second, func(time.Time) {
						if f.host != nil {
							f.net.Register(trainDst, f.host)
						} else {
							f.net.Unregister(trainDst)
						}
					})
				}
				// Copy-on-send: the sender may scribble on its buffers at once.
				for _, p := range payloads {
					for k := range p {
						p[k] = 'X'
					}
				}
			})
		}
	}
}

// TestTrainMatchesOnePayloadSends is the differential wall for the train
// path: a k-payload SendTrain and k one-payload sends of the same datagrams,
// into two fabrics fed the same fault stream, must be indistinguishable —
// the same flattened sequence of tap (payload, Rep) pairs and host events,
// the same Stats and metric counters, the same send results and the same
// fault-stream state afterwards. It also pins how taps are called: once per
// tap for each train with a survivor, impaired or not, carrying every
// payload (duplicates included) the one-payload sends showed one by one.
func TestTrainMatchesOnePayloadSends(t *testing.T) {
	cases := []trainCase{
		{name: "dark", ttl: TTLLinux},
		{name: "late-bind", ttl: TTLLinux, lateBind: true},
		{name: "registered", ttl: TTLLinux, register: true},
		{name: "spoof-blocked", ttl: TTLWindows, deny: true, spoof: true, register: true},
		{name: "spoof-allowed", ttl: TTLWindows, spoof: true, register: true},
		{name: "ttl-expired", ttl: 3, register: true},
		{name: "rebind-mid-train", ttl: TTLLinux, register: true, rebind: true},
		{name: "rebind-in-flight", ttl: TTLLinux, register: true, lateBind: true},
		{name: "impaired-dark", ttl: TTLLinux, impair: allFaults},
		{name: "impaired-registered", ttl: TTLLinux, register: true, impair: allFaults},
		{name: "impaired-rebind", ttl: TTLLinux, register: true, rebind: true, impair: allFaults},
		{name: "loss-only", ttl: TTLLinux, register: true, impair: Impairment{Loss: 0.5}},
		{name: "dup-only", ttl: TTLLinux, register: true, impair: Impairment{Dup: 0.5}},
		{name: "reorder-only", ttl: TTLLinux, register: true, impair: Impairment{Reorder: 0.5}},
		{name: "flap-only", ttl: TTLLinux, register: true, impair: Impairment{FlapRate: 0.5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			trains, singles := newTrainFabric(tc), newTrainFabric(tc)
			trainPlan(tc, func(hdr *packet.Datagram, payloads [][]byte) {
				trains.sends = append(trains.sends, trains.net.SendTrain(trainOrigin, hdr, payloads))
			})(trains)
			trainPlan(tc, func(hdr *packet.Datagram, payloads [][]byte) {
				for i, p := range payloads {
					dg := *hdr
					dg.Payload = p
					ok := singles.net.SendFrom(trainOrigin, &dg)
					if i == 0 {
						singles.sends = append(singles.sends, ok)
					} else if ok != singles.sends[len(singles.sends)-1] {
						t.Fatalf("one-payload sends of one train disagree on the result")
					}
				}
			})(singles)
			trains.sched.Drain()
			singles.sched.Drain()

			st := trains.net.Stats()
			if st == (Stats{}) {
				t.Fatal("no fabric activity: the case exercises nothing")
			}
			if tc.impair == allFaults && (st.DroppedLoss == 0 || st.Duplicated == 0 || st.Reordered == 0 || st.DroppedFlap == 0) {
				t.Fatalf("not every fault fired: %+v", st)
			}
			if tc.rebind && (st.Dark == 0 || !strings.Contains(strings.Join(trains.log, "\n"), "host2")) {
				t.Fatalf("re-bind case never reached the second host and then dark space: %+v", st)
			}
			// A host that binds the destination after a train left does not
			// receive that train: both fabrics count every packet dark. A
			// host that re-binds a bound destination in flight receives it.
			if tc.lateBind && !tc.register {
				for _, f := range []*trainFabric{trains, singles} {
					if s := f.net.Stats(); s.Dark != s.Sent || strings.Contains(strings.Join(f.log, "\n"), "late-host") {
						t.Fatalf("a host bound after the send was handed a payload: %+v", s)
					}
				}
			}
			if tc.lateBind && tc.register {
				for _, f := range []*trainFabric{trains, singles} {
					log := strings.Join(f.log, "\n")
					if s := f.net.Stats(); s.Delivered != s.Sent || strings.Contains(log, "\nhost ") || !strings.Contains(log, "late-host") {
						t.Fatalf("a host re-bound in flight did not get every payload: %+v", s)
					}
				}
			}
			if d := firstDiff(trains.log, singles.log); d != "" {
				t.Errorf("event sequences differ: %s", d)
			}
			if fmt.Sprint(trains.sends) != fmt.Sprint(singles.sends) {
				t.Errorf("send results: trains %v, singles %v", trains.sends, singles.sends)
			}
			if a, b := trains.net.Stats(), singles.net.Stats(); a != b {
				t.Errorf("stats: trains %+v, singles %+v", a, b)
			}
			if a, b := exposition(t, trains.reg), exposition(t, singles.reg); a != b {
				t.Errorf("metrics differ:\ntrains:\n%s\nsingles:\n%s", a, b)
			}
			if a, b := trains.faults.Uint64(), singles.faults.Uint64(); a != b {
				t.Errorf("fault stream diverged: next draw %d vs %d", a, b)
			}

			// Each train with a survivor is one call per tap, carrying every
			// payload the one-payload sends of that train showed, one per
			// call or, with a duplicate, two (the logs above agree on their
			// order and Reps).
			multi := false
			for tap := range trains.tapCalls {
				var want []tapCall
				for _, c := range singles.tapCalls[tap] {
					if c.payloads != 1 && (c.payloads != 2 || tc.impair.Dup == 0) {
						t.Fatalf("tap %d: a one-payload send was observed as %d payloads", tap, c.payloads)
					}
					if n := len(want); n > 0 && want[n-1].send == c.send {
						want[n-1].payloads += c.payloads
					} else {
						want = append(want, c)
					}
				}
				got := trains.tapCalls[tap]
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("tap %d: calls (send, payloads) %v, want %v", tap, got, want)
				}
				for _, c := range got {
					multi = multi || c.payloads > 1
				}
			}
			if !multi && len(trains.tapCalls[0]) > 0 {
				t.Error("no tap call carried more than one payload: the case shows no train")
			}
			if trains.hdrPayload || singles.hdrPayload {
				t.Error("a tap was shown a header carrying a payload or a Rep")
			}
			if trains.badReps || singles.badReps {
				t.Error("a tap was shown reps that do not match its payloads")
			}
			if trains.badTTL || singles.badTTL {
				t.Error("a tap was shown a header whose TTL is not decremented by the path")
			}
		})
	}
}

// TestSendIsBindingInvariant pins that a destination's host changes
// delivery and nothing else. The same trains, with every fault knob on, go
// into a fabric whose destination is bound and one whose destination is
// not. The two must leave identical tap events (under the delivered TTL),
// the same fault-stream state, and the same Stats and metrics, except that
// what the bound fabric delivers the other counts dark. So a dark send
// still makes every fault draw, delays included, and counts every
// reordered and duplicated packet.
func TestSendIsBindingInvariant(t *testing.T) {
	bound := newTrainFabric(trainCase{ttl: TTLLinux, register: true, impair: allFaults})
	dark := newTrainFabric(trainCase{ttl: TTLLinux, impair: allFaults})
	for _, f := range []*trainFabric{bound, dark} {
		f := f
		trainPlan(trainCase{ttl: TTLLinux}, func(hdr *packet.Datagram, payloads [][]byte) {
			f.sends = append(f.sends, f.net.SendTrain(trainOrigin, hdr, payloads))
		})(f)
		f.sched.Drain()
	}

	b, d := bound.net.Stats(), dark.net.Stats()
	if b.DroppedLoss == 0 || b.Duplicated == 0 || b.Reordered == 0 || b.DroppedFlap == 0 {
		t.Fatalf("not every fault fired: %+v", b)
	}
	if b.Delivered == 0 || b.Dark != 0 || d.Delivered != 0 {
		t.Fatalf("bound fabric delivered %d and counted %d dark; dark fabric delivered %d",
			b.Delivered, b.Dark, d.Delivered)
	}
	b.Delivered, b.Dark = b.Dark, b.Delivered
	if b != d {
		t.Errorf("stats with delivered and dark swapped: bound %+v, dark %+v", b, d)
	}
	if bd, dd := bound.m.Delivered.Value(), dark.m.Dark.Value(); bd != dd || bound.m.Dark.Value() != 0 || dark.m.Delivered.Value() != 0 {
		t.Errorf("delivered metric %d (bound) vs dark metric %d (dark)", bd, dd)
	}
	if a, b := otherFamilies(t, bound.reg), otherFamilies(t, dark.reg); a != b {
		t.Errorf("metrics differ:\nbound:\n%s\ndark:\n%s", a, b)
	}
	if a, b := bound.faults.Uint64(), dark.faults.Uint64(); a != b {
		t.Errorf("fault stream diverged: next draw %d vs %d", a, b)
	}
	if diff := firstDiff(tapEvents(bound.log), tapEvents(dark.log)); diff != "" {
		t.Errorf("tap events differ (bound first): %s", diff)
	}
	if fmt.Sprint(bound.tapCalls) != fmt.Sprint(dark.tapCalls) || fmt.Sprint(bound.sends) != fmt.Sprint(dark.sends) {
		t.Errorf("tap calls %v vs %v, send results %v vs %v", bound.tapCalls, dark.tapCalls, bound.sends, dark.sends)
	}
	if bound.badTTL || dark.badTTL || bound.hdrPayload || dark.hdrPayload || bound.badReps || dark.badReps {
		t.Error("a tap was shown a header other than the delivered one")
	}
}

// tapEvents keeps the tap lines of a trainFabric log.
func tapEvents(log []string) []string {
	var taps []string
	for _, e := range log {
		if strings.HasPrefix(e, "tap ") {
			taps = append(taps, e)
		}
	}
	return taps
}

// otherFamilies is a registry's exposition without the families a host
// binding changes: the host gauge, and the delivered and dark counters that
// a bound and a dark fabric swap.
func otherFamilies(t *testing.T, reg *metrics.Registry) string {
	var keep []string
	for _, line := range strings.Split(exposition(t, reg), "\n") {
		switch {
		case strings.Contains(line, "ntpsim_fabric_hosts"),
			strings.Contains(line, "_packets_delivered_total"),
			strings.Contains(line, "_packets_dark_total"):
		default:
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

// TestTapSeesDeliveredHeaderAndSendersPayloads pins the tap contract: one
// call per train, a header with the TTL already decremented by the path, no
// payload and no Rep, the train's Rep once per payload, and the sender's own
// payload slices rather than the fabric's copy.
func TestTapSeesDeliveredHeaderAndSendersPayloads(t *testing.T) {
	net, sched := newNet(nil)
	hdr := packet.NewDatagram(trainOrigin, 123, trainDst, 80, nil)
	hdr.Rep = 7
	sent := [][]byte{[]byte("one"), []byte("two"), []byte("three")}
	calls := 0
	net.AddTap(tapFunc(func(h *packet.Datagram, payloads [][]byte, reps []int64, _ time.Time) {
		calls++
		if want := 64 - PathHops(trainOrigin, trainDst); int(h.IP.TTL) != want {
			t.Errorf("tap header TTL %d, want %d", h.IP.TTL, want)
		}
		if h.Payload != nil || h.Rep != 0 || h.IP.Dst != trainDst || h.UDP.SrcPort != 123 {
			t.Errorf("tap header %+v: want the delivered header, no Rep, no payload", *h)
		}
		if fmt.Sprint(reps) != "[7 7 7]" {
			t.Errorf("tap reps %v, want the train's Rep 7 for each payload", reps)
		}
		if len(payloads) != len(sent) {
			t.Fatalf("tap saw %d payloads, want %d", len(payloads), len(sent))
		}
		for i := range payloads {
			if &payloads[i][0] != &sent[i][0] || len(payloads[i]) != len(sent[i]) {
				t.Errorf("payload %d is not the sender's slice", i)
			}
		}
	}))
	if !net.SendTrain(trainOrigin, hdr, sent) {
		t.Fatal("train not sent")
	}
	sched.Drain()
	if calls != 1 {
		t.Fatalf("tap called %d times for one train, want 1", calls)
	}
}

func firstDiff(a, b []string) string {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("event %d:\n  trains  %s\n  singles %s", i, a[i], b[i])
		}
	}
	if len(a) != len(b) {
		return fmt.Sprintf("trains logged %d events, singles %d", len(a), len(b))
	}
	return ""
}

func exposition(t *testing.T, reg *metrics.Registry) string {
	t.Helper()
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestTrainHandlerAppendDoesNotClobberNextPayload guards the capped payload
// views: a host that appends to the payload it was handed must reallocate,
// not overwrite the next payload of the same train in the shared buffer.
func TestTrainHandlerAppendDoesNotClobberNextPayload(t *testing.T) {
	net, sched := newNet(nil)
	var got []string
	net.Register(trainDst, HostFunc(func(_ *Network, dg *packet.Datagram, _ time.Time) {
		got = append(got, string(dg.Payload))
		dg.Payload = append(dg.Payload, "!!!!"...)
	}))
	hdr := packet.NewDatagram(trainOrigin, 1, trainDst, 2, nil)
	net.SendTrain(trainOrigin, hdr, [][]byte{[]byte("one"), []byte("two"), []byte("three")})
	sched.Drain()
	if strings.Join(got, ",") != "one,two,three" {
		t.Fatalf("host saw %q", got)
	}
}

// TestSameInstantTrainsKeepScheduleOrder: two trains on one path arrive at
// the same instant, each as its own scheduler event, so an event scheduled
// for that instant between the two sends runs between the two deliveries.
// Without it the trains run back to back, one pending event each.
func TestSameInstantTrainsKeepScheduleOrder(t *testing.T) {
	latency := PathLatency(trainOrigin, trainDst)
	for _, between := range []bool{true, false} {
		net, sched := newNet(nil)
		var got []string
		net.Register(trainDst, HostFunc(func(_ *Network, dg *packet.Datagram, now time.Time) {
			got = append(got, fmt.Sprintf("%s@%v", dg.Payload, now.Sub(vtime.Epoch)))
		}))
		hdr := packet.NewDatagram(trainOrigin, 1, trainDst, 2, nil)
		net.SendTrain(trainOrigin, hdr, [][]byte{[]byte("1a"), []byte("1b")})
		want := []string{"1a", "1b", "2a"}
		if between {
			sched.At(sched.Now().Add(latency), func(now time.Time) {
				got = append(got, fmt.Sprintf("at@%v", now.Sub(vtime.Epoch)))
			})
			want = []string{"1a", "1b", "at", "2a"}
		}
		net.SendTrain(trainOrigin, hdr, [][]byte{[]byte("2a")})
		if p := sched.Pending(); p != len(want)-1 {
			t.Fatalf("between=%v: %d events pending, want %d: one per train and the At", between, p, len(want)-1)
		}
		sched.Drain()
		for i := range want {
			want[i] += "@" + latency.String()
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("between=%v: ran %q, want %q", between, got, want)
		}
	}
}

// TestEmptyTrainSendsNothing pins the degenerate case: no payloads, no
// datagrams, no counters, and a false result.
func TestEmptyTrainSendsNothing(t *testing.T) {
	net, sched := newNet(nil)
	if net.SendTrain(trainOrigin, packet.NewDatagram(trainOrigin, 1, trainDst, 2, nil), nil) {
		t.Fatal("empty train reported as sent")
	}
	if sched.Pending() != 0 || net.Stats() != (Stats{}) {
		t.Fatalf("empty train left pending=%d stats=%+v", sched.Pending(), net.Stats())
	}
}

// TestTrainRebindReachesNewHostMidTrain pins delivery against re-binds made
// by the handler itself: the payload after a Register goes to the new host,
// and the payloads after an Unregister are counted dark.
func TestTrainRebindReachesNewHostMidTrain(t *testing.T) {
	net, sched := newNet(nil)
	var got []string
	second := HostFunc(func(nw *Network, dg *packet.Datagram, _ time.Time) {
		got = append(got, "second:"+string(dg.Payload))
		nw.Unregister(trainDst)
	})
	net.Register(trainDst, HostFunc(func(nw *Network, dg *packet.Datagram, _ time.Time) {
		got = append(got, "first:"+string(dg.Payload))
		nw.Register(trainDst, second)
	}))
	hdr := packet.NewDatagram(trainOrigin, 1, trainDst, 2, nil)
	hdr.Rep = 3
	net.SendTrain(trainOrigin, hdr, [][]byte{[]byte("a"), []byte("b"), []byte("c"), []byte("d")})
	sched.Drain()
	if strings.Join(got, ",") != "first:a,second:b" {
		t.Fatalf("hosts saw %q, want first:a then second:b", got)
	}
	if s := net.Stats(); s.Delivered != 6 || s.Dark != 6 {
		t.Fatalf("delivered %d dark %d, want 6 and 6 (Rep 3)", s.Delivered, s.Dark)
	}
}
