package timeattack

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"ntpddos/internal/netaddr"
	"ntpddos/internal/netsim"
	"ntpddos/internal/ntp"
	"ntpddos/internal/packet"
	"ntpddos/internal/rng"
	"ntpddos/internal/timesync"
	"ntpddos/internal/vtime"
)

var (
	clientAddr = netaddr.MustParseAddr("192.0.2.10")
	origin     = netaddr.MustParseAddr("203.0.113.66")
	servers    = []netaddr.Addr{
		netaddr.MustParseAddr("198.51.100.1"),
		netaddr.MustParseAddr("198.51.100.2"),
		netaddr.MustParseAddr("198.51.100.3"),
		netaddr.MustParseAddr("198.51.100.4"),
	}
)

func world() (*vtime.Scheduler, *netsim.Network) {
	sched := vtime.NewScheduler()
	return sched, netsim.New(sched, nil)
}

// sample is one clock-filter sample a client reported to its monitor.
type sample struct {
	server netaddr.Addr
	offset time.Duration
	now    time.Time
}

// monitor records the samples a client accepts.
type monitor struct{ samples []sample }

func (m *monitor) ObserveSample(_, server netaddr.Addr, offset, _ time.Duration, now time.Time) {
	m.samples = append(m.samples, sample{server, offset, now})
}
func (m *monitor) ObserveKiss(_, _ netaddr.Addr, _ string, _ time.Time)                {}
func (m *monitor) ObserveEvent(_ netaddr.Addr, _ string, _ time.Duration, _ time.Time) {}

// newClient builds a client of the four servers whose local clock starts
// exact and does not drift, so an accepted sample's offset is the reply's
// transmit stamp minus true time.
func newClient(sched *vtime.Scheduler, mon timesync.Monitor) *timesync.Client {
	return timesync.NewClient(timesync.Config{Addr: clientAddr, Servers: servers, Monitor: mon}, sched.Now())
}

type tapFunc func(hdr *packet.Datagram, payloads [][]byte, reps []int64, now time.Time)

func (f tapFunc) ObserveTrain(hdr *packet.Datagram, payloads [][]byte, reps []int64, now time.Time) {
	f(hdr, payloads, reps, now)
}

// TestOffPathBursts: the first burst fires at start + warmup and one more
// every burst period strictly before end; each sends one forgery per
// attacked server, claiming that server's address; and each burst re-arms
// the next before it sends. The burst period equals the forgeries' path
// latency, so a burst's packets arrive at the instant the next burst fires,
// and the next burst's sends must come first.
func TestOffPathBursts(t *testing.T) {
	for _, model := range []Model{ModelSpoof, ModelKoD} {
		t.Run(model.String(), func(t *testing.T) {
			sched, nw := world()
			start := sched.Now()
			burst := netsim.PathLatency(origin, clientAddr)
			end := start.Add(warmup + 3*burst) // a burst due at end must not fire
			tg := &target{client: newClient(sched, nil), model: model, offset: 20 * time.Second,
				servers: servers[:3], origin: origin, burst: burst}
			p := New(Config{})
			p.targets = []*target{tg}

			var log, kisses []string
			nw.AddTap(tapFunc(func(hdr *packet.Datagram, payloads [][]byte, _ []int64, now time.Time) {
				for _, pl := range payloads {
					log = append(log, fmt.Sprintf("send %v @%v", hdr.IP.Src, now.Sub(start)))
					if hdr.IP.Dst != clientAddr || hdr.UDP.SrcPort != ntp.Port || hdr.UDP.DstPort != timesync.Port {
						t.Fatalf("forgery addressed %v:%d -> %v:%d", hdr.IP.Src, hdr.UDP.SrcPort, hdr.IP.Dst, hdr.UDP.DstPort)
					}
					r, err := ntp.DecodeSyncReply(pl)
					if err != nil {
						t.Fatalf("forgery does not decode: %v", err)
					}
					if r.OriginTime != 0 {
						t.Fatalf("forgery carries origin %#x; off-path attackers cannot know it", r.OriginTime)
					}
					switch model {
					case ModelSpoof:
						ts := ntp.ToNTPTime(now.Add(tg.offset))
						if r.Stratum != 2 || r.ReferenceID != uint32(origin) ||
							r.ReceiveTime != ts || r.TransmitTime != ts {
							t.Fatalf("spoofed reply %+v, want stratum 2, refid origin, stamps %#x", r.Header, ts)
						}
					case ModelKoD:
						kisses = append(kisses, r.Kiss)
					}
				}
			}))
			nw.Register(clientAddr, netsim.HostFunc(func(_ *netsim.Network, dg *packet.Datagram, now time.Time) {
				log = append(log, fmt.Sprintf("recv %v @%v", dg.IP.Src, now.Sub(start)))
			}))
			p.Start(nw, start, end)
			sched.Drain()

			var want []string
			for k := 0; k <= 3; k++ {
				at := warmup + time.Duration(k)*burst
				if k < 3 {
					for _, s := range tg.servers {
						want = append(want, fmt.Sprintf("send %v @%v", s, at))
					}
				}
				if k > 0 {
					for _, s := range tg.servers {
						want = append(want, fmt.Sprintf("recv %v @%v", s, at))
					}
				}
			}
			if !reflect.DeepEqual(log, want) {
				t.Fatalf("wire log:\n%q\nwant:\n%q", log, want)
			}
			sum := p.Summarize()
			switch model {
			case ModelSpoof:
				if sum.ForgedReplies != 9 || sum.ForgedKisses != 0 {
					t.Fatalf("forged replies/kisses = %d/%d, want 9/0", sum.ForgedReplies, sum.ForgedKisses)
				}
			case ModelKoD:
				if sum.ForgedKisses != 9 || sum.ForgedReplies != 0 {
					t.Fatalf("forged kisses/replies = %d/%d, want 9/0", sum.ForgedKisses, sum.ForgedReplies)
				}
				var wantKiss []string
				for _, code := range []string{ntp.KissDENY, ntp.KissRATE, ntp.KissDENY} {
					wantKiss = append(wantKiss, code, code, code)
				}
				if !reflect.DeepEqual(kisses, wantKiss) {
					t.Fatalf("kiss codes %v, want %v (DENY and RATE bursts alternate)", kisses, wantKiss)
				}
			}
		})
	}
}

// TestStartArmsInterceptorAtWarmup: an on-path model takes over the
// client's fabric address at start + warmup and rewrites what reaches it
// there, and a window no longer than the warmup schedules nothing.
func TestStartArmsInterceptorAtWarmup(t *testing.T) {
	sched, nw := world()
	start := sched.Now()
	tg := &target{client: newClient(sched, nil), model: ModelLeap, servers: servers[:3]}
	p := New(Config{})
	p.targets = []*target{tg}

	p.Start(nw, start, start.Add(warmup))
	if sched.Pending() != 0 {
		t.Fatalf("a window of exactly the warmup scheduled %d events", sched.Pending())
	}
	p.Start(nw, start, start.Add(2*warmup))
	sched.RunUntil(start.Add(warmup))
	if nw.IsRegistered(clientAddr) {
		t.Fatal("interceptor registered before the warmup ended")
	}
	sched.RunUntil(start.Add(warmup + time.Nanosecond))
	if !nw.IsRegistered(clientAddr) {
		t.Fatal("no interceptor on the client's address after the warmup")
	}
	dg := reply(servers[0], sched.Now())
	nw.SendFrom(servers[0], dg)
	sched.Drain()
	if n := p.Summarize().Rewritten; n != 1 {
		t.Fatalf("rewritten = %d after a reply through the fabric, want 1", n)
	}
}

// reply is a genuine mode 4 reply from server to the client, sent at now.
func reply(server netaddr.Addr, now time.Time) *packet.Datagram {
	req := ntp.NewClientRequest(now.Add(-40 * time.Millisecond))
	return &packet.Datagram{
		IP:      packet.IPv4{TTL: 50, Protocol: packet.ProtocolUDP, Src: server, Dst: clientAddr},
		UDP:     packet.UDP{SrcPort: ntp.Port, DstPort: timesync.Port},
		Payload: ntp.NewServerReply(req, 2, now).AppendTo(nil),
		Rep:     1,
	}
}

func decode(t *testing.T, payload []byte) ntp.Header {
	t.Helper()
	var h ntp.Header
	if err := h.DecodeFromBytes(payload); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return h
}

// shifted is ts moved by d, through the package's exact ns conversions.
func shifted(ts uint64, d time.Duration) uint64 {
	return ntp.UnixNanoToNTP(ntp.NTPToUnixNano(ts) + int64(d))
}

// TestInterceptorDelay: a genuine reply from an attacked server reaches the
// client exactly t.delay later, intact even though the fabric recycles the
// delivered buffer at once; a reply from any other server passes at once.
func TestInterceptorDelay(t *testing.T) {
	sched, nw := world()
	mon := &monitor{}
	c := newClient(sched, mon)
	c.MarkInsecure() // accept a reply with no poll in flight, so the monitor sees it
	tg := &target{client: c, model: ModelDelay, delay: 1234567 * time.Microsecond, servers: servers[:3]}
	ic := &interceptor{p: New(Config{}), t: tg, armedAt: sched.Now()}

	at := vtime.Epoch.Add(time.Hour)
	sched.RunUntil(at)
	dg := reply(servers[0], at)
	ic.HandlePacket(nw, dg, at)
	clear(dg.Payload) // what the fabric's recycling does to the delivered buffer
	if len(mon.samples) != 0 {
		t.Fatalf("held reply reached the client at once: %+v", mon.samples)
	}
	sched.RunUntil(at.Add(tg.delay))
	if len(mon.samples) != 0 {
		t.Fatalf("held reply reached the client before %v: %+v", tg.delay, mon.samples)
	}
	sched.RunUntil(at.Add(tg.delay + time.Nanosecond))
	if len(mon.samples) != 1 || mon.samples[0].now != at.Add(tg.delay) || mon.samples[0].server != servers[0] {
		t.Fatalf("samples %+v, want one from %v at %v", mon.samples, servers[0], at.Add(tg.delay))
	}
	// The stamps say at, the client reads them delay later.
	if off := mon.samples[0].offset; off < -tg.delay-time.Microsecond || off > -tg.delay+time.Microsecond {
		t.Fatalf("offset of the held reply %v, want %v: its bytes did not survive the hold", off, -tg.delay)
	}
	if c.Stats().Malformed != 0 || ic.p.Summarize().Delayed != 1 {
		t.Fatalf("malformed %d, delayed %d; want 0 and 1", c.Stats().Malformed, ic.p.Summarize().Delayed)
	}

	other := reply(servers[3], at.Add(tg.delay))
	ic.HandlePacket(nw, other, sched.Now())
	if len(mon.samples) != 2 || mon.samples[1].server != servers[3] || mon.samples[1].now != sched.Now() {
		t.Fatalf("reply from an unattacked server was held: %+v", mon.samples)
	}
	if ic.p.Summarize().Delayed != 1 {
		t.Fatalf("delayed = %d, want 1", ic.p.Summarize().Delayed)
	}
}

// TestInterceptorDelayWarmAllocs: once the interceptor has a free slot,
// holding a reply and handing it to the client later allocates nothing. The
// scheduler is the reference heap, whose queue is one slice, so the count is
// not the calendar wheel's first use of each bucket as the clock moves on.
func TestInterceptorDelayWarmAllocs(t *testing.T) {
	sched := vtime.NewHeapScheduler()
	nw := netsim.New(sched, nil)
	c := newClient(sched, nil)
	tg := &target{client: c, model: ModelDelay, delay: 1234567 * time.Microsecond, servers: servers[:3]}
	ic := &interceptor{p: New(Config{}), t: tg, armedAt: sched.Now()}
	dg := reply(servers[0], sched.Now())
	hold := func() {
		ic.HandlePacket(nw, dg, sched.Now())
		sched.Drain()
	}
	hold() // warm the slot and the scheduler's event pool
	if n := testing.AllocsPerRun(100, hold); n != 0 {
		t.Fatalf("a warm held reply makes %.1f allocations, want 0", n)
	}
	// AllocsPerRun makes one more run than it counts. The client polled
	// nothing, so it rejects every reply that reaches it.
	if d, r := ic.p.Summarize().Delayed, c.Stats().RejectedOrigin; d != 102 || r != d || len(ic.held) != 1 {
		t.Fatalf("delayed %d, client rejected %d, %d free slots: want 102, 102 and 1", d, r, len(ic.held))
	}
}

// TestInterceptorRewrites: drift shifts both server stamps by drift ×
// time since arming; stratum claims stratum 1 with a GPS refid and shifts
// both stamps by the target's offset; leap sets the leap indicator. Every
// other field keeps its value, and replies from unattacked servers, kisses
// and non-NTP packets pass through byte for byte.
func TestInterceptorRewrites(t *testing.T) {
	armed := vtime.Epoch.Add(time.Hour)
	at := armed.Add(1000 * time.Second)
	cases := []struct {
		tg   target
		want func(h ntp.Header) ntp.Header
	}{
		{target{model: ModelDrift, drift: 1e-5, servers: servers[:3]}, func(h ntp.Header) ntp.Header {
			shift := 10 * time.Millisecond // 1e-5 s/s over 1000 s
			h.ReceiveTime, h.TransmitTime = shifted(h.ReceiveTime, shift), shifted(h.TransmitTime, shift)
			return h
		}},
		{target{model: ModelStratum, offset: 3 * time.Second, servers: servers[:2]}, func(h ntp.Header) ntp.Header {
			h.Stratum = 1
			h.ReferenceID = 0x47505300 // "GPS\0"
			h.ReceiveTime, h.TransmitTime = shifted(h.ReceiveTime, 3*time.Second), shifted(h.TransmitTime, 3*time.Second)
			return h
		}},
		{target{model: ModelLeap, servers: servers[:3]}, func(h ntp.Header) ntp.Header {
			h.LeapIndicator = 1
			return h
		}},
	}
	for _, tc := range cases {
		t.Run(tc.tg.model.String(), func(t *testing.T) {
			sched, nw := world()
			tg := tc.tg
			tg.client = newClient(sched, nil)
			ic := &interceptor{p: New(Config{}), t: &tg, armedAt: armed}

			dg := reply(tg.servers[0], at)
			orig := decode(t, dg.Payload)
			ic.HandlePacket(nw, dg, at)
			if got, want := decode(t, dg.Payload), tc.want(orig); got != want {
				t.Fatalf("rewritten reply\n%+v\nwant\n%+v", got, want)
			}
			if ic.p.Summarize().Rewritten != 1 {
				t.Fatalf("rewritten = %d, want 1", ic.p.Summarize().Rewritten)
			}

			kiss := ntp.NewKissReply(0, ntp.KissRATE, at)
			untouched := map[string]*packet.Datagram{
				"unattacked server": reply(servers[3], at),
				"kiss":              reply(tg.servers[0], at),
				"non-NTP port":      reply(tg.servers[0], at),
			}
			untouched["kiss"].Payload = kiss.AppendTo(nil)
			untouched["non-NTP port"].UDP.SrcPort = 4444
			for name, dg := range untouched {
				before := string(dg.Payload)
				ic.HandlePacket(nw, dg, at)
				if string(dg.Payload) != before {
					t.Fatalf("%s: payload rewritten", name)
				}
			}
			if ic.p.Summarize().Rewritten != 1 {
				t.Fatalf("rewritten = %d after pass-through packets, want 1", ic.p.Summarize().Rewritten)
			}
		})
	}
}

// TestArmWithoutOriginsKeepsClientsSecure: with no origin to spoof from, a
// client drawn for an off-path model is left out of the ground truth and
// keeps validating origins, so a reply that echoes no poll of its own is
// rejected, not accepted blind.
func TestArmWithoutOriginsKeepsClientsSecure(t *testing.T) {
	sched, nw := world()
	fleet := timesync.NewFleet()
	for i := 0; i < 60; i++ {
		fleet.Add(timesync.NewClient(timesync.Config{Addr: netaddr.Addr(0x0a000000 + uint32(i)), Servers: servers}, vtime.Epoch))
	}
	p := New(Config{Share: 1})
	p.Arm(fleet, rng.New(7))
	dropped := 0
	for _, c := range fleet.Clients() {
		if p.Attacked().Has(c.Addr()) {
			continue
		}
		dropped++
		c.HandlePacket(nw, reply(servers[0], sched.Now()), sched.Now())
		if s := c.Stats(); s.RejectedOrigin != 1 || s.InsecureAccepts != 0 {
			t.Fatalf("client %v outside Attacked() rejected %d and accepted %d unmatched replies, want 1 and 0",
				c.Addr(), s.RejectedOrigin, s.InsecureAccepts)
		}
	}
	if dropped == 0 || dropped == len(fleet.Clients()) {
		t.Fatalf("%d of %d clients left out at share 1 with no origins: want the off-path draws alone",
			dropped, len(fleet.Clients()))
	}
}

// TestArmGroundTruth: Attacked() is exactly the targets' clients, the
// per-model sets partition it, each model attacks the servers its model
// documents (stratum exactly half, so no majority forms), and an off-path
// model with no origin to spoof from attacks nobody.
func TestArmGroundTruth(t *testing.T) {
	fleet := timesync.NewFleet()
	for i := 0; i < 300; i++ {
		fleet.Add(timesync.NewClient(timesync.Config{Addr: netaddr.Addr(0x0a000000 + uint32(i)), Servers: servers}, vtime.Epoch))
	}
	origins := []netaddr.Addr{origin, origin + 1}
	for _, tc := range []struct {
		name    string
		origins []netaddr.Addr
	}{{"origins", origins}, {"no-origins", nil}} {
		t.Run(tc.name, func(t *testing.T) {
			p := New(Config{Share: 0.5, Origins: tc.origins})
			p.Arm(fleet, rng.New(7))
			if len(p.targets) < 100 {
				t.Fatalf("only %d of 300 clients targeted at share 0.5", len(p.targets))
			}
			want := netaddr.NewSet(0)
			perModel := map[string]int{}
			for _, tg := range p.targets {
				want.Add(tg.client.Addr())
				perModel[tg.model.String()]++
				if !p.byModel[tg.model].Has(tg.client.Addr()) {
					t.Fatalf("target %v missing from its model's set", tg.client.Addr())
				}
				wantServers := map[Model]int{ModelSpoof: 3, ModelKoD: 4, ModelDelay: 3,
					ModelDrift: 3, ModelStratum: 2, ModelLeap: 3}[tg.model]
				if len(tg.servers) != wantServers {
					t.Fatalf("%v target attacks %d of 4 servers, want %d", tg.model, len(tg.servers), wantServers)
				}
				offPath := tg.model == ModelSpoof || tg.model == ModelKoD
				if offPath && tg.origin != origins[0] && tg.origin != origins[1] {
					t.Fatalf("%v target spoofs from %v, not one of the origins", tg.model, tg.origin)
				}
				if offPath && tc.origins == nil {
					t.Fatalf("%v target armed with no origin to spoof from", tg.model)
				}
			}
			if got := p.Attacked(); !reflect.DeepEqual(got, want) {
				t.Fatalf("Attacked() holds %d clients, the targets %d", got.Len(), want.Len())
			}
			total := 0
			for m := range p.byModel {
				total += p.byModel[m].Len()
			}
			if total != want.Len() {
				t.Fatalf("per-model sets hold %d clients, want %d", total, want.Len())
			}
			sum := p.Summarize()
			if sum.Targets != len(p.targets) || !reflect.DeepEqual(sum.ByModel, perModel) {
				t.Fatalf("summary targets %d by model %v, want %d and %v", sum.Targets, sum.ByModel, len(p.targets), perModel)
			}
			wantModels := 6
			if tc.origins == nil {
				wantModels = 4
			}
			if len(perModel) != wantModels {
				t.Fatalf("models armed %v, want %d of them", perModel, wantModels)
			}
		})
	}
}
