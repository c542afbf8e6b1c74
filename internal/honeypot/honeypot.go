// Package honeypot is the fifth vantage point: a fleet of amppot-style
// amplification honeypots (Krämer et al., RAID 2015; Nawrocki et al.'s SoK
// surveys the genre). Each sensor squats on a routed-but-unpopulated address
// and emulates a vulnerable ntpd — it answers mode 7 monlist and mode 6
// readvar probes with real wire-format responses so that scanners harvest it
// into booter reflector lists — while response-rate limiting keeps it from
// contributing materially to any attack it is abused in.
//
// The sensors' own traffic is the dataset: spoofed monlist triggers arrive
// carrying the victim's address as their source, so per-(victim, port)
// aggregation over sliding windows recovers attack events, start times and
// durations without any flow feed — the honeypot methodology the follow-on
// literature (e.g. "The Age of DDoScovery") cross-validates against flow
// counts. This package reproduces both the detection pipeline and that
// cross-vantage comparison.
package honeypot

import (
	"bytes"
	"time"

	"ntpddos/internal/dns"
	"ntpddos/internal/netaddr"
	"ntpddos/internal/netsim"
	"ntpddos/internal/ntp"
	"ntpddos/internal/packet"
	"ntpddos/internal/reflector"
	"ntpddos/internal/rng"
	"ntpddos/internal/vtime"
)

// DefaultSensors is the fleet size the scenario deploys — the same order of
// magnitude as AmpPot's 21-sensor deployment.
const DefaultSensors = 24

// DefaultInclusionProb is the per-sensor probability that a booter's
// harvested reflector list contains a given sensor at campaign time.
// Honeypots answer every scan, so they persist in lists far better than real
// amplifiers; with 24 sensors at 0.3 the fleet misses a campaign with
// probability 0.7^24 ≈ 2e-4 while the per-sensor convergence curve stays
// informative.
const DefaultInclusionProb = 0.3

// Every sensor's bait table and response-rate limit.
const (
	// monEntries is the synthetic monitor-table size each sensor discloses:
	// enough entries to look like a worthwhile amplifier to a list-building
	// scanner, few enough to keep the response in one fragment.
	monEntries = 6
	// rrlRate is the per-source response budget in packets/second averaged
	// over rrlWindow. Scan probes (one packet) always get answered; trigger
	// floods are clamped to the budget — attract, don't amplify.
	rrlRate = 2
	// rrlWindow is the budget refill interval.
	rrlWindow = 10 * time.Second
)

// blackoutPeriod is the sensor-downtime scheduling window, aligned to the
// simulation epoch.
const blackoutPeriod = 6 * time.Hour

// Fleet is a deployed set of sensors sharing one event detector.
type Fleet struct {
	Sensors  []*Sensor
	Detector *Detector

	// blackout models sensor downtime (reboots, upstream filtering,
	// deployment churn): each sensor is dark for this fraction of every
	// blackoutPeriod, phase-shifted per sensor by a pure hash so the fleet
	// never goes dark in unison. A dark sensor neither answers nor feeds the
	// event detector. Zero is provably inert — the packet path never reaches
	// the blackout schedule's arithmetic.
	blackout float64

	m *Metrics
}

// SetMetrics attaches live instrumentation to the fleet and its detector.
func (f *Fleet) SetMetrics(m *Metrics) {
	f.m = m
	f.Detector.SetMetrics(m)
}

// NewFleet builds a fleet of one sensor on each address, each dark for the
// blackout fraction of every blackoutPeriod. The source seeds the synthetic
// monitor-table bait; it is not consumed afterwards, so fleet operation
// never perturbs other subsystems' randomness.
func NewFleet(addrs []netaddr.Addr, blackout float64, src *rng.Source) *Fleet {
	f := &Fleet{blackout: blackout, Detector: NewDetector(len(addrs))}
	for i, addr := range addrs {
		f.Sensors = append(f.Sensors, newSensor(f, i, addr, src))
	}
	return f
}

// Register binds every sensor to the fabric.
func (f *Fleet) Register(nw *netsim.Network) {
	for _, s := range f.Sensors {
		nw.Register(s.Addr, s)
	}
}

// Addrs returns the sensor addresses in deployment order.
func (f *Fleet) Addrs() []netaddr.Addr {
	out := make([]netaddr.Addr, len(f.Sensors))
	for i, s := range f.Sensors {
		out[i] = s.Addr
	}
	return out
}

// QueriesSeen totals Rep-weighted NTP queries across the fleet.
func (f *Fleet) QueriesSeen() int64 {
	var n int64
	for _, s := range f.Sensors {
		n += s.QueriesSeen
	}
	return n
}

// RepliesSent and RepliesSuppressed total the fleet's RRL accounting.
func (f *Fleet) RepliesSent() int64 {
	var n int64
	for _, s := range f.Sensors {
		n += s.RepliesSent
	}
	return n
}

// RepliesSuppressed totals the Rep-weighted responses RRL withheld.
func (f *Fleet) RepliesSuppressed() int64 {
	var n int64
	for _, s := range f.Sensors {
		n += s.RepliesSuppressed
	}
	return n
}

// PrimingSeen totals the spoofed mode-3 priming packets the fleet absorbed.
func (f *Fleet) PrimingSeen() int64 {
	var n int64
	for _, s := range f.Sensors {
		n += s.PrimingSeen
	}
	return n
}

// BlackoutDropped totals the Rep-weighted packets that arrived at dark
// sensors and were never processed.
func (f *Fleet) BlackoutDropped() int64 {
	var n int64
	for _, s := range f.Sensors {
		n += s.BlackoutDropped
	}
	return n
}

// sensorDark reports whether sensor idx is inside its blackout window at
// now. Each sensor's dark stretch sits at a hash-derived phase within the
// period, fixed for that sensor, so coverage degrades smoothly with the
// fraction instead of collapsing fleet-wide. The phase is a pure hash, never
// an RNG draw, so sensor downtime is a function of (sensor index, window)
// alone.
func (f *Fleet) sensorDark(idx int, now time.Time) bool {
	if f.blackout <= 0 {
		return false
	}
	if f.blackout >= 1 {
		return true
	}
	rem := now.Sub(vtime.Epoch) % blackoutPeriod
	if rem < 0 {
		rem += blackoutPeriod
	}
	dark := time.Duration(f.blackout * float64(blackoutPeriod))
	off := time.Duration(rng.Unit(rng.Mix64(uint64(idx)*0x9e3779b97f4a7c15+1)) * float64(blackoutPeriod-dark))
	return rem >= off && rem < off+dark
}

// rrlState is one source's budget window.
type rrlState struct {
	windowStart time.Time
	used        int64
}

// Sensor is one amppot instance. It implements netsim.Host.
type Sensor struct {
	Addr  netaddr.Addr
	Index int

	fleet *Fleet
	// mru is the synthetic monitor table disclosed to monlist probes. It is
	// fixed once newSensor returns, so bait holds its encoding per
	// (implementation, request code), built at the first probe of each.
	mru  []ntp.MonEntry
	bait []baitResponse
	rrl  map[netaddr.Addr]*rrlState

	// QueriesSeen counts Rep-weighted NTP queries of any mode.
	QueriesSeen int64
	// PrimingSeen counts spoofed mode-3 client packets (attacker priming).
	PrimingSeen int64
	// RepliesSent / RepliesSuppressed are Rep-weighted RRL accounting.
	RepliesSent       int64
	RepliesSuppressed int64
	// BlackoutDropped counts Rep-weighted packets that arrived while this
	// sensor was dark.
	BlackoutDropped int64
}

func newSensor(f *Fleet, idx int, addr netaddr.Addr, src *rng.Source) *Sensor {
	s := &Sensor{Addr: addr, Index: idx, fleet: f, rrl: make(map[netaddr.Addr]*rrlState)}
	// The bait table: plausible client entries so list-building scanners see
	// a responsive, populated amplifier worth keeping.
	for i := 0; i < monEntries; i++ {
		s.mru = append(s.mru, ntp.MonEntry{
			Addr:        netaddr.Addr(src.Uint32()),
			DAddr:       addr,
			Count:       uint32(1 + src.IntN(40)),
			Mode:        ntp.ModeClient,
			Version:     4,
			Port:        uint16(1024 + src.IntN(60000)),
			AvgInterval: uint32(60 + src.IntN(600)),
			LastSeen:    uint32(src.IntN(3600)),
		})
	}
	return s
}

// HandlePacket implements netsim.Host. Like the real AmpPot, each sensor
// emulates several abusable UDP services on one address: NTP answers like a
// vulnerable ntpd, and the DNS/SSDP/chargen ports answer just enough to stay
// in harvested reflector lists. Every trigger feeds the fleet's (protocol-
// agnostic) event detector; every reply is clamped by the same RRL budget.
func (s *Sensor) HandlePacket(nw *netsim.Network, dg *packet.Datagram, now time.Time) {
	if s.fleet.sensorDark(s.Index, now) {
		rep := dg.Rep
		if rep <= 0 {
			rep = 1
		}
		s.BlackoutDropped += rep
		if m := s.fleet.m; m != nil {
			m.BlackoutDropped.Add(rep)
		}
		return
	}
	switch dg.UDP.DstPort {
	case reflector.DNSPort:
		s.handleDNS(nw, dg, now)
		return
	case reflector.SSDPPort:
		s.handleSSDP(nw, dg, now)
		return
	case reflector.ChargenPort:
		s.handleChargen(nw, dg, now)
		return
	case ntp.Port:
	default:
		return
	}
	mode, ok := ntp.Mode(dg.Payload)
	if !ok {
		return
	}
	rep := dg.Rep
	if rep <= 0 {
		rep = 1
	}
	s.QueriesSeen += rep
	switch mode {
	case ntp.ModePrivate:
		m, err := ntp.DecodeMode7(dg.Payload)
		if err != nil || m.Response {
			return
		}
		if m.Request != ntp.ReqMonGetList && m.Request != ntp.ReqMonGetList1 {
			return
		}
		// The request's claimed source is either a scanner's real address or
		// a spoofed victim — exactly what the detector disambiguates.
		s.fleet.Detector.Ingest(s.Index, dg.IP.Src, dg.UDP.SrcPort, dg.IP.TTL, rep, now)
		// Honeypots answer regardless of implementation value (unlike the
		// §3.1 blind spot): staying responsive to every prober is what keeps
		// them in harvested lists.
		for _, frag := range s.baitFragments(m.Implementation, m.Request) {
			s.reply(nw, dg, ntp.Port, frag, rep, now)
		}
	case ntp.ModeControl:
		m, err := ntp.DecodeMode6(dg.Payload)
		if err != nil || m.Response || m.OpCode != ntp.OpReadVar {
			return
		}
		vars := ntp.SystemVariables{
			Version: "ntpd 4.2.4p8@1.1612-o", Processor: "x86_64",
			System: "Linux/2.6.32", Stratum: 3, RefID: "10.0.0.1",
		}
		for _, frag := range ntp.BuildReadVarResponse(m.Sequence, vars.Encode()) {
			s.reply(nw, dg, ntp.Port, frag, rep, now)
		}
	case ntp.ModeClient:
		// Spoofed mode-3 priming (or a stray honest client): answer, and
		// count it — priming volume is itself an abuse signal.
		var req ntp.Header
		if err := req.DecodeFromBytes(dg.Payload); err != nil {
			return
		}
		s.PrimingSeen += rep
		rp := ntp.NewServerReply(&req, 3, now)
		s.reply(nw, dg, ntp.Port, rp.AppendTo(nil), rep, now)
	}
}

// baitResponse is the bait table encoded for one monlist flavour.
type baitResponse struct {
	impl, reqCode uint8
	frags         [][]byte
}

// baitFragments returns the bait table's monlist response for impl and
// reqCode, encoding it at the first request of that flavour. The fabric
// copies every payload it sends, so the cached fragments are never handed
// out for keeps.
func (s *Sensor) baitFragments(impl, reqCode uint8) [][]byte {
	for _, b := range s.bait {
		if b.impl == impl && b.reqCode == reqCode {
			return b.frags
		}
	}
	frags := ntp.BuildMonlistResponse(s.mru, impl, reqCode)
	s.bait = append(s.bait, baitResponse{impl: impl, reqCode: reqCode, frags: frags})
	return frags
}

// handleDNS answers recursive queries with one modest TXT record — enough
// for a scanner to mark the sensor as an open resolver, far too little to
// amplify — and logs the trigger.
func (s *Sensor) handleDNS(nw *netsim.Network, dg *packet.Datagram, now time.Time) {
	q, err := dns.Decode(dg.Payload)
	if err != nil || q.Response {
		return
	}
	rep := dg.Rep
	if rep <= 0 {
		rep = 1
	}
	s.QueriesSeen += rep
	s.fleet.Detector.Ingest(s.Index, dg.IP.Src, dg.UDP.SrcPort, dg.IP.TTL, rep, now)
	resp := &dns.Message{ID: q.ID, Response: true, Recursion: q.Recursion, RecAvail: true,
		Question: q.Question,
		Answers: []dns.Record{{Name: q.Question.Name, Type: dns.TypeTXT, Class: 1,
			TTL: 3600, Data: []byte("honeypot")}}}
	raw, err := resp.Encode()
	if err != nil {
		return
	}
	s.reply(nw, dg, reflector.DNSPort, raw, rep, now)
}

// ssdpMSearch and ssdpBait are the discovery fingerprint and the minimal
// single-service answer that keeps a sensor in SSDP reflector lists.
var (
	ssdpMSearch = []byte("M-SEARCH")
	ssdpBait    = []byte("HTTP/1.1 200 OK\r\nST: upnp:rootdevice\r\nUSN: uuid:amppot-sensor\r\n\r\n")
)

// handleSSDP answers M-SEARCH discovery with a single service line.
func (s *Sensor) handleSSDP(nw *netsim.Network, dg *packet.Datagram, now time.Time) {
	if !bytes.HasPrefix(dg.Payload, ssdpMSearch) {
		return
	}
	rep := dg.Rep
	if rep <= 0 {
		rep = 1
	}
	s.QueriesSeen += rep
	s.fleet.Detector.Ingest(s.Index, dg.IP.Src, dg.UDP.SrcPort, dg.IP.TTL, rep, now)
	s.reply(nw, dg, reflector.SSDPPort, ssdpBait, rep, now)
}

// handleChargen answers any datagram with a short character stream.
func (s *Sensor) handleChargen(nw *netsim.Network, dg *packet.Datagram, now time.Time) {
	rep := dg.Rep
	if rep <= 0 {
		rep = 1
	}
	s.QueriesSeen += rep
	s.fleet.Detector.Ingest(s.Index, dg.IP.Src, dg.UDP.SrcPort, dg.IP.TTL, rep, now)
	s.reply(nw, dg, reflector.ChargenPort, reflector.ChargenPayload(128), rep, now)
}

// reply sends one response fragment back to the (possibly spoofed) source,
// clamped to the per-source RRL budget.
func (s *Sensor) reply(nw *netsim.Network, trigger *packet.Datagram, srcPort uint16, payload []byte, rep int64, now time.Time) {
	grant := s.grant(trigger.IP.Src, rep, now)
	m := s.fleet.m
	if grant <= 0 {
		s.RepliesSuppressed += rep
		if m != nil {
			m.RepliesSuppressed.Add(rep)
		}
		return
	}
	if grant < rep {
		s.RepliesSuppressed += rep - grant
		if m != nil {
			m.RepliesSuppressed.Add(rep - grant)
		}
	}
	out := packet.NewDatagram(s.Addr, srcPort, trigger.IP.Src, trigger.UDP.SrcPort, payload)
	out.IP.TTL = netsim.TTLLinux // sensors run on Linux boxes
	out.Rep = grant
	if nw.SendFrom(s.Addr, out) {
		s.RepliesSent += grant
		if m != nil {
			m.RepliesSent.Add(grant)
		}
	}
}

// grant debits up to rep packets from the source's current budget window.
func (s *Sensor) grant(src netaddr.Addr, rep int64, now time.Time) int64 {
	const budget = rrlRate * int64(rrlWindow/time.Second)
	st, ok := s.rrl[src]
	if !ok {
		st = &rrlState{windowStart: now}
		s.rrl[src] = st
	}
	if now.Sub(st.windowStart) >= rrlWindow {
		st.windowStart = now
		st.used = 0
	}
	grant := budget - st.used
	if grant <= 0 {
		return 0
	}
	if grant > rep {
		grant = rep
	}
	st.used += grant
	return grant
}
