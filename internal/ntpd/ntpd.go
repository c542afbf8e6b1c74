// Package ntpd simulates the NTP daemon population the paper measures: time
// servers that — depending on version and configuration — answer mode 7
// monlist queries (the primary amplification vector), mode 6 readvar/version
// queries (the §3.3 secondary vector), or only honest mode 3 time requests.
//
// The daemon keeps the real ntpd's MRU ("most recently used") monitor list:
// the last 600 distinct client addresses with packet counts, modes, source
// ports and timing — the data structure whose disclosure lets the paper (and
// this reproduction) observe DDoS victims from the amplifiers themselves.
//
// A small number of daemons exhibit the §3.4 "mega amplifier" flaw: a
// routing-loop-like retransmission that replays an updated monlist response
// continuously, up to gigabytes per probe.
package ntpd

import (
	"encoding/binary"
	"fmt"
	"time"

	"ntpddos/internal/core"
	"ntpddos/internal/metrics"
	"ntpddos/internal/netaddr"
	"ntpddos/internal/netsim"
	"ntpddos/internal/ntp"
	"ntpddos/internal/packet"
)

// Metrics aggregates live instrumentation over the whole daemon population.
// One shared struct rides in Config (so it survives DHCP re-binds and mega
// rebuilds); per-daemon label cardinality at population scale would be
// unscrapeable, so counters are population totals. Query counters are
// pre-resolved children of one mode-labeled family, keeping the per-packet
// cost to a single atomic add. All values are Rep-weighted.
type Metrics struct {
	QueriesClient *metrics.Counter // mode 3 time requests
	QueriesMode7  *metrics.Counter // private-mode (monlist et al.) requests
	QueriesMode6  *metrics.Counter // control-mode (readvar) requests
	QueriesOther  *metrics.Counter // anything else recorded but unanswered

	MonlistSent *metrics.Counter // monlist response packets emitted
	Mode6Sent   *metrics.Counter // readvar response packets emitted
	BytesSent   *metrics.Counter // on-wire response bytes, all kinds
	MegaStorms  *metrics.Counter // §3.4 replay storms triggered

	// MRUEntries tracks live monitor-table entries summed over the
	// population; see DetachMRU for table teardown accounting.
	MRUEntries *metrics.Gauge
}

// NewMetrics registers the daemon family on r (nil r yields no-op metrics).
func NewMetrics(r *metrics.Registry) *Metrics {
	q := r.NewCounterVec("ntpsim_ntpd_queries_total",
		"Rep-weighted queries received by the daemon population, by NTP mode.",
		"mode")
	return &Metrics{
		QueriesClient: q.With("client"),
		QueriesMode7:  q.With("mode7"),
		QueriesMode6:  q.With("mode6"),
		QueriesOther:  q.With("other"),
		MonlistSent: r.NewCounter("ntpsim_ntpd_monlist_packets_total",
			"Rep-weighted monlist response packets emitted."),
		Mode6Sent: r.NewCounter("ntpsim_ntpd_mode6_packets_total",
			"Rep-weighted readvar (version) response packets emitted."),
		BytesSent: r.NewCounter("ntpsim_ntpd_response_bytes_total",
			"Rep-weighted on-wire response bytes emitted, all query kinds."),
		MegaStorms: r.NewCounter("ntpsim_ntpd_mega_storms_total",
			"Mega-amplifier replay storms triggered (§3.4)."),
		MRUEntries: r.NewGauge("ntpsim_ntpd_mru_entries",
			"Live MRU monitor-table entries summed over the population."),
	}
}

// Config describes one simulated daemon.
type Config struct {
	Addr netaddr.Addr

	// Stratum of the server; 16 means unsynchronized (§3.3 finds 19% of the
	// population in this embarrassing state).
	Stratum int

	// Profile carries the system/OS/version identity reported via mode 6.
	Profile Profile

	// MonlistEnabled makes the daemon answer monlist queries — the defining
	// property of an amplifier. Patching or `restrict noquery` clears it.
	MonlistEnabled bool

	// Mode6Enabled makes the daemon answer readvar (version) queries. This
	// pool is ~40x larger than the monlist pool and barely shrinks (§3.3).
	Mode6Enabled bool

	// Implementation is the mode 7 implementation number this daemon
	// accepts (ImplXNTPD or ImplXNTPDOld). The paper notes scanners send
	// only one value, so daemons of the other implementation are missed.
	Implementation uint8

	// Peers are the daemon's upstream associations, disclosed by the mode 7
	// peer-list command (the "showpeers" data §3.1 mentions as a lower-
	// amplification alternative to monlist).
	Peers []netaddr.Addr

	// ExtraVarBytes pads the readvar response with additional system
	// variables (peer lists, clock detail), matching the multi-hundred-byte
	// to multi-kilobyte responses real daemons return (§3.3's version BAF
	// quartiles come from this size spread).
	ExtraVarBytes int

	// MegaAmp enables the §3.4 replay flaw.
	MegaAmp bool
	// MegaRepeats is the total number of extra table replays a single query
	// triggers (spread over MegaEvents scheduler events via Rep batching).
	MegaRepeats int64
	// MegaEvents caps how many real scheduler events carry the replays.
	MegaEvents int
	// MegaInterval is the spacing between replay events.
	MegaInterval time.Duration

	// Metrics, when non-nil, attaches population-level live instrumentation.
	// Riding in Config means the pointer survives every place the scenario
	// copies a Config to rebuild a daemon (DHCP churn, mega rebuilds).
	Metrics *Metrics
}

// Server is a simulated daemon. It implements netsim.Host.
type Server struct {
	cfg Config

	// MRU monitor list: most-recent-first, capped at 600 entries. Entries
	// live in one contiguous slab linked by int32 indices (-1 = none):
	// no per-client allocation, nothing for the GC to chase, and the
	// monlist render walk stays within one array.
	mruStore []mruEntry
	mruFree  []int32
	mruHead  int32
	mruTail  int32
	mruLen   int
	index    map[netaddr.Addr]int32

	// QueriesSeen counts queries of any mode (Rep-weighted on the fabric).
	QueriesSeen int64
	// megaUntil is the end of the current replay storm; queries arriving
	// while a storm is in flight do not start another (but a later probe —
	// e.g. next week's scan — re-triggers, as the paper observed for
	// amplifiers misbehaving "more than one week in a row").
	megaUntil time.Time

	// mruGen counts table mutations; the response cache below reuses the
	// encoded monlist fragments for every query — probes, scans and
	// batched triggers alike — until the table has drifted by too many
	// mutations or is ten minutes old (see monlistFragments). A slightly
	// stale table is indistinguishable on the wire.
	//
	// A rebuild rewrites cacheFrags in place. encPos, indexed by slab slot
	// like mruStore, holds each entry's item position at the last encode,
	// or -1 once Record has touched the slot since. Record only moves
	// entries to the front, so an untouched entry's item keeps its bytes
	// and can only have shifted toward the tail; ExpireOlderThan is the
	// one mutation that shifts items toward the head. The table is
	// allocated at the first encode, so a daemon nobody probes pays
	// nothing for it.
	mruGen     int64
	cacheReq   uint8
	cacheGen   int64
	cacheAt    time.Time
	cacheFrags [][]byte
	cacheLen   int // items in cacheFrags
	encPos     []int32

	// Scratch state for the zero-alloc reply path. SendTrain copies the
	// header and payloads into the fabric's pool before returning, and a
	// socket caller writes Respond's payloads out before the next query, so
	// one reusable header, one payload buffer and one one-payload train
	// serve every reply, and the readvar response fragments are encoded
	// once (the sequence field is patched in place per query — it is the
	// only per-query wire state).
	out      packet.Datagram
	buf      []byte
	one      [1][]byte
	varFrags [][]byte
}

// mruEntry is one monitor-table row. Timestamps are virtual-clock UnixNano
// values: the wire encoding divides nanosecond deltas by time.Second with
// the same integer truncation time.Time.Sub arithmetic produced, so the
// observable monlist bytes are unchanged.
type mruEntry struct {
	addr        netaddr.Addr
	port        uint16
	mode        uint8
	version     uint8
	count       int64
	firstSeenNs int64
	lastSeenNs  int64
	prev, next  int32 // slab indices, mruNil = none
}

const mruNil = int32(-1)

// mruAlloc returns a slab slot for a new entry, reusing freed slots first.
// It may grow the slab, so callers must not hold entry pointers across it.
func (s *Server) mruAlloc() int32 {
	if n := len(s.mruFree); n > 0 {
		i := s.mruFree[n-1]
		s.mruFree = s.mruFree[:n-1]
		return i
	}
	s.mruStore = append(s.mruStore, mruEntry{})
	return int32(len(s.mruStore) - 1)
}

// mruPushFront links slot i as the most recent entry.
func (s *Server) mruPushFront(i int32) {
	e := &s.mruStore[i]
	e.prev = mruNil
	e.next = s.mruHead
	if s.mruHead != mruNil {
		s.mruStore[s.mruHead].prev = i
	} else {
		s.mruTail = i
	}
	s.mruHead = i
	s.mruLen++
}

// mruUnlink removes slot i from the list without touching the index or the
// free list.
func (s *Server) mruUnlink(i int32) {
	e := &s.mruStore[i]
	if e.prev != mruNil {
		s.mruStore[e.prev].next = e.next
	} else {
		s.mruHead = e.next
	}
	if e.next != mruNil {
		s.mruStore[e.next].prev = e.prev
	} else {
		s.mruTail = e.prev
	}
	e.prev, e.next = mruNil, mruNil
	s.mruLen--
}

// mruMoveToFront re-links slot i as the most recent entry.
func (s *Server) mruMoveToFront(i int32) {
	if s.mruHead == i {
		return
	}
	s.mruUnlink(i)
	s.mruPushFront(i)
}

// New builds a server from cfg, applying defaults: implementation XNTPD,
// mega replay spacing 500ms over 40 events.
func New(cfg Config) *Server {
	if cfg.Implementation == 0 {
		cfg.Implementation = ntp.ImplXNTPD
	}
	if cfg.MegaEvents <= 0 {
		cfg.MegaEvents = 40
	}
	if cfg.MegaInterval <= 0 {
		cfg.MegaInterval = 500 * time.Millisecond
	}
	if cfg.Stratum == 0 {
		cfg.Stratum = 3
	}
	return &Server{cfg: cfg, mruHead: mruNil, mruTail: mruNil,
		index: make(map[netaddr.Addr]int32)}
}

// Config returns the server's configuration.
func (s *Server) Config() Config { return s.cfg }

// Addr returns the server's address.
func (s *Server) Addr() netaddr.Addr { return s.cfg.Addr }

// IsAmplifier reports whether the daemon currently answers monlist.
func (s *Server) IsAmplifier() bool { return s.cfg.MonlistEnabled }

// Patch applies the §6 remediation: upgrade or `restrict noquery`, which
// stops monlist responses. Mode 6 usually stays on — matching the paper's
// observation that the version pool barely shrank.
func (s *Server) Patch() { s.cfg.MonlistEnabled = false }

// PatchMode6 additionally disables control queries.
func (s *Server) PatchMode6() { s.cfg.Mode6Enabled = false }

// MRULen returns the current monitor table size.
func (s *Server) MRULen() int { return s.mruLen }

// Record notes a packet from a client in the MRU list, honouring the
// 600-entry cap with least-recently-seen eviction. rep is the Rep batching
// multiplier of the observed datagram.
func (s *Server) Record(addr netaddr.Addr, port uint16, mode, version uint8, rep int64, now time.Time) {
	if rep <= 0 {
		rep = 1
	}
	if m := s.cfg.Metrics; m != nil {
		switch mode {
		case ntp.ModeClient:
			m.QueriesClient.Add(rep)
		case ntp.ModePrivate:
			m.QueriesMode7.Add(rep)
		case ntp.ModeControl:
			m.QueriesMode6.Add(rep)
		default:
			m.QueriesOther.Add(rep)
		}
	}
	s.mruGen++
	nowNs := now.UnixNano()
	if i, ok := s.index[addr]; ok {
		e := &s.mruStore[i]
		e.count += rep
		e.lastSeenNs = nowNs
		e.port = port
		e.mode = mode
		e.version = version
		s.mruMoveToFront(i)
		s.itemStale(i)
		return
	}
	i := s.mruAlloc()
	s.mruStore[i] = mruEntry{addr: addr, port: port, mode: mode, version: version,
		count: rep, firstSeenNs: nowNs, lastSeenNs: nowNs, prev: mruNil, next: mruNil}
	s.index[addr] = i
	s.mruPushFront(i)
	s.itemStale(i)
	if m := s.cfg.Metrics; m != nil {
		m.MRUEntries.Inc()
	}
	for s.mruLen > ntp.MaxMonlistEntries {
		back := s.mruTail
		delete(s.index, s.mruStore[back].addr)
		s.mruUnlink(back)
		s.mruFree = append(s.mruFree, back)
		if m := s.cfg.Metrics; m != nil {
			m.MRUEntries.Dec()
		}
	}
}

// itemStale marks slot i's encoded item as out of date: the next rebuild
// encodes it afresh.
func (s *Server) itemStale(i int32) {
	if int(i) < len(s.encPos) {
		s.encPos[i] = -1
	}
}

// ExpireOlderThan drops monitor entries whose last packet predates cutoff —
// the effect continuous client traffic has on a bounded MRU list. The
// scenario expires entries beyond ~48 hours before each survey, which is
// what bounds the §4.2 observation window (and the resulting ~3.8×
// under-sampling of attacks).
func (s *Server) ExpireOlderThan(cutoff time.Time) {
	cutoffNs := cutoff.UnixNano()
	var next int32
	for i := s.mruHead; i != mruNil; i = next {
		next = s.mruStore[i].next
		if s.mruStore[i].lastSeenNs < cutoffNs {
			delete(s.index, s.mruStore[i].addr)
			s.mruUnlink(i)
			s.mruFree = append(s.mruFree, i)
			s.mruGen++
			if m := s.cfg.Metrics; m != nil {
				m.MRUEntries.Dec()
			}
		}
	}
}

// DetachMRU settles the population MRU gauge when this daemon's table is
// being discarded wholesale (a mega rebuild replaces the Server object).
// Without it the gauge would leak the dead table's entries forever.
func (s *Server) DetachMRU() {
	if m := s.cfg.Metrics; m != nil {
		m.MRUEntries.Add(float64(-s.mruLen))
	}
}

// Respond is the socket transport's request path (cmd/ntpdsim serves real
// UDP through it): it answers one UDP payload from src and returns the
// reply payloads, without the §3.4 mega replay, which needs a scheduler.
// The payloads are the daemon's scratch, as the fabric path's are: they
// are valid until the daemon's next query, so a caller writes them out
// before it hands the daemon another packet.
func (s *Server) Respond(payload []byte, src netaddr.Addr, srcPort uint16, now time.Time) [][]byte {
	frags, kind, _ := s.answer(payload, src, srcPort, 1, now)
	if m := s.cfg.Metrics; m != nil {
		kind.Add(int64(len(frags)))
		for _, f := range frags {
			m.BytesSent.Add(int64(packet.OnWireBytesForUDPPayload(len(f))))
		}
	}
	return frags
}

// answer is the request path both transports share. It decodes one query
// from src, records the client in the MRU list (rep times) and applies the
// monlist and mode 6 restrictions and the implementation check. It returns
// the reply payloads, nil when the daemon stays silent, with their
// per-flavour packet counter (nil for mode 3 and peer-list replies), and
// the request code of a monlist reply (0 for any other), which may start
// the §3.4 replay. The payloads come from the daemon's scratch — the mode 3
// buffer and the cached monlist and readvar fragments — and are valid
// until its next query.
func (s *Server) answer(payload []byte, src netaddr.Addr, srcPort uint16, rep int64, now time.Time) ([][]byte, *metrics.Counter, uint8) {
	mode, ok := ntp.Mode(payload)
	if !ok {
		return nil, nil, 0
	}
	s.QueriesSeen += rep
	switch mode {
	case ntp.ModeClient:
		var req ntp.Header
		if err := req.DecodeFromBytes(payload); err != nil {
			return nil, nil, 0
		}
		s.Record(src, srcPort, ntp.ModeClient, req.Version, rep, now)
		req.SetServerReply(&req, uint8(s.cfg.Stratum), now)
		s.buf = req.AppendTo(s.buf[:0])
		s.one[0] = s.buf
		return s.one[:], nil, 0
	case ntp.ModePrivate:
		var m ntp.Mode7
		if err := m.DecodeFromBytes(payload); err != nil || m.Response {
			return nil, nil, 0
		}
		s.Record(src, srcPort, ntp.ModePrivate, 2, rep, now)
		if !s.cfg.MonlistEnabled {
			return nil, nil, 0 // patched daemons silently drop restricted queries
		}
		if m.Implementation != s.cfg.Implementation && m.Implementation != ntp.ImplUniv {
			return nil, nil, 0 // the §3.1 implementation-mismatch blind spot
		}
		switch m.Request {
		case ntp.ReqMonGetList, ntp.ReqMonGetList1:
			return s.monlistFragments(m.Request, now), s.cfg.Metrics.monlistCounter(), m.Request
		case ntp.ReqPeerList:
			return ntp.BuildPeerListResponse(s.peerEntries(), s.cfg.Implementation), nil, 0
		}
	case ntp.ModeControl:
		var m ntp.Mode6
		if err := m.DecodeFromBytes(payload); err != nil || m.Response {
			return nil, nil, 0
		}
		s.Record(src, srcPort, ntp.ModeControl, 2, rep, now)
		if !s.cfg.Mode6Enabled || m.OpCode != ntp.OpReadVar {
			return nil, nil, 0
		}
		if s.varFrags == nil {
			// The variable text is a pure function of the config, so the
			// fragments are encoded once per daemon; only the echoed
			// sequence number differs between queries, patched below.
			s.varFrags = ntp.BuildReadVarResponse(0, s.readVarText())
		}
		for _, frag := range s.varFrags {
			binary.BigEndian.PutUint16(frag[2:], m.Sequence)
		}
		return s.varFrags, s.cfg.Metrics.mode6Counter(), 0
	default:
		// Other modes are recorded but not answered.
		s.Record(src, srcPort, uint8(mode), 0, rep, now)
	}
	return nil, nil, 0
}

// monlistCounter and mode6Counter are nil-safe accessors so both transports
// can count per-flavour packets without guarding every call site.
func (m *Metrics) monlistCounter() *metrics.Counter {
	if m == nil {
		return nil
	}
	return m.MonlistSent
}

func (m *Metrics) mode6Counter() *metrics.Counter {
	if m == nil {
		return nil
	}
	return m.Mode6Sent
}

// readVarText renders the daemon's system-variable response body.
func (s *Server) readVarText() string {
	vars := ntp.SystemVariables{
		Version:   s.cfg.Profile.VersionString,
		Processor: s.cfg.Profile.Processor,
		System:    s.cfg.Profile.SystemString,
		Stratum:   s.cfg.Stratum,
		RefID:     s.refID(),
	}
	text := vars.Encode()
	for pad := 0; pad < s.cfg.ExtraVarBytes; pad += 44 {
		text += fmt.Sprintf(", peer%d=10.%d.%d.%d flash=0 reach=377", pad/44,
			pad%200, (pad/3)%200, (pad/7)%200)
	}
	return text
}

// HandlePacket implements netsim.Host: it answers the query through the
// fabric as one train and, after a monlist reply, starts the §3.4 mega
// replay.
func (s *Server) HandlePacket(nw *netsim.Network, dg *packet.Datagram, now time.Time) {
	if dg.UDP.DstPort != ntp.Port {
		return
	}
	frags, kind, monlist := s.answer(dg.Payload, dg.IP.Src, dg.UDP.SrcPort, dg.Rep, now)
	if frags == nil {
		return
	}
	kind.Add(s.send(nw, dg.IP.Src, dg.UDP.SrcPort, frags, dg.Rep))
	if monlist != 0 && s.cfg.MegaAmp {
		s.startMegaReplay(nw, dg, monlist)
	}
}

// send hands a reply's payloads to the fabric as one train, addressed from
// the server's scratch header, and counts the on-wire bytes of what left
// when metrics are attached.
// It returns the Rep-weighted number of datagrams sent. Header and payloads
// are reusable the moment it returns: the fabric copies both.
func (s *Server) send(nw *netsim.Network, dst netaddr.Addr, dstPort uint16, payloads [][]byte, rep int64) int64 {
	s.out.IP = packet.IPv4{TTL: s.cfg.Profile.TTL, Protocol: packet.ProtocolUDP, Src: s.cfg.Addr, Dst: dst}
	s.out.UDP = packet.UDP{SrcPort: ntp.Port, DstPort: dstPort}
	s.out.Rep = rep
	if !nw.SendTrain(s.cfg.Addr, &s.out, payloads) {
		return 0
	}
	if m := s.cfg.Metrics; m != nil {
		var wire int64
		for _, p := range payloads {
			wire += int64(packet.OnWireBytesForUDPPayload(len(p)))
		}
		m.BytesSent.Add(wire * rep)
	}
	return int64(len(payloads)) * rep
}

// peerEntries renders the configured upstream associations.
func (s *Server) peerEntries() []ntp.PeerEntry {
	out := make([]ntp.PeerEntry, len(s.cfg.Peers))
	for i, p := range s.cfg.Peers {
		out[i] = ntp.PeerEntry{Addr: p, Port: ntp.Port, HMode: ntp.ModeClient, Flags: 0x01}
	}
	return out
}

// monlistFragments returns the encoded response via a staleness-tolerant
// cache: under attack, a daemon's 600-entry table is re-encoded at most
// every ten minutes rather than per trigger. Survey probes may therefore
// see a table a few minutes old — consistent with the paper's observation
// that the probe is "typically but not always" the topmost entry.
//
// A rebuild rewrites the cached fragments in place, in one walk of the MRU
// from tail to head. Record only moves entries to the front, so an entry it
// has not touched since the last encode can only have shifted toward the
// tail: its item keeps its bytes, where it is or copied toward the tail, and
// only LastSeen is rewritten. Every other item is encoded afresh: an entry
// recorded since, one that would move toward the head (after
// ExpireOlderThan), and every item on a first encode or a request-code
// change. Walking from the tail, slot p is written only after every slot
// toward the tail of it, so a kept item's old slot, at or toward the head
// of p, is never read after being overwritten. The fragments are reframed
// only when the item count or request code changed. The bytes equal
// ntp.BuildMonlistResponse over the table as it stands.
//
// The returned fragments are valid until the next rebuild (they reuse the
// cache's buffers); the fabric's taps read and the fabric copies them during
// SendTrain, and the socket path writes them out before processing another
// packet, so no caller outlives them.
func (s *Server) monlistFragments(reqCode uint8, now time.Time) [][]byte {
	const maxGenDrift = 500
	if s.cacheFrags != nil && s.cacheReq == reqCode &&
		s.mruGen-s.cacheGen <= maxGenDrift && now.Sub(s.cacheAt) < 10*time.Minute {
		return s.cacheFrags
	}
	// Items of the previous encode are only reusable in the same layout.
	reuse := s.cacheFrags != nil && s.cacheReq == reqCode
	size := ntp.MonlistItemSize(reqCode)
	frags := s.cacheFrags
	if !reuse || s.cacheLen != s.mruLen {
		// The headers and lengths depend on the item count and request
		// code alone.
		frags = ntp.FrameMonlistResponse(frags, s.mruLen, s.cfg.Implementation, reqCode)
	}
	for len(s.encPos) < len(s.mruStore) {
		s.encPos = append(s.encPos, -1)
	}
	nowNs := now.UnixNano()
	p := int32(s.mruLen)
	i := s.mruTail
	for f := len(frags) - 1; i != mruNil; f-- {
		items := ntp.MonlistItems(frags[f])
		for off := len(items) - size; off >= 0; off -= size {
			p--
			e := &s.mruStore[i]
			item := items[off : off+size : off+size]
			lastSeen := uint32((nowNs - e.lastSeenNs) / int64(time.Second))
			if q := s.encPos[i]; reuse && q >= 0 && q <= p {
				if q != p {
					copy(item, ntp.MonlistItem(frags, int(q), size))
				}
				binary.BigEndian.PutUint32(item[ntp.MonLastSeenOffset:], lastSeen)
			} else {
				// Inter-arrival and last-seen are computed at query time,
				// like ntpd does.
				var avg uint32
				if e.count > 1 {
					avg = uint32((e.lastSeenNs - e.firstSeenNs) / int64(time.Second) / (e.count - 1))
				}
				ent := ntp.MonEntry{
					Addr:        e.addr,
					DAddr:       s.cfg.Addr,
					Count:       uint32(core.Min64(e.count, 1<<32-1)),
					Mode:        e.mode,
					Version:     e.version,
					Port:        e.port,
					AvgInterval: avg,
					LastSeen:    lastSeen,
				}
				ent.PutItem(item)
			}
			s.encPos[i] = p
			i = e.prev
		}
	}
	s.cacheFrags = frags
	s.cacheLen = s.mruLen
	s.cacheReq = reqCode
	s.cacheGen = s.mruGen
	s.cacheAt = now
	return frags
}

// startMegaReplay schedules the §3.4 flaw: the daemon re-processes the query
// repeatedly, incrementing the querier's count and resending the updated
// table. The replay volume is Rep-batched over MegaEvents scheduler events.
func (s *Server) startMegaReplay(nw *netsim.Network, trigger *packet.Datagram, reqCode uint8) {
	if s.cfg.MegaRepeats <= 0 || nw.Now().Before(s.megaUntil) {
		return
	}
	events := s.cfg.MegaEvents
	if m := s.cfg.Metrics; m != nil {
		m.MegaStorms.Inc()
	}
	s.megaUntil = nw.Now().Add(time.Duration(events+1) * s.cfg.MegaInterval)
	perEvent := s.cfg.MegaRepeats / int64(events)
	if perEvent <= 0 {
		perEvent = 1
		events = int(s.cfg.MegaRepeats)
	}
	// The replays take the trigger's addressing by value: the fabric owns
	// delivered datagrams and recycles them after HandlePacket returns.
	src, sport := trigger.IP.Src, trigger.UDP.SrcPort
	for i := 1; i <= events; i++ {
		nw.Scheduler().After(time.Duration(i)*s.cfg.MegaInterval, func(now time.Time) {
			// Each replay batch re-counts the querier, exactly the behaviour
			// the paper reverse-engineered from the repeating tables.
			s.Record(src, sport, ntp.ModePrivate, 2, perEvent, now)
			frags := s.monlistFragments(reqCode, now)
			s.cfg.Metrics.monlistCounter().Add(s.send(nw, src, sport, frags, perEvent))
		})
	}
}

func (s *Server) refID() string {
	if s.cfg.Stratum == ntp.StratumUnsynchronized {
		return "INIT"
	}
	return "GPS"
}
