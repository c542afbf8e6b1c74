// Package ispview implements the §7 regional-network vantage points: flow
// and packet-level taps over one ISP's address space (Merit, FRGP, CSU in
// the paper). A view classifies traffic crossing its border and derives the
// paper's local analyses — NTP volume time series (Figures 11/12), top
// victims and amplifiers (Tables 5/6, Figure 13), protocol mix (Figure 14),
// cross-site victim/scanner overlap (Figures 15/16), TTL fingerprints
// (§7.2), and the 95th-percentile billing impact (§7.1).
package ispview

import (
	"sort"
	"time"

	"ntpddos/internal/asdb"
	"ntpddos/internal/metrics"
	"ntpddos/internal/netaddr"
	"ntpddos/internal/ntp"
	"ntpddos/internal/packet"
	"ntpddos/internal/stats"
	"ntpddos/internal/vtime"
)

// Metrics is the per-site flow-tap instrumentation, labeled by site name so
// Merit, FRGP and CSU share one registry. Each View resolves its children
// once at SetMetrics, keeping the tap path free of map lookups.
type Metrics struct {
	Packets      *metrics.CounterVec // border-crossing packets observed
	IngressBytes *metrics.CounterVec // on-wire NTP bytes inbound (dport 123)
	EgressBytes  *metrics.CounterVec // on-wire NTP bytes outbound (sport 123)
	Amplifiers   *metrics.GaugeVec   // internal amplifier candidates tracked
	Victims      *metrics.GaugeVec   // external victim candidates tracked
	Scanners     *metrics.GaugeVec   // external scanner sources tracked
}

// NewMetrics registers the ispview family on r (nil r yields no-op metrics).
func NewMetrics(r *metrics.Registry) *Metrics {
	return &Metrics{
		Packets: r.NewCounterVec("ntpsim_ispview_packets_total",
			"Rep-weighted border-crossing packets the site's tap classified.",
			"site"),
		IngressBytes: r.NewCounterVec("ntpsim_ispview_ingress_ntp_bytes_total",
			"On-wire NTP bytes entering the site (udp dport 123).", "site"),
		EgressBytes: r.NewCounterVec("ntpsim_ispview_egress_ntp_bytes_total",
			"On-wire NTP bytes leaving the site (udp sport 123).", "site"),
		Amplifiers: r.NewGaugeVec("ntpsim_ispview_amplifier_candidates",
			"Internal hosts with amplifier-pattern traffic being tracked.", "site"),
		Victims: r.NewGaugeVec("ntpsim_ispview_victim_candidates",
			"External hosts with victim-pattern traffic being tracked.", "site"),
		Scanners: r.NewGaugeVec("ntpsim_ispview_scanner_sources",
			"External probing sources being tracked.", "site"),
	}
}

// Thresholds from the paper's footnote 3 (following Rossow): a victim is a
// client receiving at least 100 KB from an amplifier with an
// amplifier-bytes-to-bytes-sent ratio of at least 100; an amplifier sent at
// least 10 MB with a sent/received ratio above 5.
const (
	VictimMinBytes    = 100 << 10
	VictimMinRatio    = 100
	AmplifierMinBytes = 10 << 20
	AmplifierMinRatio = 5
)

// AmpStats accumulates per-internal-amplifier traffic.
type AmpStats struct {
	Addr netaddr.Addr
	// PayloadIn/PayloadOut are UDP payload bytes (the footnote's BAF is a
	// UDP payload ratio); WireOut is on-wire for volume reporting.
	PayloadIn  int64
	PayloadOut int64
	WireOut    int64
	Victims    netaddr.Set
	perVictim  map[netaddr.Addr]*pairStats

	// Attack traffic arrives in long same-victim runs; remembering the last
	// pair looked up skips the map (and the Victims set insert — a cache hit
	// proves membership). Entries are never removed, so the pointer cannot
	// go stale.
	lastVictim netaddr.Addr
	lastPair   *pairStats
}

type pairStats struct {
	payloadOut int64
	wireOut    int64
	packets    int64
	first      time.Time
	last       time.Time
}

// BAF returns the amplifier's payload amplification ratio.
func (a *AmpStats) BAF() float64 {
	if a.PayloadIn == 0 {
		return 0
	}
	return float64(a.PayloadOut) / float64(a.PayloadIn)
}

// VictimStats accumulates per-external-victim traffic from this site's
// amplifiers.
type VictimStats struct {
	Addr       netaddr.Addr
	PayloadIn  int64 // amplified payload bytes the victim received
	WireIn     int64
	Packets    int64
	TriggerOut int64 // payload bytes of the victim's (spoofed) triggers
	Amplifiers netaddr.Set
	// lastAmp short-circuits Amplifiers.Add for the same-amplifier runs
	// attack reflection produces.
	lastAmp   netaddr.Addr
	lastAmpOK bool
	First     time.Time
	Last      time.Time
	Ports     *stats.Histogram
	// Hourly is the victim's received on-wire volume per hour — one line of
	// Figure 13's stacked top-victims chart.
	Hourly *stats.TimeSeries
}

// BAF is the victim-side payload ratio (bytes received / trigger bytes).
func (v *VictimStats) BAF() float64 {
	if v.TriggerOut == 0 {
		return 0
	}
	return float64(v.PayloadIn) / float64(v.TriggerOut)
}

// DurationHours is the observed attack span against this victim.
func (v *VictimStats) DurationHours() float64 {
	return v.Last.Sub(v.First).Hours()
}

// ScannerStats tracks one external source probing the site.
type ScannerStats struct {
	Addr    netaddr.Addr
	Packets int64
	Dsts    netaddr.Set
	First   time.Time
	Last    time.Time
}

// View is one regional network's tap. It implements netsim.Tap.
type View struct {
	Name string

	db       *asdb.DB
	prefixes []netaddr.Prefix

	// IngressNTP and EgressNTP are on-wire byte series at hourly buckets:
	// the Figure 11/12 lines (udp dport=123 and udp sport=123).
	IngressNTP *stats.TimeSeries
	EgressNTP  *stats.TimeSeries
	// ProtoBytes feeds Figure 14's stacked protocol mix. Simulated packets
	// contribute "ntp"/"dns"; baselines come from AddBaseline.
	ProtoBytes map[string]*stats.TimeSeries

	amps     map[netaddr.Addr]*AmpStats
	victims  map[netaddr.Addr]*VictimStats
	scanners map[netaddr.Addr]*ScannerStats

	// ScanTTL and TriggerTTL are the §7.2 fingerprint histograms of
	// received TTLs for scanner probes vs. spoofed attack triggers.
	ScanTTL    *stats.Histogram
	TriggerTTL *stats.Histogram

	// billingBucket collects hourly total on-wire volumes (simulated
	// traffic plus baselines) for the 95th-percentile transit billing
	// model.
	billingBucket *stats.TimeSeries

	// Lazily resolved ProtoBytes entries for the three classes the packet
	// tap can emit, so ObserveTrain skips the string-keyed map lookup.
	ntpSeries, dnsSeries, otherSeries *stats.TimeSeries

	// Last amp/victim lookups memoized for the same-flow packet runs the
	// attack engine emits. amps and victims entries are never removed, so
	// the cached pointers cannot go stale.
	lastAmpAddr netaddr.Addr
	lastAmp     *AmpStats
	lastVicAddr netaddr.Addr
	lastVic     *VictimStats

	// Pre-resolved metric children for this site (nil when detached).
	mPackets  *metrics.Counter
	mIngress  *metrics.Counter
	mEgress   *metrics.Counter
	mAmps     *metrics.Gauge
	mVictims  *metrics.Gauge
	mScanners *metrics.Gauge
}

// SetMetrics attaches live instrumentation under this view's site name.
func (v *View) SetMetrics(m *Metrics) {
	if m == nil {
		v.mPackets, v.mIngress, v.mEgress = nil, nil, nil
		v.mAmps, v.mVictims, v.mScanners = nil, nil, nil
		return
	}
	v.mPackets = m.Packets.With(v.Name)
	v.mIngress = m.IngressBytes.With(v.Name)
	v.mEgress = m.EgressBytes.With(v.Name)
	v.mAmps = m.Amplifiers.With(v.Name)
	v.mVictims = m.Victims.With(v.Name)
	v.mScanners = m.Scanners.With(v.Name)
}

// New builds a view over the given ASes' allocations.
func New(name string, db *asdb.DB, ases ...*asdb.AS) *View {
	v := &View{
		Name:          name,
		db:            db,
		IngressNTP:    stats.NewTimeSeries(vtime.Epoch, time.Hour),
		EgressNTP:     stats.NewTimeSeries(vtime.Epoch, time.Hour),
		ProtoBytes:    make(map[string]*stats.TimeSeries),
		amps:          make(map[netaddr.Addr]*AmpStats),
		victims:       make(map[netaddr.Addr]*VictimStats),
		scanners:      make(map[netaddr.Addr]*ScannerStats),
		ScanTTL:       stats.NewHistogram(),
		TriggerTTL:    stats.NewHistogram(),
		billingBucket: stats.NewTimeSeries(vtime.Epoch, time.Hour),
	}
	for _, as := range ases {
		v.prefixes = append(v.prefixes, as.Prefixes...)
	}
	return v
}

// Contains reports whether an address is inside the view's network.
func (v *View) Contains(a netaddr.Addr) bool {
	for _, p := range v.prefixes {
		if p.Contains(a) {
			return true
		}
	}
	return false
}

// protoSeries returns the ProtoBytes series for the packet's class, caching
// the resolved pointer (creation still goes through addProto so the map
// stays the single source of truth for reports).
func (v *View) protoSeries(dg *packet.Datagram) *stats.TimeSeries {
	switch {
	case dg.UDP.SrcPort == ntp.Port || dg.UDP.DstPort == ntp.Port:
		if v.ntpSeries == nil {
			v.ntpSeries = v.protoEntry("ntp")
		}
		return v.ntpSeries
	case dg.UDP.SrcPort == 53 || dg.UDP.DstPort == 53:
		if v.dnsSeries == nil {
			v.dnsSeries = v.protoEntry("dns")
		}
		return v.dnsSeries
	default:
		if v.otherSeries == nil {
			v.otherSeries = v.protoEntry("other")
		}
		return v.otherSeries
	}
}

func (v *View) protoEntry(name string) *stats.TimeSeries {
	ts, ok := v.ProtoBytes[name]
	if !ok {
		ts = stats.NewTimeSeries(vtime.Epoch, time.Hour)
		v.ProtoBytes[name] = ts
	}
	return ts
}

func (v *View) addProto(name string, now time.Time, bytes float64) {
	v.protoEntry(name).Add(now, bytes)
}

// AddBaseline injects background (non-simulated) traffic volume for a
// protocol class over [from, to) at the given bytes/hour — the HTTP/HTTPS
// floors of Figure 14.
func (v *View) AddBaseline(proto string, from, to time.Time, bytesPerHour float64) {
	for t := from; t.Before(to); t = t.Add(time.Hour) {
		v.addProto(proto, t, bytesPerHour)
		v.billingBucket.Add(t, bytesPerHour)
	}
}

// ObserveTrain implements netsim.Tap. Everything the payloads of a train
// share is done once: the border tests, the protocol and direction tests,
// and the amplifier, pair, victim and scanner lookups. Integer counters,
// histograms, metrics and the series that only ever hold whole byte counts
// (the ntp ProtoBytes, EgressNTP, IngressNTP, victim Hourly) take one sum
// per train: sums of whole numbers below 2^53 are exact in any order. Only
// the NTP mode parse and the series that also hold AddBaseline's fractional
// volumes (billing, dns and other ProtoBytes) are touched per payload, in
// order, so every result is bit-identical to observing the payloads one by
// one.
func (v *View) ObserveTrain(hdr *packet.Datagram, payloads [][]byte, now time.Time) {
	srcIn := v.Contains(hdr.IP.Src)
	dstIn := v.Contains(hdr.IP.Dst)
	if !srcIn && !dstIn {
		return
	}
	rep := hdr.Rep
	if rep <= 0 {
		rep = 1
	}
	v.mPackets.Add(rep * int64(len(payloads)))
	proto := v.protoSeries(hdr)
	if hdr.UDP.SrcPort != ntp.Port && hdr.UDP.DstPort != ntp.Port {
		for _, p := range payloads {
			wire := float64(int64(packet.OnWireBytesForUDPPayload(len(p))) * rep)
			proto.Add(now, wire)
			v.billingBucket.Add(now, wire)
		}
		return
	}

	// Egress NTP: our host answering (sport=123) toward outside. Ingress
	// NTP: outside traffic toward our hosts (dport=123). hits counts the
	// payloads that are amplifier replies (mode 6/7) on egress, or mode 7
	// requests on ingress.
	egress := srcIn && !dstIn && hdr.UDP.SrcPort == ntp.Port
	ingress := dstIn && !srcIn && hdr.UDP.DstPort == ntp.Port
	var wire, payload, hits, hitWire, hitPayload int64
	var m7 ntp.Mode7
	for _, p := range payloads {
		w := int64(packet.OnWireBytesForUDPPayload(len(p))) * rep
		n := int64(len(p)) * rep
		wire += w
		payload += n
		v.billingBucket.Add(now, float64(w))
		mode, _ := ntp.Mode(p)
		if egress && (mode == ntp.ModePrivate || mode == ntp.ModeControl) ||
			ingress && mode == ntp.ModePrivate && m7.DecodeFromBytes(p) == nil && !m7.Response {
			hits++
			hitWire += w
			hitPayload += n
		}
	}
	proto.Add(now, float64(wire))

	if egress {
		v.EgressNTP.Add(now, float64(wire))
		v.mEgress.Add(wire)
		if hits > 0 {
			amp := v.amp(hdr.IP.Src)
			amp.PayloadOut += hitPayload
			amp.WireOut += hitWire
			// pair() maintains amp.Victims: the set gains the victim exactly
			// when the perVictim entry is created.
			ps := amp.pair(hdr.IP.Dst, now)
			ps.payloadOut += hitPayload
			ps.wireOut += hitWire
			ps.packets += rep * hits
			ps.last = now

			vic := v.victim(hdr.IP.Dst, now)
			vic.PayloadIn += hitPayload
			vic.WireIn += hitWire
			vic.Packets += rep * hits
			if !vic.lastAmpOK || vic.lastAmp != hdr.IP.Src {
				vic.Amplifiers.Add(hdr.IP.Src)
				vic.lastAmp, vic.lastAmpOK = hdr.IP.Src, true
			}
			vic.Last = now
			vic.Ports.Add(int(hdr.UDP.DstPort), rep*hits)
			vic.Hourly.Add(now, float64(hitWire))
		}
	}

	if ingress {
		v.IngressNTP.Add(now, float64(wire))
		v.mIngress.Add(wire)
		v.amp(hdr.IP.Dst).PayloadIn += payload
		if hits == 0 {
			return
		}
		// Rate separates the two ingress populations: scanners send single
		// probes; attack triggers arrive in high-rate batches (Rep > 1).
		// Spoofed trigger "sources" are the victims.
		if rep > 1 {
			v.TriggerTTL.Add(int(hdr.IP.TTL), rep*hits)
			v.victim(hdr.IP.Src, now).TriggerOut += hitPayload
			return
		}
		v.ScanTTL.Add(int(hdr.IP.TTL), rep*hits)
		sc, ok := v.scanners[hdr.IP.Src]
		if !ok {
			sc = &ScannerStats{Addr: hdr.IP.Src, Dsts: netaddr.NewSet(0), First: now}
			v.scanners[hdr.IP.Src] = sc
			v.mScanners.SetInt(int64(len(v.scanners)))
		}
		sc.Packets += rep * hits
		sc.Dsts.Add(hdr.IP.Dst)
		sc.Last = now
	}
}

func (v *View) amp(a netaddr.Addr) *AmpStats {
	if v.lastAmp != nil && v.lastAmpAddr == a {
		return v.lastAmp
	}
	s, ok := v.amps[a]
	if !ok {
		s = &AmpStats{Addr: a, Victims: netaddr.NewSet(0), perVictim: make(map[netaddr.Addr]*pairStats)}
		v.amps[a] = s
		v.mAmps.SetInt(int64(len(v.amps)))
	}
	v.lastAmpAddr, v.lastAmp = a, s
	return s
}

func (a *AmpStats) pair(victim netaddr.Addr, now time.Time) *pairStats {
	if a.lastPair != nil && a.lastVictim == victim {
		return a.lastPair
	}
	p, ok := a.perVictim[victim]
	if !ok {
		p = &pairStats{first: now, last: now}
		a.perVictim[victim] = p
		a.Victims.Add(victim)
	}
	a.lastVictim, a.lastPair = victim, p
	return p
}

func (v *View) victim(a netaddr.Addr, now time.Time) *VictimStats {
	if v.lastVic != nil && v.lastVicAddr == a {
		return v.lastVic
	}
	s, ok := v.victims[a]
	if !ok {
		s = &VictimStats{Addr: a, Amplifiers: netaddr.NewSet(0), First: now, Last: now,
			Ports: stats.NewHistogram(), Hourly: stats.NewTimeSeries(vtime.Epoch, time.Hour)}
		v.victims[a] = s
		v.mVictims.SetInt(int64(len(v.victims)))
	}
	v.lastVicAddr, v.lastVic = a, s
	return s
}

// Amplifiers returns the internal hosts meeting the footnote-3 amplifier
// thresholds, sorted by BAF descending — Table 5's rows.
func (v *View) Amplifiers() []*AmpStats {
	var out []*AmpStats
	for _, a := range v.amps {
		ratio := a.BAF()
		if a.PayloadOut >= AmplifierMinBytes && ratio > AmplifierMinRatio {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].BAF() != out[j].BAF() {
			return out[i].BAF() > out[j].BAF()
		}
		return out[i].Addr < out[j].Addr
	})
	return out
}

// Victims returns external hosts meeting the footnote-3 victim thresholds,
// sorted by payload received descending — Table 6 and Figure 13's rows.
func (v *View) Victims() []*VictimStats {
	var out []*VictimStats
	for _, s := range v.victims {
		if s.PayloadIn >= VictimMinBytes &&
			(s.TriggerOut == 0 || s.BAF() >= VictimMinRatio) {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].PayloadIn != out[j].PayloadIn {
			return out[i].PayloadIn > out[j].PayloadIn
		}
		return out[i].Addr < out[j].Addr
	})
	return out
}

// Scanners returns external probing sources sorted by address.
func (v *View) Scanners() []*ScannerStats {
	out := make([]*ScannerStats, 0, len(v.scanners))
	for _, s := range v.scanners {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// VictimSet returns all victim addresses (unthresholded victims excluded).
func (v *View) VictimSet() netaddr.Set {
	s := netaddr.NewSet(len(v.victims))
	for _, vs := range v.Victims() {
		s.Add(vs.Addr)
	}
	return s
}

// ScannerSet returns all scanner addresses.
func (v *View) ScannerSet() netaddr.Set {
	s := netaddr.NewSet(len(v.scanners))
	for a := range v.scanners {
		s.Add(a)
	}
	return s
}

// OwnerASN returns the origin AS and country of an external address via the
// registry — Table 6's ASN/Country columns.
func (v *View) OwnerASN(a netaddr.Addr) (asn uint32, country string) {
	as := v.db.OwnerOf(a)
	if as == nil {
		return 0, "??"
	}
	return uint32(as.Number), string(as.Country)
}

// Billed95 computes the 95th-percentile billing level (bytes per hourly
// interval) over [from, to). Comparing a pre-attack and an attack month
// quantifies §7.1's "direct measurable costs".
func (v *View) Billed95(from, to time.Time) float64 {
	var samples []float64
	for _, p := range v.billingBucket.Points() {
		if !p.Time.Before(from) && p.Time.Before(to) {
			samples = append(samples, p.Value)
		}
	}
	return stats.Percentile95(samples)
}

// PairSeries returns the hourly on-wire volume an amplifier sent one victim
// — the per-victim stacked lines of Figure 13 are sums of these.
func (v *View) PairVolume(amp, victim netaddr.Addr) (payloadOut, wireOut, packets int64) {
	a, ok := v.amps[amp]
	if !ok {
		return 0, 0, 0
	}
	p, ok := a.perVictim[victim]
	if !ok {
		return 0, 0, 0
	}
	return p.payloadOut, p.wireOut, p.packets
}
