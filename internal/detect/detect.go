// Package detect is the streaming detection plane: the online counterpart of
// internal/core's post-hoc victim classifier. It consumes fabric tap
// datagrams, polled monlist tables and darknet scanner sightings, and
// maintains, in bounded memory over internal/sketch structures:
//
//   - a victim top-k by reflected on-wire bytes (SpaceSaving),
//   - an amplifier top-k by emitted bytes (SpaceSaving),
//   - the unique-scanner cardinality (HyperLogLog — §5's darknet count,
//     computed from the attack-facing vantage instead),
//   - EWMA-based onset/offset alarms reproducing the paper's §4.2 victim
//     thresholds (mode ≥ 6, core.VictimMinCount, core.VictimMaxInterarrival)
//     online, per victim, as traffic arrives.
//
// Scanners are disambiguated from victims the way §7.2 does: a mode 6/7
// *request* arriving in the Linux TTL band (initial TTL 64 minus a plausible
// path) reveals a real prober at its true address, while spoofed attack
// triggers launch from Windows-band bots (TTL 128). Any address observed
// probing is suppressed from victim alarms — this is what keeps the ONP
// scanner, which receives millions of mode 7 response packets, out of the
// victim set.
//
// The detector is a passive tap: it never sends and never touches the
// simulation RNG or scheduler, so enabling it cannot perturb a run (the
// root-package digest test pins this). Its sketch hashing and outage
// schedule are keyed by sketchKey, one fixed key in every world: no world
// ever forked a key of its own from the seed, and the plane digests pin
// this key's outputs.
package detect

import (
	"bytes"
	"math"
	"sort"
	"time"

	"ntpddos/internal/core"
	"ntpddos/internal/netaddr"
	"ntpddos/internal/ntp"
	"ntpddos/internal/packet"
	"ntpddos/internal/reflector"
	"ntpddos/internal/rng"
	"ntpddos/internal/sketch"
)

// linuxTTLBand is the largest arrived TTL consistent with a Linux initial
// TTL of 64 — the §7.2 scanner fingerprint (netsim.TTLLinux minus at least
// one hop).
const linuxTTLBand = 64

// Lane is a per-protocol classification bucket. The tap classifies by
// service port and a cheap payload sniff, one lane per reflector vector;
// everything else is dropped after the port compares.
type Lane uint8

// The classification lanes, in presentation order.
const (
	LaneNTP Lane = iota
	LaneDNS
	LaneSSDP
	LaneChargen
	numLanes
)

// laneNames maps lanes to report labels.
var laneNames = [numLanes]string{"ntp", "dns", "ssdp", "chargen"}

// String returns the lane's report label.
func (l Lane) String() string {
	if int(l) < len(laneNames) {
		return laneNames[l]
	}
	return "?"
}

// Lanes returns every lane in presentation order.
func Lanes() []Lane { return []Lane{LaneNTP, LaneDNS, LaneSSDP, LaneChargen} }

// Config parameterizes the detector. The zero value is a detector with a
// perfect vantage.
type Config struct {
	// Vantage degrades the telemetry feeding this detector (packet sampling,
	// collector outages). The zero value is a perfect vantage; see Vantage.
	Vantage Vantage
}

// DefaultConfig returns a detector with a perfect vantage.
func DefaultConfig() Config { return Config{} }

// The detector's calibration. The §4.2 count and inter-arrival thresholds
// are core's; these size the sketches and time the alarms.
const (
	// topK sizes the victim and amplifier SpaceSaving summaries.
	topK = 64
	// hllPrecision sizes the scanner-cardinality HyperLogLog.
	hllPrecision = 12
	// rateHalfLife is the EWMA half-life of the per-victim packet-rate
	// estimate backing the onset/offset alarms.
	rateHalfLife = 10 * time.Minute
	// offsetGap is the silence after which an active victim gets an offset
	// alarm.
	offsetGap = 2 * time.Hour
	// sketchKey keys the HyperLogLog hash and salts the collector-outage
	// schedule. It is the same in every world, as it always was; changing
	// it would move every detector output.
	sketchKey = 1
)

// vantSalt salts the collector-outage schedule hash.
var vantSalt = rng.Mix64(sketchKey ^ 0xd6e8feb86659fd93)

// Alarm is one onset or offset detection.
type Alarm struct {
	// Onset is true for attack-start alarms, false for attack-end.
	Onset  bool
	Victim netaddr.Addr
	// Port is the victim-side destination port most recently reflected at.
	Port uint16
	// Vector labels the victim's dominant reflected protocol at alarm time
	// ("ntp", "dns", "ssdp", "chargen").
	Vector string
	// At is the alarm time: the triggering packet's arrival for onsets, the
	// last packet plus the (possibly pulse-extended) offset deadline for
	// offsets.
	At time.Time
	// Count is the Rep-weighted reflected packet count so far.
	Count int64
	// Rate is the EWMA packet-rate estimate (packets/second) at the alarm.
	Rate float64
	// Confidence scores the alarm's telemetry quality in [0, 1]: 1 under a
	// perfect vantage, divided by the 1-in-N sampling rate and scaled by the
	// live (non-outage) fraction of the victim's observation window.
	Confidence float64
}

// HeavyHitter is one top-k row.
type HeavyHitter struct {
	Addr netaddr.Addr
	// Bytes is the (possibly over-) estimated on-wire byte total.
	Bytes int64
	// Err is the SpaceSaving inherited error: Bytes−Err is guaranteed.
	Err int64
}

// victimState is the per-victim online classifier state.
type victimState struct {
	first   time.Time
	last    time.Time
	count   int64 // Rep-weighted reflected packets
	bytes   int64
	port    uint16
	rate    float64 // EWMA packets/second, decayed to last
	active  bool    // between onset and offset
	alarmed bool    // ever had an onset

	// laneRep tallies Rep-weighted reflected packets per protocol lane;
	// the argmax is the victim's classification.
	laneRep [numLanes]int64

	// Pulse tracking: gapEWMA is the learned inter-burst silence (seconds),
	// gapN how many such gaps were observed. A resumption after silence in
	// (minPulseGap, pulseLearnCap×offsetGap] reveals the wave's rotation
	// period; the offset deadline stretches to ride out further gaps of
	// that size instead of flapping once per burst.
	gapEWMA float64
	gapN    int
}

// dominantLane returns the lane carrying the most reflected packets
// (ties break toward the earlier lane; NTP first).
func (st *victimState) dominantLane() Lane {
	best := LaneNTP
	for l := Lane(1); l < numLanes; l++ {
		if st.laneRep[l] > st.laneRep[best] {
			best = l
		}
	}
	return best
}

// Pulse-tracker shape constants. minPulseGap must exceed the coarsest
// trigger batching interval a sustained campaign uses (20 minutes), so
// batch spacing is never mistaken for a rotation period; pulseHold sizes
// the deadline stretch per learned gap; pulseLearnCap bounds both what is
// learnable and the stretched deadline (silence beyond a few offsetGaps is
// a separate attack, not a rotation).
const (
	minPulseGap   = 30 * time.Minute
	pulseHold     = 2
	pulseLearnCap = 4
)

// The hot path's durations in seconds, each converted once by
// Duration.Seconds.
var (
	rateHalfLifeSec = rateHalfLife.Seconds()
	minPulseGapSec  = minPulseGap.Seconds()
	maxPulseGapSec  = (pulseLearnCap * offsetGap).Seconds()
	victimMaxGapSec = core.VictimMaxInterarrival.Seconds()
)

// Detector is the streaming detection plane. It implements netsim.Tap; the
// monlist-table and scanner-sighting paths feed the same state.
type Detector struct {
	cfg Config

	victimTop  *sketch.SpaceSaving
	ampTop     *sketch.SpaceSaving
	scannerHLL *sketch.HLL

	victims  map[netaddr.Addr]*victimState
	scanners netaddr.Set
	alarms   []Alarm

	packets    int64 // Rep-weighted classified packets seen (all lanes)
	responses  int64 // Rep-weighted reflected responses (all lanes)
	requests   int64 // Rep-weighted trigger/probe requests (all lanes)
	reflected  int64 // on-wire bytes of responses (all lanes)
	suppressed int64 // response packets discarded as scanner backscatter
	ingests    int64 // raw ingest operations, drives the prune cadence

	// lanes is the per-protocol breakdown of the totals above.
	lanes [numLanes]laneStats

	// samplePhase is the degraded vantage's systematic sampling phase
	// accumulator.
	samplePhase int64

	m *Metrics
}

// laneStats is one protocol lane's stream accounting.
type laneStats struct {
	requests   int64
	responses  int64
	reflected  int64
	suppressed int64
}

// pruneEvery is the ingest cadence of the bounded-memory sweep. Driven by
// the deterministic ingest count, never by time-of-day or map size, so two
// identical streams prune identically.
const pruneEvery = 8192

// New builds a detector.
func New(cfg Config) *Detector {
	return &Detector{
		cfg:        cfg,
		victimTop:  sketch.NewSpaceSaving(topK),
		ampTop:     sketch.NewSpaceSaving(topK),
		scannerHLL: sketch.NewHLL(hllPrecision, sketchKey),
		victims:    make(map[netaddr.Addr]*victimState),
		scanners:   netaddr.NewSet(0),
	}
}

// SetMetrics attaches (or, with nil, detaches) live instrumentation.
func (d *Detector) SetMetrics(m *Metrics) { d.m = m }

// ssdpOK / ssdpMSearch are the SSDP payload fingerprints — the response
// status line and the discovery method reflector hosts emit and answer.
var (
	ssdpOK      = []byte("HTTP/1.1 200")
	ssdpMSearch = []byte("M-SEARCH")
)

// streamDir is a classified datagram's role in the reflection stream.
type streamDir uint8

const (
	dirNone     streamDir = iota // counted, but neither a trigger nor a reflection
	dirRequest                   // trigger/probe toward a reflector
	dirResponse                  // reflected traffic toward a (claimed) victim
)

// classify assigns a fabric datagram to a protocol lane by service port plus
// a cheap payload sniff. ok=false drops the packet after the port compares,
// keeping the hot path cheap on unrelated streams; dirNone keeps the NTP
// semantics where a parsed mode 6/7 packet on a non-service source port is
// counted but ingested nowhere.
func classify(hdr *packet.Datagram, payload []byte) (lane Lane, dir streamDir, ok bool) {
	src, dst := hdr.UDP.SrcPort, hdr.UDP.DstPort
	switch {
	case src == ntp.Port || dst == ntp.Port:
		mode, mok := ntp.Mode(payload)
		if !mok || (mode != ntp.ModeControl && mode != ntp.ModePrivate) {
			return 0, 0, false
		}
		response := payload[0]&0x80 != 0 // mode 7 R bit
		if mode == ntp.ModeControl {
			response = len(payload) > 1 && payload[1]&0x80 != 0
		}
		switch {
		case response && src == ntp.Port:
			return LaneNTP, dirResponse, true
		case !response && dst == ntp.Port:
			return LaneNTP, dirRequest, true
		}
		return LaneNTP, dirNone, true
	case src == reflector.DNSPort || dst == reflector.DNSPort:
		if len(payload) < 12 {
			return 0, 0, false
		}
		response := payload[2]&0x80 != 0 // QR bit
		switch {
		case response && src == reflector.DNSPort:
			return LaneDNS, dirResponse, true
		case !response && dst == reflector.DNSPort:
			return LaneDNS, dirRequest, true
		}
		return LaneDNS, dirNone, true
	case src == reflector.SSDPPort || dst == reflector.SSDPPort:
		switch {
		case src == reflector.SSDPPort && bytes.HasPrefix(payload, ssdpOK):
			return LaneSSDP, dirResponse, true
		case dst == reflector.SSDPPort && bytes.HasPrefix(payload, ssdpMSearch):
			return LaneSSDP, dirRequest, true
		}
		return 0, 0, false
	case src == reflector.ChargenPort:
		return LaneChargen, dirResponse, true
	case dst == reflector.ChargenPort:
		return LaneChargen, dirRequest, true
	}
	return 0, 0, false
}

// trainState is what every response payload of one ObserveTrain call
// shares: one victim (hdr.IP.Dst), one amplifier (hdr.IP.Src) and one now.
type trainState struct {
	dark             bool         // the collector-outage test
	scanned, scanner bool         // the victim's scanner test, once made
	st               *victimState // the victim, from the first unsuppressed response
	nbytes           int64        // unsuppressed on-wire bytes, for the top-k adds
}

// ObserveTrain implements netsim.Tap. What the train's payloads share is
// resolved once per call: the collector-outage test; the victim's scanner
// test, made again only after a request payload marks a new scanner; its
// state, whose rate decay and pulse learning the first response does alone
// (every later one sees last == now, so no prune inside the call closes or
// drops it); and the top-k adds, one per summary, because SpaceSaving's
// Add(k, a) then Add(k, b) leaves the same summary as Add(k, a+b). The rest
// takes the per-datagram path in order, because the sampling phase, the rate
// impulses, the onset test and the prune cadence advance packet by packet.
func (d *Detector) ObserveTrain(hdr *packet.Datagram, payloads [][]byte, reps []int64, now time.Time) {
	tr := trainState{dark: d.darkAt(now)}
	for i, p := range payloads {
		d.observe(hdr, p, reps[i], &tr, now)
	}
	if tr.nbytes > 0 {
		d.victimTop.Add(uint64(hdr.IP.Dst), tr.nbytes)
		d.ampTop.Add(uint64(hdr.IP.Src), tr.nbytes)
	}
}

// observe classifies one datagram (hdr's addressing, carrying payload, rep
// times) into a protocol lane; tr is its train's shared state. NTP keeps its
// original mode 6/7 parse; DNS, SSDP, and chargen reflections are recognized
// by service port plus a payload sniff. Everything else is dropped after the
// port compares.
func (d *Detector) observe(hdr *packet.Datagram, payload []byte, rep int64, tr *trainState, now time.Time) {
	lane, dir, ok := classify(hdr, payload)
	if !ok {
		return
	}
	if d.cfg.Vantage.Degraded() {
		if tr.dark {
			if d.m != nil {
				d.m.OutageDropped.Add(rep)
			}
			return
		}
		orig := rep
		if rep = d.sampleRep(rep); rep == 0 {
			if d.m != nil {
				d.m.SampledOut.Add(orig)
			}
			return
		}
	}
	d.packets += rep
	if d.m != nil {
		d.m.Packets.Add(rep)
	}
	switch dir {
	case dirResponse:
		d.ingestResponse(tr, lane, hdr, int64(packet.OnWireBytesForUDPPayload(len(payload)))*rep, rep, now)
	case dirRequest:
		if d.ingestRequest(lane, hdr.IP.Src, hdr.IP.TTL, rep) {
			tr.scanned = false
		}
	}
	d.maybePrune(now)
}

// ingestRequest handles a trigger/probe. A Linux-band TTL exposes a real
// prober (§7.2): record it as a scanner and suppress it from victim alarms.
// Windows-band arrivals are the spoofed attack triggers; the claimed source
// is the victim, which the response stream will confirm. It reports whether
// it marked a new scanner.
func (d *Detector) ingestRequest(lane Lane, src netaddr.Addr, ttl uint8, rep int64) bool {
	d.requests += rep
	d.lanes[lane].requests += rep
	if d.m != nil {
		d.m.Requests.Add(rep)
	}
	return ttl <= linuxTTLBand && d.markScanner(src)
}

// markScanner records src as a prober: counted by the cardinality sketch and
// suppressed from victim alarms. It reports whether src is new to the set.
func (d *Detector) markScanner(src netaddr.Addr) bool {
	d.scannerHLL.Add(uint64(src))
	if d.scanners.Has(src) {
		return false
	}
	d.scanners.Add(src)
	if d.m != nil {
		d.m.ScannersMarked.Inc()
	}
	return true
}

// ingestResponse handles reflected amplifier → victim traffic, the
// substance of every alarm and heavy-hitter ranking.
func (d *Detector) ingestResponse(tr *trainState, lane Lane, hdr *packet.Datagram, nbytes, rep int64, now time.Time) {
	d.responses += rep
	d.lanes[lane].responses += rep
	if d.m != nil {
		d.m.Responses.Add(rep)
		d.m.ReflectedBytes.Add(nbytes)
	}
	if !tr.scanned {
		tr.scanned, tr.scanner = true, d.scanners.Has(hdr.IP.Dst)
	}
	if tr.scanner {
		// Backscatter to a known prober (the ONP scanner harvesting tables);
		// counting it would make our own measurement the top "victim".
		d.suppressed += rep
		d.lanes[lane].suppressed += rep
		if d.m != nil {
			d.m.Suppressed.Add(rep)
		}
		return
	}
	d.reflected += nbytes
	d.lanes[lane].reflected += nbytes
	tr.nbytes += nbytes

	st := tr.st
	if st == nil {
		st = d.victimAt(hdr.IP.Dst, hdr.UDP.DstPort, now)
		tr.st = st
	}
	// This batch's impulse on the EWMA rate. In steady state at r
	// packets/second the estimate converges to r.
	st.rate += float64(rep) * math.Ln2 / rateHalfLifeSec
	st.count += rep
	st.bytes += nbytes
	st.port = hdr.UDP.DstPort
	st.laneRep[lane] += rep

	if !st.active && d.qualifies(st, now) {
		st.active = true
		st.alarmed = true
		d.alarms = append(d.alarms, Alarm{
			Onset: true, Victim: hdr.IP.Dst, Port: st.port,
			Vector: st.dominantLane().String(), At: now,
			Count: st.count, Rate: st.rate,
			Confidence: d.confidence(st, now),
		})
		if d.m != nil {
			d.m.Onsets.Inc()
			d.m.Active.Inc()
		}
	}
}

// victimAt finds or creates victim's state and brings it to now, before the
// first of a train's impulses is added: the EWMA rate decays over the
// silence since its last packet, and traffic resuming after a long silence
// teaches the pulse tracker.
func (d *Detector) victimAt(victim netaddr.Addr, port uint16, now time.Time) *victimState {
	st, ok := d.victims[victim]
	if !ok {
		st = &victimState{first: now, last: now, port: port}
		d.victims[victim] = st
		if d.m != nil {
			d.m.Tracked.SetInt(int64(len(d.victims)))
		}
	}
	if dt := now.Sub(st.last).Seconds(); dt > 0 {
		st.rate *= math.Exp2(-dt / rateHalfLifeSec)
		// Pulse learning: traffic resuming after a long silence on an
		// already-alarmed victim reveals a burst rotation period. Learn it
		// (EWMA, first observation seeds) so the offset deadline can stretch
		// to ride the wave. Bounded below by minPulseGap so sustained-flood
		// batching never registers, above by pulseLearnCap×offsetGap so a
		// genuinely separate later attack doesn't.
		if st.alarmed && dt >= minPulseGapSec && dt <= maxPulseGapSec {
			if st.gapN == 0 {
				st.gapEWMA = dt
			} else {
				st.gapEWMA += 0.5 * (dt - st.gapEWMA)
			}
			st.gapN++
		}
	}
	st.last = now
	return st
}

// qualifies applies the §4.2 victim thresholds online: enough packets, and
// both the lifetime average inter-arrival and the instantaneous EWMA rate
// above one packet per core.VictimMaxInterarrival.
func (d *Detector) qualifies(st *victimState, now time.Time) bool {
	if st.count < core.VictimMinCount {
		return false
	}
	if avg := now.Sub(st.first).Seconds() / float64(st.count-1); avg > victimMaxGapSec {
		return false
	}
	return st.rate >= 1/victimMaxGapSec
}

// maybePrune runs the bounded-memory sweep every pruneEvery ingests: active
// victims silent past their offset deadline get their offset alarm; states
// idle past two gaps are dropped entirely (alarmed addresses stay for the
// final report).
func (d *Detector) maybePrune(now time.Time) {
	d.ingests++
	if d.ingests%pruneEvery != 0 {
		return
	}
	d.sweep(now, false)
}

// offsetDeadline is the silence that ends a victim's active episode. For
// sustained floods it is offsetGap; once inter-burst gaps have been
// learned, it stretches to pulseHold× the gap EWMA (capped at
// pulseLearnCap×offsetGap) so a pulse wave reads as one episode instead of
// one onset/offset flap per burst. The first long-gap cycle still flaps
// once — the gap is only observable after traffic resumes — after which the
// tracker converges.
func (d *Detector) offsetDeadline(st *victimState) time.Duration {
	deadline := offsetGap
	if st.gapN > 0 {
		if learned := time.Duration(pulseHold * st.gapEWMA * float64(time.Second)); learned > deadline {
			deadline = learned
		}
		if max := pulseLearnCap * offsetGap; deadline > max {
			deadline = max
		}
	}
	// Gap-heavy telemetry: under 1-in-N sampling a live flood can legitimately
	// fall silent for N× longer between kept batches, so the deadline widens
	// accordingly (capped at 4× — beyond that an offset estimate says nothing).
	if n := d.cfg.Vantage.SampleN; n > 1 {
		widen := n
		if widen > 4 {
			widen = 4
		}
		deadline *= time.Duration(widen)
	}
	return deadline
}

func (d *Detector) sweep(now time.Time, final bool) {
	for addr, st := range d.victims {
		idle := now.Sub(st.last)
		if d.cfg.Vantage.OutageFraction > 0 {
			// Dark time is the vantage's silence, not the victim's: subtract
			// it so a collector outage mid-campaign cannot flap an episode.
			idle -= d.darkOverlap(st.last, now)
		}
		deadline := d.offsetDeadline(st)
		if st.active && (idle >= deadline || final) {
			st.active = false
			at := st.last.Add(deadline)
			if final && idle < deadline {
				at = now
			}
			d.alarms = append(d.alarms, Alarm{
				Victim: addr, Port: st.port,
				Vector: st.dominantLane().String(), At: at,
				Count: st.count, Rate: st.rate,
				Confidence: d.confidence(st, now),
			})
			if d.m != nil {
				d.m.Offsets.Inc()
				d.m.Active.Dec()
			}
		}
		if !st.alarmed && idle >= 2*offsetGap {
			delete(d.victims, addr)
		}
	}
	if d.m != nil {
		d.m.Tracked.SetInt(int64(len(d.victims)))
		d.m.ScannerEstimate.SetInt(int64(d.scannerHLL.Estimate()))
	}
}

// Flush closes the stream at virtual time now: every still-active victim
// receives its offset alarm. Call once, at end of capture.
func (d *Detector) Flush(now time.Time) { d.sweep(now, true) }

// Alarms returns every alarm so far, ordered by (time, victim, onset-first).
// The order is deterministic even though offsets are discovered by map
// sweeps: alarm timestamps are derived from per-victim state, and the sort
// normalizes emission order.
func (d *Detector) Alarms() []Alarm {
	out := make([]Alarm, len(d.alarms))
	copy(out, d.alarms)
	sort.Slice(out, func(i, j int) bool {
		if !out[i].At.Equal(out[j].At) {
			return out[i].At.Before(out[j].At)
		}
		if out[i].Victim != out[j].Victim {
			return out[i].Victim < out[j].Victim
		}
		return out[i].Onset && !out[j].Onset
	})
	return out
}

// VictimSet returns every address that ever raised an onset alarm, minus any
// later unmasked as a scanner.
func (d *Detector) VictimSet() netaddr.Set {
	s := netaddr.NewSet(0)
	for addr, st := range d.victims {
		if st.alarmed && !d.scanners.Has(addr) {
			s.Add(addr)
		}
	}
	return s
}

// topEntries converts a SpaceSaving summary to addressed rows.
func topEntries(ss *sketch.SpaceSaving, n int) []HeavyHitter {
	entries := ss.Top(n)
	out := make([]HeavyHitter, len(entries))
	for i, e := range entries {
		out[i] = HeavyHitter{Addr: netaddr.Addr(e.Key), Bytes: e.Count, Err: e.Err}
	}
	return out
}

// TopVictims returns the n heaviest victims by reflected on-wire bytes.
func (d *Detector) TopVictims(n int) []HeavyHitter { return topEntries(d.victimTop, n) }

// TopAmplifiers returns the n heaviest amplifiers by emitted bytes.
func (d *Detector) TopAmplifiers(n int) []HeavyHitter { return topEntries(d.ampTop, n) }
