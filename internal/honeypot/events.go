package honeypot

import (
	"sort"
	"time"

	"ntpddos/internal/darknet"
	"ntpddos/internal/metrics"
	"ntpddos/internal/netaddr"
)

// Metrics is the fleet's live instrumentation: ingest volume, the event
// lifecycle (opened, closed, bursts merged into open events, scanner
// suppressions) and the sensors' RRL accounting. Writes are atomic and the
// detector's thresholds never read them, so detection is unaffected.
type Metrics struct {
	Requests           *metrics.Counter
	EventsOpened       *metrics.Counter
	EventsClosed       *metrics.Counter
	BurstsMerged       *metrics.Counter
	SuppressedScanners *metrics.Counter
	OpenEvents         *metrics.Gauge
	FlowKeys           *metrics.Gauge
	RepliesSent        *metrics.Counter
	RepliesSuppressed  *metrics.Counter
	BlackoutDropped    *metrics.Counter
}

// NewMetrics registers the honeypot family on r (nil r yields no-op metrics).
func NewMetrics(r *metrics.Registry) *Metrics {
	return &Metrics{
		Requests: r.NewCounter("ntpsim_honeypot_requests_total",
			"Rep-weighted monlist requests ingested by the event detector."),
		EventsOpened: r.NewCounter("ntpsim_honeypot_events_opened_total",
			"Attack events opened (threshold crossed on a flow key)."),
		EventsClosed: r.NewCounter("ntpsim_honeypot_events_closed_total",
			"Attack events closed (gap timeout or flush)."),
		BurstsMerged: r.NewCounter("ntpsim_honeypot_bursts_merged_total",
			"Episodes after more than 5 minutes of quiet, merged into an already-open event."),
		SuppressedScanners: r.NewCounter("ntpsim_honeypot_scanner_suppressed_total",
			"Threshold crossings attributed to scanners and dropped."),
		OpenEvents: r.NewGauge("ntpsim_honeypot_open_events",
			"Attack events currently open across the fleet."),
		FlowKeys: r.NewGauge("ntpsim_honeypot_flow_keys",
			"Live (victim, port) aggregation keys in the detector."),
		RepliesSent: r.NewCounter("ntpsim_honeypot_replies_sent_total",
			"Rep-weighted response packets the sensors emitted (post-RRL)."),
		RepliesSuppressed: r.NewCounter("ntpsim_honeypot_replies_suppressed_total",
			"Rep-weighted responses withheld by response-rate limiting."),
		BlackoutDropped: r.NewCounter("ntpsim_honeypot_blackout_dropped_total",
			"Rep-weighted packets that arrived at blacked-out sensors."),
	}
}

// The event detector's calibration.
const (
	// eventWindow is the sliding aggregation window.
	eventWindow = time.Minute
	// eventMinPackets is the Rep-weighted request count inside eventWindow
	// that opens an event. The smallest fabric campaigns deliver
	// rate×duration ≥ 20 packets per included sensor in a single trigger
	// batch; scan probes deliver exactly one packet per (source, port) key.
	eventMinPackets = 15
	// eventGap closes an event after this much silence on its key. It must
	// exceed the coarsest trigger batching interval (long site campaigns
	// batch at 20 minutes), or one campaign shatters into many events.
	eventGap = 45 * time.Minute
	// burstGap is the sub-event granularity: quiet spells longer than this
	// but shorter than eventGap are merged into the open event and counted —
	// the flow-level attack count a honeypot event can hide.
	burstGap = 5 * time.Minute
)

// Event is one detected attack: sustained monlist requests claiming the same
// (victim, port) source across the fleet.
type Event struct {
	Victim netaddr.Addr
	Port   uint16
	First  time.Time
	Last   time.Time
	// Packets is the Rep-weighted request total.
	Packets int64
	// Bursts counts the burstGap-separated trigger episodes merged into this
	// one event (the honeypot-vs-flow count disagreement, quantified).
	Bursts int
	// Sensors is the set of sensor indices that observed the event.
	Sensors map[int]struct{}
	// PeakWindow is the highest Rep-weighted count seen in one eventWindow.
	PeakWindow int64
}

// Duration returns the event's observed extent.
func (e *Event) Duration() time.Duration { return e.Last.Sub(e.First) }

// SensorList returns the observing sensor indices, sorted.
func (e *Event) SensorList() []int {
	out := make([]int, 0, len(e.Sensors))
	for i := range e.Sensors {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// flowKey identifies one aggregation stream: the claimed source address and
// source port of arriving monlist requests. For spoofed triggers that is the
// victim and the attacked port; for scanners, their real address and an
// ephemeral port.
type flowKey struct {
	addr netaddr.Addr
	port uint16
}

// sample is one ingested request batch inside the sliding window.
type sample struct {
	t   time.Time
	rep int64
}

// flowState is one key's sliding window plus its open event.
type flowState struct {
	window    []sample // FIFO, bounded by eventWindow
	windowSum int64
	lastSeen  time.Time
	event     *Event
}

// sourceStats profiles one claimed source address across the whole fleet for
// scanner-vs-victim disambiguation.
type sourceStats struct {
	perSensor []float64 // Rep-weighted hits per sensor index
	linuxTTL  int64     // packets whose TTL decayed from a Linux initial TTL
	totalPkts int64
	peak      int64 // highest single-window count over all of the source's keys
}

// Detector aggregates fleet-wide requests into events.
type Detector struct {
	// numSensors sizes the per-source fan-out profile for scanner
	// disambiguation; fanout is the distinct-sensor count at which a source
	// becomes a scanner candidate (broad coverage of the fleet).
	numSensors, fanout int

	flows   map[flowKey]*flowState
	sources map[netaddr.Addr]*sourceStats
	closed  []*Event

	// SuppressedScanners counts events that crossed the packet threshold but
	// were attributed to a scanner-classified source and dropped.
	SuppressedScanners int64
	// Requests is the Rep-weighted ingest total.
	Requests int64

	ingests int64
	m       *Metrics
}

// SetMetrics attaches (or, with nil, detaches) live instrumentation.
func (d *Detector) SetMetrics(m *Metrics) { d.m = m }

// NewDetector builds a detector for a fleet of numSensors sensors.
func NewDetector(numSensors int) *Detector {
	fanout := numSensors * 3 / 5
	if fanout < 2 {
		fanout = 2
	}
	return &Detector{
		numSensors: numSensors,
		fanout:     fanout,
		flows:      make(map[flowKey]*flowState),
		sources:    make(map[netaddr.Addr]*sourceStats),
	}
}

// Ingest records one monlist request batch observed by sensor sensorIdx.
// src/srcPort are the request's claimed source; ttl is the arrived TTL; rep
// is the batch multiplier. This is the hot path.
func (d *Detector) Ingest(sensorIdx int, src netaddr.Addr, srcPort uint16, ttl uint8, rep int64, now time.Time) {
	if rep <= 0 {
		rep = 1
	}
	d.Requests += rep
	d.ingests++
	if d.m != nil {
		d.m.Requests.Add(rep)
	}

	// Per-source profile.
	ss, ok := d.sources[src]
	if !ok {
		ss = &sourceStats{perSensor: make([]float64, d.numSensors)}
		d.sources[src] = ss
	}
	if sensorIdx >= 0 && sensorIdx < len(ss.perSensor) {
		ss.perSensor[sensorIdx] += float64(rep)
	}
	ss.totalPkts += rep
	// A TTL at or below 64 decayed from a Linux initial TTL (scanners);
	// spoofed triggers leave Windows bots at 128 and arrive above 64 (§7.2).
	if ttl <= 64 {
		ss.linuxTTL += rep
	}

	// Per-key sliding window.
	key := flowKey{addr: src, port: srcPort}
	fs, ok := d.flows[key]
	if !ok {
		fs = &flowState{}
		d.flows[key] = fs
	}

	// Close a stale event before extending the window across the gap.
	if fs.event != nil && now.Sub(fs.lastSeen) > eventGap {
		d.closed = append(d.closed, fs.event)
		fs.event = nil
		fs.window = fs.window[:0]
		fs.windowSum = 0
		if d.m != nil {
			d.m.EventsClosed.Inc()
			d.m.OpenEvents.Dec()
		}
	}

	// Evict samples older than eventWindow.
	cutoff := now.Add(-eventWindow)
	i := 0
	for i < len(fs.window) && fs.window[i].t.Before(cutoff) {
		fs.windowSum -= fs.window[i].rep
		i++
	}
	if i > 0 {
		fs.window = fs.window[:copy(fs.window, fs.window[i:])]
	}
	fs.window = append(fs.window, sample{t: now, rep: rep})
	fs.windowSum += rep
	if fs.windowSum > ss.peak {
		ss.peak = fs.windowSum
	}

	if fs.event != nil {
		ev := fs.event
		if now.Sub(fs.lastSeen) > burstGap {
			ev.Bursts++
			if d.m != nil {
				d.m.BurstsMerged.Inc()
			}
		}
		ev.Last = now
		ev.Packets += rep
		ev.Sensors[sensorIdx] = struct{}{}
		if fs.windowSum > ev.PeakWindow {
			ev.PeakWindow = fs.windowSum
		}
	} else if fs.windowSum >= eventMinPackets {
		if d.isScanner(ss) {
			d.SuppressedScanners++
			if d.m != nil {
				d.m.SuppressedScanners.Inc()
			}
		} else {
			if d.m != nil {
				d.m.EventsOpened.Inc()
				d.m.OpenEvents.Inc()
			}
			fs.event = &Event{
				Victim: src, Port: srcPort,
				First: fs.window[0].t, Last: now,
				Packets: fs.windowSum, Bursts: 1,
				Sensors:    map[int]struct{}{sensorIdx: {}},
				PeakWindow: fs.windowSum,
			}
		}
	}
	fs.lastSeen = now

	// Opportunistic pruning keeps the one-probe scanner keys from
	// accumulating forever. Deterministic: driven by ingest count only.
	if d.ingests%4096 == 0 {
		d.prune(now)
	}
	if d.m != nil {
		d.m.FlowKeys.SetInt(int64(len(d.flows)))
	}
}

// isScanner applies the disambiguation heuristics: broad and even fleet
// coverage (the shared darknet uniformity score), no key ever sustaining
// event-grade rates, and the Linux TTL fingerprint of real scan boxes.
func (d *Detector) isScanner(ss *sourceStats) bool {
	if ss.peak >= eventMinPackets*4 {
		return false // sustained event-grade rate: not reconnaissance
	}
	if ss.totalPkts > 0 && float64(ss.linuxTTL)/float64(ss.totalPkts) < 0.5 {
		return false // predominantly Windows-band TTLs: spoofing bots
	}
	return darknet.ScannerLike(ss.perSensor, d.fanout, darknet.DefaultScannerScore)
}

// prune drops idle, event-less flow keys (scan probes create one key each).
func (d *Detector) prune(now time.Time) {
	cutoff := now.Add(-eventGap)
	for k, fs := range d.flows {
		if fs.event == nil && fs.lastSeen.Before(cutoff) {
			delete(d.flows, k)
		}
	}
}

// Flush closes every open event. Call once the run is over (or the caller
// is done injecting traffic) before reading Events.
func (d *Detector) Flush(now time.Time) {
	for _, fs := range d.flows {
		if fs.event != nil {
			d.closed = append(d.closed, fs.event)
			fs.event = nil
			if d.m != nil {
				d.m.EventsClosed.Inc()
				d.m.OpenEvents.Dec()
			}
		}
	}
}

// Events returns all closed events, ordered by first-seen time then key —
// a deterministic order under a fixed seed.
func (d *Detector) Events() []*Event {
	out := make([]*Event, len(d.closed))
	copy(out, d.closed)
	sort.Slice(out, func(i, j int) bool {
		if !out[i].First.Equal(out[j].First) {
			return out[i].First.Before(out[j].First)
		}
		if out[i].Victim != out[j].Victim {
			return out[i].Victim < out[j].Victim
		}
		return out[i].Port < out[j].Port
	})
	return out
}

// ScannerSources returns the sources currently classified as scanners,
// sorted — the reconnaissance census the fleet observed.
func (d *Detector) ScannerSources() []netaddr.Addr {
	var out []netaddr.Addr
	for a, ss := range d.sources {
		if d.isScanner(ss) {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
