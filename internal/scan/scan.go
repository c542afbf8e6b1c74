// Package scan implements the Internet-wide scanning machinery: a
// zmap-style full-cycle address permutation, a rate-limited prober host,
// and the weekly OpenNTPProject-style survey runner that produced the
// paper's core dataset.
package scan

import (
	"fmt"
	"time"

	"ntpddos/internal/metrics"
	"ntpddos/internal/netaddr"
	"ntpddos/internal/netsim"
	"ntpddos/internal/packet"
	"ntpddos/internal/vtime"
)

// Metrics is the scanner's optional live instrumentation, labeled by sweep
// kind ("monlist", "version") so the two ONP surveys stay distinguishable on
// one registry. All writes are atomic and free of behavioural effect.
type Metrics struct {
	Probes     *metrics.CounterVec // probes accepted by the fabric
	RespPkts   *metrics.CounterVec // Rep-weighted response packets correlated
	RespBytes  *metrics.CounterVec // Rep-weighted response bytes
	Responders *metrics.GaugeVec   // responders in the sweep now in flight
	Sweeps     *metrics.CounterVec // completed sweeps (one per RunSample)
}

// NewMetrics registers the scan family on r (nil r yields no-op metrics).
func NewMetrics(r *metrics.Registry) *Metrics {
	return &Metrics{
		Probes: r.NewCounterVec("ntpsim_scan_probes_sent_total",
			"Probe packets accepted by the fabric.", "kind"),
		RespPkts: r.NewCounterVec("ntpsim_scan_response_packets_total",
			"Rep-weighted response packets correlated to a target.", "kind"),
		RespBytes: r.NewCounterVec("ntpsim_scan_response_bytes_total",
			"Rep-weighted response bytes correlated to a target.", "kind"),
		Responders: r.NewGaugeVec("ntpsim_scan_responders",
			"Distinct responders correlated in the sweep now in flight.", "kind"),
		Sweeps: r.NewCounterVec("ntpsim_scan_sweeps_completed_total",
			"Survey sweeps completed.", "kind"),
	}
}

// kindView is the per-prober slice of Metrics: plain children resolved once
// so the per-packet path costs atomic ops, not map lookups.
type kindView struct {
	probes     *metrics.Counter
	respPkts   *metrics.Counter
	respBytes  *metrics.Counter
	responders *metrics.Gauge
	sweeps     *metrics.Counter
}

// view resolves the children for one sweep kind. Nil-safe.
func (m *Metrics) view(kind string) *kindView {
	if m == nil {
		return nil
	}
	return &kindView{
		probes:     m.Probes.With(kind),
		respPkts:   m.RespPkts.With(kind),
		respBytes:  m.RespBytes.With(kind),
		responders: m.Responders.With(kind),
		sweeps:     m.Sweeps.With(kind),
	}
}

// Permutation enumerates [0, n) in a pseudorandom order with full cycle —
// the property zmap relies on to spread probes across the address space so
// no destination network sees a burst. We use a power-of-two LCG (a ≡ 1
// mod 4, odd c ⇒ full period, Hull–Dobell) over the smallest 2^k ≥ n and
// skip out-of-range values; amortised cost stays O(1) per element because
// at most half the cycle is skipped.
type Permutation struct {
	n     uint64
	mask  uint64
	mult  uint64
	inc   uint64
	state uint64
	start uint64
	done  uint64
	first bool
}

// NewPermutation builds a permutation of [0, n) seeded deterministically.
func NewPermutation(n uint64, seed uint64) *Permutation {
	if n == 0 {
		panic("scan: empty permutation")
	}
	size := uint64(1)
	for size < n {
		size <<= 1
	}
	p := &Permutation{
		n:    n,
		mask: size - 1,
		// Knuth MMIX multiplier ≡ 1 mod 4 when masked? Use the classic
		// a=6364136223846793005 (≡ 1 mod 4), odd increment from the seed.
		mult: 6364136223846793005,
		inc:  (seed << 1) | 1,
	}
	p.start = seed & p.mask
	p.state = p.start
	p.first = true
	return p
}

// Next returns the next index. ok is false when the cycle completes (after
// exactly n distinct values).
func (p *Permutation) Next() (uint64, bool) {
	for {
		if p.done == p.n {
			return 0, false
		}
		if !p.first && p.state == p.start {
			return 0, false
		}
		v := p.state
		p.state = (p.state*p.mult + p.inc) & p.mask
		p.first = false
		if v < p.n {
			p.done++
			return v, true
		}
	}
}

// Reset rewinds the permutation to its start.
func (p *Permutation) Reset() {
	p.state = p.start
	p.done = 0
	p.first = true
}

// Shard enumerates every index of the permutation congruent to shard
// mod shards — zmap's mechanism for splitting one Internet-wide scan across
// machines with no coordination beyond the seed. The union of all shards is
// exactly the full permutation, disjointly.
type Shard struct {
	p             *Permutation
	shard, shards uint64
	position      uint64
}

// NewShard builds shard i of n over [0, size) with the given seed. All
// shards of the same (size, seed) walk the same global order.
func NewShard(size, seed, shard, shards uint64) *Shard {
	if shards == 0 || shard >= shards {
		panic("scan: shard index out of range")
	}
	return &Shard{p: NewPermutation(size, seed), shard: shard, shards: shards}
}

// Next returns the shard's next index.
func (s *Shard) Next() (uint64, bool) {
	for {
		v, ok := s.p.Next()
		if !ok {
			return 0, false
		}
		mine := s.position%s.shards == s.shard
		s.position++
		if mine {
			return v, true
		}
	}
}

// Response is everything a prober captured from one target.
type Response struct {
	Target   netaddr.Addr
	Packets  int64    // Rep-weighted packet count
	Bytes    int64    // Rep-weighted on-wire bytes
	Payloads [][]byte // raw UDP payloads, one per real datagram
	TTLs     []uint8
	First    time.Time
	Last     time.Time
}

// Prober is a scanning host: it sends one probe payload to each target and
// correlates every packet coming back by source address. It implements
// netsim.Host and must be registered at its address before sweeping.
type Prober struct {
	Addr    netaddr.Addr
	SrcPort uint16
	TTL     uint8

	// KeepPayloads controls whether raw payloads are retained (the analysis
	// needs them; pure population counts do not).
	KeepPayloads bool
	// MaxPayloadsPerTarget bounds per-target retention so a mega amplifier
	// cannot exhaust memory; extra packets still count in Packets/Bytes.
	MaxPayloadsPerTarget int

	Sent      int64
	responses map[netaddr.Addr]*Response
	mv        *kindView
}

// SetMetrics attaches live instrumentation under the given sweep kind.
func (p *Prober) SetMetrics(m *Metrics, kind string) { p.mv = m.view(kind) }

// NewProber builds a prober with payload retention on.
func NewProber(addr netaddr.Addr, srcPort uint16) *Prober {
	return &Prober{
		Addr: addr, SrcPort: srcPort, TTL: netsim.TTLLinux,
		KeepPayloads: true, MaxPayloadsPerTarget: 256,
		responses: make(map[netaddr.Addr]*Response),
	}
}

// HandlePacket implements netsim.Host: correlate by source address.
func (p *Prober) HandlePacket(_ *netsim.Network, dg *packet.Datagram, now time.Time) {
	r, ok := p.responses[dg.IP.Src]
	if !ok {
		r = &Response{Target: dg.IP.Src, First: now}
		p.responses[dg.IP.Src] = r
		if p.mv != nil {
			p.mv.responders.SetInt(int64(len(p.responses)))
		}
	}
	rep := dg.Rep
	if rep <= 0 {
		rep = 1
	}
	r.Packets += rep
	r.Bytes += int64(dg.OnWire()) * rep
	r.Last = now
	if p.mv != nil {
		p.mv.respPkts.Add(rep)
		p.mv.respBytes.Add(int64(dg.OnWire()) * rep)
	}
	if p.KeepPayloads && len(r.Payloads) < p.MaxPayloadsPerTarget {
		// Copy the bytes: the fabric recycles the delivered datagram (and
		// its payload buffer) as soon as HandlePacket returns.
		r.Payloads = append(r.Payloads, append([]byte(nil), dg.Payload...))
		r.TTLs = append(r.TTLs, dg.IP.TTL)
	}
}

// Sweep schedules one probe to every target, spread uniformly across the
// given duration starting at start. The caller drives the scheduler.
func (p *Prober) Sweep(nw *netsim.Network, targets []netaddr.Addr, dstPort uint16, payload []byte, start time.Time, duration time.Duration) {
	if len(targets) == 0 {
		return
	}
	if duration <= 0 {
		duration = time.Second
	}
	step := duration / time.Duration(len(targets))
	if step <= 0 {
		step = time.Nanosecond
	}
	sched := nw.Scheduler()
	for i, target := range targets {
		target := target
		sched.At(start.Add(time.Duration(i)*step), func(now time.Time) {
			if nw.SendUDP(p.Addr, p.SrcPort, target, dstPort, p.TTL, payload) {
				p.Sent++
				if p.mv != nil {
					p.mv.probes.Inc()
				}
			}
		})
	}
}

// Responses returns the accumulated responses keyed by target.
func (p *Prober) Responses() map[netaddr.Addr]*Response { return p.responses }

// Clear resets collected responses (between weekly samples) without
// forgetting the prober's identity.
func (p *Prober) Clear() {
	p.responses = make(map[netaddr.Addr]*Response)
	p.Sent = 0
	if p.mv != nil {
		p.mv.responders.SetInt(0)
	}
}

// Sample is the outcome of one survey sweep — the unit the ONP publishes
// weekly and the core package analyses.
type Sample struct {
	Date      time.Time
	Kind      string // "monlist" or "version"
	Responses map[netaddr.Addr]*Response
}

// NumResponders returns the responder population of the sample.
func (s *Sample) NumResponders() int { return len(s.Responses) }

// Survey drives repeated sweeps from a single source IP — the
// OpenNTPProject methodology (§3.1): one probe packet per target address
// per weekly pass, all response packets captured.
type Survey struct {
	Prober   *Prober
	Network  *netsim.Network
	Kind     string
	DstPort  uint16
	Payload  []byte
	Duration time.Duration

	Samples []*Sample
}

// RunSample executes one sweep over targets at the scheduler's current time
// and records the sample with the given label date. The scheduler is run
// until the sweep window plus a response-settling margin has elapsed.
func (s *Survey) RunSample(date time.Time, targets []netaddr.Addr) *Sample {
	s.Prober.Clear()
	start := s.Network.Now()
	s.Prober.Sweep(s.Network, targets, s.DstPort, s.Payload, start, s.Duration)
	// Settle: the last probe's response plus mega-amp replay tails.
	s.Network.Scheduler().RunUntil(start.Add(s.Duration + 2*time.Minute))
	sample := &Sample{Date: vtime.Day(date), Kind: s.Kind}
	sample.Responses = s.Prober.Responses()
	s.Prober.responses = make(map[netaddr.Addr]*Response)
	s.Samples = append(s.Samples, sample)
	if s.Prober.mv != nil {
		s.Prober.mv.sweeps.Inc()
	}
	return sample
}

// String describes the survey.
func (s *Survey) String() string {
	return fmt.Sprintf("scan.Survey{%s, %d samples}", s.Kind, len(s.Samples))
}
