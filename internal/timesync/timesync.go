// Package timesync implements a deterministic client-side NTP sync
// discipline over the simulated fabric: mode 3 polls with exponential
// backoff, the RFC 5905 offset/delay sample math, an 8-deep clock filter,
// falseticker majority voting across servers, and slew-vs-step clock
// updates with the classic 128 ms step and 1000 s panic thresholds. Where
// the rest of the repo models NTP servers as DDoS amplifiers, this package
// models what NTP is actually *for* — so the time-integrity attacks in
// internal/timeattack have a measurable victim: the local clock error of
// every disciplined host.
package timesync

import (
	"math"
	"time"

	"ntpddos/internal/netaddr"
	"ntpddos/internal/netsim"
	"ntpddos/internal/ntp"
	"ntpddos/internal/packet"
)

// Discipline thresholds, straight from RFC 5905 §11 and the ntpd reference
// implementation.
const (
	// StepThreshold: offsets at or above this are stepped, below are
	// slewed (ntpd's STEPT, 128 ms).
	StepThreshold = 128 * time.Millisecond
	// PanicThreshold: offsets above this are never applied once the clock
	// has been set (ntpd's PANICT, 1000 s). Gradual-drift attacks stay
	// under it on purpose.
	PanicThreshold = 1000 * time.Second
	// MinPoll/MaxPoll bound the poll exponent: 2^6 = 64 s to 2^10 = 1024 s.
	MinPoll int8 = 6
	MaxPoll int8 = 10
	// Port is every client's ephemeral source port for polls.
	Port uint16 = 50123
	// filterDepth is the clock-filter shift register size (RFC 5905 §10).
	filterDepth = 8
	// stackAssocs is how many associations updateClock votes over without
	// a heap allocation.
	stackAssocs = 8
	// maxFreqCorr caps the discipline's frequency correction at ±500 ppm,
	// ntpd's slew-rate limit; maxFreqAdj bounds a single update's nudge so
	// short poll intervals cannot slam the integrator.
	maxFreqCorr = 500e-6
	maxFreqAdj  = 10e-6
	// agePenalty is RFC 5905's PHI (15 ppm/s): a sample's dispersion grows
	// with age, so the clock filter prefers fresh samples over stale
	// min-delay ones measured against an older clock state.
	agePenalty = 15e-6
)

// Monitor receives passive telemetry from every disciplined client: the
// per-server samples, kiss-o'-death packets seen on the wire, and clock
// events. The drift-aware detector in internal/detect implements it; the
// interface lives here so detect need not be imported.
type Monitor interface {
	ObserveSample(client, server netaddr.Addr, offset, delay time.Duration, now time.Time)
	ObserveKiss(client, server netaddr.Addr, code string, now time.Time)
	// ObserveEvent reports a clock event: "step", "panic", "no-majority"
	// (falseticker voting lost quorum) or "leap" (leap bits armed).
	ObserveEvent(client netaddr.Addr, kind string, magnitude time.Duration, now time.Time)
}

// Clock-event kinds passed to Monitor.ObserveEvent.
const (
	EventStep       = "step"
	EventPanic      = "panic"
	EventNoMajority = "no-majority"
	EventLeap       = "leap"
)

// LocalClock models a host clock as an error process against true
// (simulated) time: a phase offset plus a frequency error, both corrected
// by the discipline. Reading the clock never mutates it; corrections fold
// accumulated drift into the offset first so the model stays piecewise
// linear and exactly reproducible.
//
// Instants are int64 Unix nanoseconds (time.Time.UnixNano), true and
// local alike, and the difference of two is time.Duration(a-b). For two
// instants of NTP era 0 (1900–2036) that is exactly Time.Sub: they lie at
// most ~4.3e18 ns apart, inside the ±292 years at which Time.Sub
// saturates.
type LocalClock struct {
	base    int64   // true time the offset was last folded, Unix ns
	offset  float64 // seconds of error at base (local − true)
	hwFreq  float64 // hardware frequency error, s/s (fixed)
	corr    float64 // discipline's frequency correction, s/s
	everSet bool    // first update steps unconditionally (ntpd -g)
}

// NewLocalClock builds a clock with the given initial phase error and
// hardware drift in parts per million.
func NewLocalClock(start time.Time, initOffset time.Duration, freqPPM float64) *LocalClock {
	return &LocalClock{base: start.UnixNano(), offset: initOffset.Seconds(), hwFreq: freqPPM * 1e-6}
}

// ErrAt returns the clock's error (local − true) at the given true time in
// Unix nanoseconds.
func (c *LocalClock) ErrAt(now int64) time.Duration {
	dt := time.Duration(now - c.base).Seconds()
	return dur(c.offset + (c.hwFreq+c.corr)*dt)
}

// ReadAt returns the local clock reading at the given true time, both in
// Unix nanoseconds.
func (c *LocalClock) ReadAt(now int64) int64 {
	return now + int64(c.ErrAt(now))
}

// advance folds drift accumulated since base into the offset.
func (c *LocalClock) advance(now int64) {
	dt := time.Duration(now - c.base).Seconds()
	c.offset += (c.hwFreq + c.corr) * dt
	c.base = now
}

// Step applies an immediate phase jump at now (Unix ns).
func (c *LocalClock) Step(now int64, delta time.Duration) {
	c.advance(now)
	c.offset += delta.Seconds()
	c.everSet = true
}

// Slew applies a gradual phase correction and a frequency-correction
// nudge, the latter clamped to ±500 ppm, at now (Unix ns).
func (c *LocalClock) Slew(now int64, delta time.Duration, freqAdj float64) {
	c.advance(now)
	c.offset += delta.Seconds()
	c.corr += freqAdj
	if c.corr > maxFreqCorr {
		c.corr = maxFreqCorr
	} else if c.corr < -maxFreqCorr {
		c.corr = -maxFreqCorr
	}
	c.everSet = true
}

// Config describes one disciplined client.
type Config struct {
	// Addr is the client's fabric address.
	Addr netaddr.Addr
	// Servers are the time sources, one association each.
	Servers []netaddr.Addr
	// InitOffset is the clock's phase error at start; FreqPPM its hardware
	// drift in parts per million.
	InitOffset time.Duration
	FreqPPM    float64
	// Metrics and Monitor are optional passive observers.
	Metrics *Metrics
	Monitor Monitor
}

// sample is one clock-filter entry.
type sample struct {
	offset float64 // seconds, measured clock correction
	delay  float64 // seconds, round-trip delay
	at     int64   // true arrival time, Unix ns
}

// assoc is the per-server association state.
type assoc struct {
	server    netaddr.Addr
	poll      int8
	reach     uint8
	xmt       uint64 // origin cookie of the in-flight poll
	sentLocal int64  // local-clock transmit time of the in-flight poll, Unix ns
	inflight  bool
	stopped   bool // a honored DENY/RSTR kills the association
	samples   [filterDepth]sample
	nsamples  int
	next      int // ring write index
	jitter    float64
	// fire runs the association's next poll. Fleet.Start builds it once,
	// so re-arming the poll loop schedules no new closure.
	fire func(now time.Time)
}

func (a *assoc) addSample(s sample) {
	a.samples[a.next] = s
	a.next = (a.next + 1) % filterDepth
	if a.nsamples < filterDepth {
		a.nsamples++
	}
	b := a.best(s.at)
	var sum float64
	for i := 0; i < a.nsamples; i++ {
		d := a.samples[i].offset - b.offset
		sum += d * d
	}
	a.jitter = math.Sqrt(sum / float64(a.nsamples))
}

// best returns the minimum-dispersion sample in the filter at now (Unix
// ns): RFC 5905 §10's clock-filter selection with delay plus PHI-grown
// age, so a stale min-delay sample loses to a fresh one once its
// dispersion catches up.
func (a *assoc) best(now int64) sample {
	b := a.samples[0]
	bscore := b.delay + agePenalty*time.Duration(now-b.at).Seconds()
	for i := 1; i < a.nsamples; i++ {
		s := a.samples[i]
		score := s.delay + agePenalty*time.Duration(now-s.at).Seconds()
		if score < bscore {
			b, bscore = s, score
		}
	}
	return b
}

func (a *assoc) clear() {
	a.nsamples = 0
	a.next = 0
	a.jitter = 0
}

// Stats are a client's lifetime counters, aggregated by Fleet.Summarize.
type Stats struct {
	Polls, Replies, Samples    int64
	Malformed, RejectedOrigin  int64
	InsecureAccepts, Stray     int64
	UnsyncReplies              int64
	Steps, Slews, Panics       int64
	NoMajority                 int64
	KissSeen, KodRate, KodDeny int64
	KodOther, KodRejected      int64
	LeapSignals                int64
}

// Client is one disciplined host on the fabric.
type Client struct {
	cfg        Config
	clk        *LocalClock
	assocs     []*assoc
	byServer   map[netaddr.Addr]*assoc
	end        time.Time
	stats      Stats
	panicked   bool
	leap       bool
	insecure   bool  // set by MarkInsecure
	streak     int   // consecutive small-offset updates, drives poll backoff
	lastUpdate int64 // last system clock update (rate limiter), Unix ns; noUpdate before the first
	// pollBuf holds the encoded poll: the fabric copies a payload before
	// SendUDP returns, so one buffer serves every poll.
	pollBuf [ntp.HeaderLen]byte
}

// noUpdate is lastUpdate before the first system clock update: the
// earliest int64 Unix ns instant (1677), which no update can happen at.
const noUpdate = math.MinInt64

// NewClient builds a client; start seeds the local clock model.
func NewClient(cfg Config, start time.Time) *Client {
	c := &Client{
		cfg:        cfg,
		clk:        NewLocalClock(start, cfg.InitOffset, cfg.FreqPPM),
		byServer:   make(map[netaddr.Addr]*assoc, len(cfg.Servers)),
		lastUpdate: noUpdate,
	}
	for _, s := range cfg.Servers {
		a := &assoc{server: s, poll: MinPoll}
		c.assocs = append(c.assocs, a)
		c.byServer[s] = a
	}
	return c
}

// Addr returns the client's fabric address.
func (c *Client) Addr() netaddr.Addr { return c.cfg.Addr }

// ClockErr returns the ground-truth clock error at the given true time.
func (c *Client) ClockErr(now time.Time) time.Duration { return c.clk.ErrAt(now.UnixNano()) }

// Stats returns a copy of the client's lifetime counters.
func (c *Client) Stats() Stats { return c.stats }

// Stopped reports whether every association was killed by DENY/RSTR.
func (c *Client) Stopped() bool {
	for _, a := range c.assocs {
		if !a.stopped {
			return false
		}
	}
	return len(c.assocs) > 0
}

// MarkInsecure downgrades the client to skip RFC 5905 origin-timestamp
// validation, modeling the CVE-2015-7704/7705 class of clients: spoofed
// mode 4 replies and forged kiss codes are honored blind. It is how the
// attack plane arms its victims; a new client is hardened.
func (c *Client) MarkInsecure() { c.insecure = true }

// pollAssoc sends one mode 3 poll and reschedules itself at the current
// poll interval until the end of the run.
func (c *Client) pollAssoc(nw *netsim.Network, a *assoc, now time.Time) {
	if a.stopped || !now.Before(c.end) {
		return
	}
	local := c.clk.ReadAt(now.UnixNano())
	a.xmt = ntp.UnixNanoToNTP(local)
	a.sentLocal = local
	a.inflight = true
	a.reach <<= 1
	req := ntp.NewPollRequest(a.poll, a.xmt)
	nw.SendUDP(c.cfg.Addr, Port, a.server, ntp.Port, netsim.TTLLinux, req.AppendTo(c.pollBuf[:0]))
	c.stats.Polls++
	if c.cfg.Metrics != nil {
		c.cfg.Metrics.Polls.Inc()
	}
	next := now.Add(pollInterval(a.poll))
	if next.Before(c.end) {
		nw.Scheduler().At(next, a.fire)
	}
}

// HandlePacket implements netsim.Host: decode a candidate mode 4 reply,
// validate its origin, feed the clock filter, and run the discipline.
func (c *Client) HandlePacket(nw *netsim.Network, dg *packet.Datagram, now time.Time) {
	if dg.UDP.DstPort != Port {
		return
	}
	a := c.byServer[dg.IP.Src]
	if a == nil {
		c.stats.Stray++
		return
	}
	r, err := ntp.DecodeSyncReply(dg.Payload)
	if err != nil {
		c.stats.Malformed++
		if c.cfg.Metrics != nil {
			c.cfg.Metrics.Malformed.Inc()
		}
		return
	}
	c.stats.Replies++
	if r.Kiss != "" {
		c.handleKiss(a, &r, now)
		return
	}
	nowNs := now.UnixNano()
	localNow := c.clk.ReadAt(nowNs)
	var off, delay float64
	switch {
	case a.inflight && r.CheckOrigin(a.xmt):
		// The full four-timestamp exchange of RFC 5905 §8.
		t2 := ntp.NTPToUnixNano(r.ReceiveTime)
		t3 := ntp.NTPToUnixNano(r.TransmitTime)
		off = time.Duration((t2-a.sentLocal)+(t3-localNow)).Seconds() / 2
		delay = time.Duration((localNow - a.sentLocal) - (t3 - t2)).Seconds()
		if delay < 0 {
			delay = 0
		}
		a.inflight = false
		a.reach |= 1
	case c.insecure:
		// CVE-class client: no origin validation, SNTP-style stateless
		// update straight off the server's transmit stamp. This is the
		// surface off-path spoofed replies land on.
		off = time.Duration(ntp.NTPToUnixNano(r.TransmitTime) - localNow).Seconds()
		delay = 0
		c.stats.InsecureAccepts++
	default:
		c.stats.RejectedOrigin++
		if c.cfg.Metrics != nil {
			c.cfg.Metrics.RejectedOrigin.Inc()
		}
		return
	}
	if r.Stratum == ntp.StratumUnsynchronized {
		c.stats.UnsyncReplies++
		return
	}
	if r.LeapIndicator == 1 || r.LeapIndicator == 2 {
		c.leap = true
		c.stats.LeapSignals++
		if c.cfg.Monitor != nil {
			c.cfg.Monitor.ObserveEvent(c.cfg.Addr, EventLeap, 0, now)
		}
	}
	a.addSample(sample{offset: off, delay: delay, at: nowNs})
	c.stats.Samples++
	if c.cfg.Metrics != nil {
		c.cfg.Metrics.Samples.Inc()
		c.cfg.Metrics.AbsOffset.Observe(math.Abs(off))
	}
	if c.cfg.Monitor != nil {
		c.cfg.Monitor.ObserveSample(c.cfg.Addr, a.server, dur(off), dur(delay), now)
	}
	c.updateClock(now)
}

// handleKiss processes a stratum-0 kiss-o'-death reply. A hardened client
// honors KoD only when the origin cookie matches an in-flight poll —
// forged kiss codes (CVE-2015-7704/7705) only bite insecure clients.
func (c *Client) handleKiss(a *assoc, r *ntp.SyncReply, now time.Time) {
	c.stats.KissSeen++
	if c.cfg.Metrics != nil {
		c.cfg.Metrics.Kisses.Inc()
	}
	if c.cfg.Monitor != nil {
		c.cfg.Monitor.ObserveKiss(c.cfg.Addr, a.server, r.Kiss, now)
	}
	if !c.insecure && !(a.inflight && r.CheckOrigin(a.xmt)) {
		c.stats.KodRejected++
		return
	}
	switch r.Kiss {
	case ntp.KissRATE:
		c.stats.KodRate++
		a.inflight = false
		if a.poll < MaxPoll {
			a.poll++
		}
	case ntp.KissDENY, ntp.KissRSTR:
		c.stats.KodDeny++
		a.inflight = false
		a.stopped = true
	default:
		// Unknown kiss codes decode cleanly and are ignored (RFC 5905
		// §7.4: codes not listed are for information only).
		c.stats.KodOther++
	}
}

// updateClock runs falseticker voting over the filtered best sample of
// every live association, combines the truechimers, and disciplines the
// local clock.
func (c *Client) updateClock(now time.Time) {
	if c.panicked {
		return
	}
	// Rate-limit the system update to roughly one per poll interval: every
	// association's sample lands in its filter, but disciplining on each of
	// them would pump the frequency integrator N-servers times per time
	// constant and oscillate (ntpd's discipline runs at the loop time
	// constant for the same reason).
	nowNs := now.UnixNano()
	if c.lastUpdate != noUpdate && time.Duration(nowNs-c.lastUpdate) < pollInterval(c.sysPoll())*3/4 {
		return
	}
	c.lastUpdate = nowNs
	type cand struct {
		a *assoc
		s sample
	}
	// Candidates and vote counts live on the stack for up to stackAssocs
	// associations; only a larger client reaches the heap.
	var candBuf [stackAssocs]cand
	cands := candBuf[:0]
	for _, a := range c.assocs {
		if a.stopped || a.nsamples == 0 {
			continue
		}
		b := a.best(nowNs)
		// Associations whose freshest usable sample has aged out (server
		// dead, denied, or unreachable) stop voting.
		if time.Duration(nowNs-b.at) > 4*pollInterval(a.poll) {
			continue
		}
		cands = append(cands, cand{a, b})
	}
	if len(cands) == 0 {
		return
	}
	// Intersection-style voting: each candidate's correctness interval is
	// offset ± delay/2 (plus a small tolerance); an honest server's
	// interval always contains the true correction, so honest intervals
	// pairwise overlap. A candidate is a truechimer when its interval
	// overlaps a strict majority of all candidates (itself included).
	const tol = 0.005
	n := len(cands)
	var countBuf [stackAssocs]int
	counts := countBuf[:]
	if n > len(counts) {
		counts = make([]int, n)
	}
	for i := 0; i < n; i++ {
		li := cands[i].s.offset - cands[i].s.delay/2 - tol
		hi := cands[i].s.offset + cands[i].s.delay/2 + tol
		for j := 0; j < n; j++ {
			lj := cands[j].s.offset - cands[j].s.delay/2 - tol
			hj := cands[j].s.offset + cands[j].s.delay/2 + tol
			if li <= hj && lj <= hi {
				counts[i]++
			}
		}
	}
	var num, den float64
	quorum := false
	for i, cd := range cands {
		if counts[i]*2 <= n {
			continue // falseticker, or no majority exists at all
		}
		quorum = true
		w := 1 / (cd.s.delay + 1e-3)
		num += w * cd.s.offset
		den += w
	}
	if !quorum {
		// A 2-of-4 split (exactly half the servers lying coherently)
		// lands here: no majority clique, so the discipline holds the
		// clock rather than follow either faction.
		c.stats.NoMajority++
		if c.cfg.Metrics != nil {
			c.cfg.Metrics.NoMajority.Inc()
		}
		if c.cfg.Monitor != nil {
			c.cfg.Monitor.ObserveEvent(c.cfg.Addr, EventNoMajority, 0, now)
		}
		return
	}
	c.discipline(num/den, now)
}

// discipline applies a combined offset: panic above 1000 s (never applied
// once set), step at or above 128 ms, slew below — with poll-interval
// adaptation on the side.
func (c *Client) discipline(theta float64, now time.Time) {
	abs := math.Abs(theta)
	switch {
	case abs > PanicThreshold.Seconds() && c.clk.everSet:
		c.panicked = true
		c.stats.Panics++
		if c.cfg.Metrics != nil {
			c.cfg.Metrics.Panics.Inc()
		}
		if c.cfg.Monitor != nil {
			c.cfg.Monitor.ObserveEvent(c.cfg.Addr, EventPanic, dur(theta), now)
		}
		return
	case abs >= StepThreshold.Seconds() || !c.clk.everSet:
		c.clk.Step(now.UnixNano(), dur(theta))
		c.stats.Steps++
		if c.cfg.Metrics != nil {
			c.cfg.Metrics.Steps.Inc()
		}
		if c.cfg.Monitor != nil {
			c.cfg.Monitor.ObserveEvent(c.cfg.Addr, EventStep, dur(theta), now)
		}
		// A step invalidates every filtered sample (they were measured
		// against the pre-step clock) and restarts poll adaptation.
		for _, a := range c.assocs {
			a.clear()
			a.poll = MinPoll
		}
		c.streak = 0
	default:
		// PLL/FLL hybrid: take half the offset now, nudge the frequency
		// estimate with an FLL gain of 1/8 per time constant.
		tau := pollInterval(c.sysPoll()).Seconds()
		adj := theta / (8 * tau)
		if adj > maxFreqAdj {
			adj = maxFreqAdj
		} else if adj < -maxFreqAdj {
			adj = -maxFreqAdj
		}
		c.clk.Slew(now.UnixNano(), dur(theta/2), adj)
		c.stats.Slews++
		if c.cfg.Metrics != nil {
			c.cfg.Metrics.Slews.Inc()
		}
	}
	// Poll adaptation: widen after sustained small offsets, snap back to
	// minpoll when the offset grows.
	switch {
	case abs < StepThreshold.Seconds()/4:
		c.streak++
		if c.streak >= 4 {
			c.streak = 0
			for _, a := range c.assocs {
				if !a.stopped && a.poll < MaxPoll {
					a.poll++
				}
			}
		}
	case abs > StepThreshold.Seconds()/2:
		c.streak = 0
		for _, a := range c.assocs {
			if !a.stopped {
				a.poll = MinPoll
			}
		}
	}
}

// sysPoll is the shortest active poll exponent, used as the discipline's
// time constant.
func (c *Client) sysPoll() int8 {
	p := MaxPoll
	for _, a := range c.assocs {
		if !a.stopped && a.poll < p {
			p = a.poll
		}
	}
	return p
}

func pollInterval(poll int8) time.Duration {
	return time.Duration(1<<uint(poll)) * time.Second
}

func dur(secs float64) time.Duration {
	return time.Duration(secs * float64(time.Second))
}

// Servers returns the client's configured time sources.
func (c *Client) Servers() []netaddr.Addr { return c.cfg.Servers }
