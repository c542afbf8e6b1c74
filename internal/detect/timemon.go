// Time-integrity detection lane: a passive monitor over the sync
// discipline's telemetry (it implements timesync.Monitor structurally)
// that flags clients whose clocks are being manipulated. Four independent
// signals feed the verdict:
//
//   - offset-residual EWMA: per (client, server) smoothed |offset|; any
//     server persistently disagreeing with the client's clock beyond the
//     threshold marks the client (catches spoof, delay, drift, stratum —
//     under each, *some* observed server's offsets diverge);
//   - KoD storms: forged kiss-o'-death floods (genuine servers in the
//     simulation never kiss, so any sustained kiss traffic is hostile);
//   - quorum loss: repeated falseticker-voting failures (the 2-of-N
//     coherent-liar split leaves no majority clique);
//   - leap/panic events: bogus leap arming and panic-threshold hits.
//
// Like the victim detector's report, the monitor's summary is deliberately
// NOT part of the digested table set — it is scored against the attack
// plane's ground truth instead.
package detect

import (
	"time"

	"ntpddos/internal/netaddr"
)

// The integrity lane's tuning.
const (
	// residualThreshold is the smoothed |offset| beyond which a server's
	// disagreement counts as manipulation evidence. Benign steady-state
	// offsets stay under ~120 ms (half the worst-case path asymmetry), so
	// 300 ms clears them with margin.
	residualThreshold = 300 * time.Millisecond
	// ewmaAlpha is the smoothing weight for fresh samples.
	ewmaAlpha = 0.3
	// warmupSamples per (client, server) are ignored: the initial
	// convergence transient (seconds of InitOffset before the first step)
	// must not trip the alarm.
	warmupSamples = 4
	// minSamples is the post-warmup sample floor before the residual alarm
	// may fire.
	minSamples = 8
	// kissThreshold kisses seen at one client raise the KoD-storm alarm.
	kissThreshold = 3
	// quorumLossThreshold no-majority events raise the voting alarm.
	quorumLossThreshold = 3
	// leapThreshold leap-arm events raise the leap-injection alarm.
	leapThreshold = 2
)

// tmAssoc is the per-(client, server) residual state.
type tmAssoc struct {
	n    int
	ewma float64 // seconds
}

// tmClient is the per-client verdict state.
type tmClient struct {
	assocs     map[netaddr.Addr]*tmAssoc
	kisses     int
	quorumLoss int
	leaps      int
	flags      uint8
}

// Flag bits for the per-client alarm reasons.
const (
	flagResidual uint8 = 1 << iota
	flagKissStorm
	flagQuorumLoss
	flagLeap
	flagPanic
)

// TimeMonitor is the integrity lane. It draws no randomness and sends no
// packets; attaching it never perturbs the simulation.
type TimeMonitor struct {
	clients map[netaddr.Addr]*tmClient
}

// NewTimeMonitor builds the lane.
func NewTimeMonitor() *TimeMonitor {
	return &TimeMonitor{clients: make(map[netaddr.Addr]*tmClient)}
}

func (tm *TimeMonitor) client(addr netaddr.Addr) *tmClient {
	c := tm.clients[addr]
	if c == nil {
		c = &tmClient{assocs: make(map[netaddr.Addr]*tmAssoc)}
		tm.clients[addr] = c
	}
	return c
}

// ObserveSample implements timesync.Monitor: fold one (client, server)
// offset sample into the residual EWMA.
func (tm *TimeMonitor) ObserveSample(client, server netaddr.Addr, offset, delay time.Duration, now time.Time) {
	c := tm.client(client)
	a := c.assocs[server]
	if a == nil {
		a = &tmAssoc{}
		c.assocs[server] = a
	}
	a.n++
	if a.n <= warmupSamples {
		return
	}
	abs := offset.Seconds()
	if abs < 0 {
		abs = -abs
	}
	a.ewma = ewmaAlpha*abs + (1-ewmaAlpha)*a.ewma
	if a.n >= warmupSamples+minSamples && a.ewma > residualThreshold.Seconds() {
		c.flags |= flagResidual
	}
}

// ObserveKiss implements timesync.Monitor: count kiss-o'-death sightings.
func (tm *TimeMonitor) ObserveKiss(client, server netaddr.Addr, code string, now time.Time) {
	c := tm.client(client)
	c.kisses++
	if c.kisses >= kissThreshold {
		c.flags |= flagKissStorm
	}
}

// ObserveEvent implements timesync.Monitor: clock events.
func (tm *TimeMonitor) ObserveEvent(client netaddr.Addr, kind string, magnitude time.Duration, now time.Time) {
	c := tm.client(client)
	switch kind {
	case "no-majority":
		c.quorumLoss++
		if c.quorumLoss >= quorumLossThreshold {
			c.flags |= flagQuorumLoss
		}
	case "leap":
		c.leaps++
		if c.leaps >= leapThreshold {
			c.flags |= flagLeap
		}
	case "panic":
		c.flags |= flagPanic
	}
}

// TimeIntegritySummary is the lane's end-of-run verdict set.
type TimeIntegritySummary struct {
	ClientsMonitored int
	Flagged          netaddr.Set
	ResidualAlarms   int
	KissStorms       int
	QuorumLossAlarms int
	LeapAlarms       int
	PanicAlarms      int
}

// Summarize collects the flagged clients and per-signal alarm counts.
func (tm *TimeMonitor) Summarize() *TimeIntegritySummary {
	s := &TimeIntegritySummary{
		ClientsMonitored: len(tm.clients),
		Flagged:          netaddr.NewSet(0),
	}
	for addr, c := range tm.clients {
		if c.flags == 0 {
			continue
		}
		s.Flagged.Add(addr)
		if c.flags&flagResidual != 0 {
			s.ResidualAlarms++
		}
		if c.flags&flagKissStorm != 0 {
			s.KissStorms++
		}
		if c.flags&flagQuorumLoss != 0 {
			s.QuorumLossAlarms++
		}
		if c.flags&flagLeap != 0 {
			s.LeapAlarms++
		}
		if c.flags&flagPanic != 0 {
			s.PanicAlarms++
		}
	}
	return s
}

// Eval scores the flagged set against the attack plane's ground truth.
func (s *TimeIntegritySummary) Eval(truth netaddr.Set) Eval {
	return Evaluate(s.Flagged, truth)
}
