package timesync

import (
	"time"

	"ntpddos/internal/netsim"
	"ntpddos/internal/rng"
)

// Fleet is the set of disciplined clients in a world, with the scheduling
// glue that starts their poll loops and the end-of-run summary.
type Fleet struct {
	clients []*Client
}

// NewFleet builds an empty fleet.
func NewFleet() *Fleet { return &Fleet{} }

// Add appends a client to the fleet.
func (f *Fleet) Add(c *Client) { f.clients = append(f.clients, c) }

// Clients returns the fleet's clients in insertion order.
func (f *Fleet) Clients() []*Client { return f.clients }

// SetMonitor attaches a telemetry monitor to every client.
func (f *Fleet) SetMonitor(m Monitor) {
	for _, c := range f.clients {
		c.cfg.Monitor = m
	}
}

// Register binds every client to its fabric address.
func (f *Fleet) Register(nw *netsim.Network) {
	for _, c := range f.clients {
		nw.Register(c.cfg.Addr, c)
	}
}

// Start schedules each association's first poll, phase-shifted by a
// deterministic hash of the (client, server) pair so the fleet does not
// poll in lockstep, and lets the poll loops self-reschedule until end.
func (f *Fleet) Start(nw *netsim.Network, start, end time.Time) {
	for _, c := range f.clients {
		c.end = end
		for _, a := range c.assocs {
			a := a
			c := c
			phase := time.Duration(rng.Mix64(uint64(c.cfg.Addr)<<32|uint64(a.server)) % uint64(pollInterval(MinPoll)))
			nw.Scheduler().At(start.Add(time.Second+phase), func(now time.Time) {
				c.pollAssoc(nw, a, now)
			})
		}
	}
}

// Summary aggregates the fleet's discipline state at the end of a run.
type Summary struct {
	Clients   int
	Synced    int // |clock error| below the step threshold
	Stopped   int // every association killed by DENY/RSTR
	Panicked  int
	LeapArmed int

	Polls, Replies, Samples                           int64
	Malformed, RejectedOrigin, InsecureAccepts        int64
	Steps, Slews, Panics, NoMajority                  int64
	KissSeen, KodRate, KodDeny, KodOther, KodRejected int64

	MaxAbsErr  time.Duration
	MeanAbsErr time.Duration
}

// Summarize measures every client's ground-truth clock error at now and
// folds the lifetime counters together.
func (f *Fleet) Summarize(now time.Time) *Summary {
	s := &Summary{Clients: len(f.clients)}
	var sumErr time.Duration
	for _, c := range f.clients {
		e := c.ClockErr(now)
		if e < 0 {
			e = -e
		}
		sumErr += e
		if e > s.MaxAbsErr {
			s.MaxAbsErr = e
		}
		if e < StepThreshold {
			s.Synced++
		}
		if c.Stopped() {
			s.Stopped++
		}
		if c.panicked {
			s.Panicked++
		}
		if c.leap {
			s.LeapArmed++
		}
		st := c.stats
		s.Polls += st.Polls
		s.Replies += st.Replies
		s.Samples += st.Samples
		s.Malformed += st.Malformed
		s.RejectedOrigin += st.RejectedOrigin
		s.InsecureAccepts += st.InsecureAccepts
		s.Steps += st.Steps
		s.Slews += st.Slews
		s.Panics += st.Panics
		s.NoMajority += st.NoMajority
		s.KissSeen += st.KissSeen
		s.KodRate += st.KodRate
		s.KodDeny += st.KodDeny
		s.KodOther += st.KodOther
		s.KodRejected += st.KodRejected
	}
	if len(f.clients) > 0 {
		s.MeanAbsErr = sumErr / time.Duration(len(f.clients))
	}
	return s
}
