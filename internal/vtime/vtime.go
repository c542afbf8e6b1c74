// Package vtime provides virtual time: a discrete-event scheduler that owns
// the simulation's clock.
//
// The entire simulation runs on virtual time: no component of the library
// reads the wall clock. This makes every experiment deterministic and lets a
// six-month measurement campaign (November 2013 through May 2014, the window
// the paper studies) execute in seconds.
//
// A new Scheduler reads Epoch (2013-09-01 00:00 UTC), two months before the
// paper's first Arbor sample, so darknet baselines exist before the NTP
// phenomenon begins. It keeps the current instant and every event's instant
// as one int64 of nanoseconds since Epoch. time.Time appears only at its API
// boundary, converted once per crossing: where a caller hands an instant in
// (At, RunUntil) and where one is handed back (Now, and the now of each fired
// event's callback). After takes a duration from now and crosses nothing, so
// a caller that knows a delay, such as the fabric's path latency, schedules
// without time.Time arithmetic.
//
// Two queue implementations back the scheduler: the default calendar queue
// (a bucketed timer wheel with an overflow heap, O(1) amortized insert and
// pop — see calendar.go) and the reference binary heap behind
// NewHeapScheduler. Both realize the identical execution contract — events
// fire in (instant, schedule order) — and the schedtest package holds them
// to it on fuzz- and property-generated workloads.
package vtime

import (
	"fmt"
	"time"

	"ntpddos/internal/metrics"
)

// Epoch is the instant at which a new Scheduler starts: 2013-09-01 UTC.
// The paper's datasets begin 2013-11-01 (Arbor), 2013-09 (darknet), and
// 2014-01-10 (ONP); starting two months before the Arbor window gives every
// collector a quiescent baseline.
var Epoch = time.Date(2013, time.September, 1, 0, 0, 0, 0, time.UTC)

// event is a scheduled callback. Events are owned by the scheduler and
// recycled through a free list: after an event fires, its struct returns to
// the pool, so steady-state scheduling allocates nothing.
type event struct {
	atNs int64  // the event's instant, nanoseconds since Epoch
	seq  uint64 // tie-break so same-instant events run in schedule order
	fn   func(now time.Time)
}

// less orders events by (instant, schedule order) — the scheduler's total
// order, shared by every queue implementation.
func (e *event) less(o *event) bool {
	if e.atNs != o.atNs {
		return e.atNs < o.atNs
	}
	return e.seq < o.seq
}

// queue is the priority-queue contract both implementations satisfy. min
// may reorganize internal structure (the calendar queue drains buckets
// lazily) but never changes the pop order.
type queue interface {
	push(e *event)
	min() *event // earliest event, nil when empty
	pop() *event // removes and returns the earliest event
	len() int
}

// Scheduler is a discrete-event executor and the owner of virtual time.
// Events scheduled for the same instant run in the order they were
// scheduled. It is not safe for concurrent use; the simulation is
// single-threaded by design (determinism beats parallelism for a
// reproduction harness). The zero value is not usable; construct with
// NewScheduler (calendar queue) or NewHeapScheduler (reference binary heap).
type Scheduler struct {
	now int64 // the current instant, nanoseconds since Epoch
	q   queue
	seq uint64
	m   *Metrics

	// peak tracks the high-water mark of Pending() — the queue-depth
	// regression wall for self-re-arming timers and in-flight deliveries.
	peak int

	pool []*event // free list of event structs
}

// Metrics is the scheduler's optional live instrumentation: queue depth,
// events fired and the virtual clock's position. All writes are atomic
// stores from the simulation thread; attaching metrics never changes event
// order, timing or randomness.
type Metrics struct {
	EventsScheduled *metrics.Counter
	EventsFired     *metrics.Counter
	QueueDepth      *metrics.Gauge
	// ClockSeconds is the virtual clock position as seconds since Epoch —
	// the scrape-side progress bar for a running scenario.
	ClockSeconds *metrics.Gauge
}

// NewMetrics registers the scheduler family on r (nil r yields no-ops).
func NewMetrics(r *metrics.Registry) *Metrics {
	return &Metrics{
		EventsScheduled: r.NewCounter("ntpsim_sched_events_scheduled_total",
			"Events pushed onto the virtual-time queue."),
		EventsFired: r.NewCounter("ntpsim_sched_events_fired_total",
			"Events executed by RunUntil/Drain."),
		QueueDepth: r.NewGauge("ntpsim_sched_queue_depth",
			"Events currently pending in the virtual-time queue."),
		ClockSeconds: r.NewGauge("ntpsim_sched_virtual_clock_seconds",
			"Virtual clock position, seconds since the 2013-09-01 Epoch."),
	}
}

// SetMetrics attaches (or, with nil, detaches) live instrumentation.
func (s *Scheduler) SetMetrics(m *Metrics) {
	s.m = m
	if m != nil {
		m.QueueDepth.SetInt(int64(s.q.len()))
		m.ClockSeconds.Set(time.Duration(s.now).Seconds())
	}
}

// NewScheduler returns a Scheduler at Epoch, backed by the calendar queue.
func NewScheduler() *Scheduler {
	return &Scheduler{q: newCalendarQueue()}
}

// NewHeapScheduler returns a Scheduler at Epoch, backed by the reference
// binary-heap queue — the original implementation, kept as the
// differential-testing oracle. Behaviour is identical to NewScheduler; only
// the asymptotics differ.
func NewHeapScheduler() *Scheduler {
	return &Scheduler{q: &heapQueue{}}
}

// Now returns the current virtual instant.
func (s *Scheduler) Now() time.Time { return Epoch.Add(time.Duration(s.now)) }

// alloc takes an event struct from the free list (or allocates one).
func (s *Scheduler) alloc() *event {
	if n := len(s.pool); n > 0 {
		e := s.pool[n-1]
		s.pool = s.pool[:n-1]
		return e
	}
	return &event{}
}

// release clears an event's callback and returns it to the free list.
func (s *Scheduler) release(e *event) {
	*e = event{}
	s.pool = append(s.pool, e)
}

// At schedules fn to run at instant t. Scheduling in the past panics.
func (s *Scheduler) At(t time.Time, fn func(now time.Time)) {
	s.schedule(int64(t.Sub(Epoch)), fn)
}

// After schedules fn to run d after the current instant. A negative d
// panics, as At does for an instant in the past.
func (s *Scheduler) After(d time.Duration, fn func(now time.Time)) {
	s.schedule(s.now+int64(d), fn)
}

// schedule enqueues fn at atNs, nanoseconds since Epoch, behind every event
// already scheduled for that instant. An instant before now panics: a
// simulation that silently reorders causality produces wrong measurements.
func (s *Scheduler) schedule(atNs int64, fn func(now time.Time)) {
	if atNs < s.now {
		panic(fmt.Sprintf("vtime: scheduling at %v, before now %v",
			Epoch.Add(time.Duration(atNs)), s.Now()))
	}
	e := s.alloc()
	e.atNs = atNs
	e.fn = fn
	s.seq++
	e.seq = s.seq
	s.q.push(e)
	if n := s.q.len(); n > s.peak {
		s.peak = n
	}
	if s.m != nil {
		s.m.EventsScheduled.Inc()
		s.m.QueueDepth.SetInt(int64(s.q.len()))
	}
}

// Pending reports the number of events waiting to run.
func (s *Scheduler) Pending() int { return s.q.len() }

// PeakPending reports the high-water mark of Pending() over the scheduler's
// lifetime — the regression wall that keeps periodic schedules lazy.
func (s *Scheduler) PeakPending() int { return s.peak }

// runEvent moves the clock to e and executes it, recycling the struct.
func (s *Scheduler) runEvent(e *event) {
	s.now = e.atNs
	if s.m != nil {
		s.m.EventsFired.Inc()
		s.m.QueueDepth.SetInt(int64(s.q.len()))
		s.m.ClockSeconds.Set(time.Duration(s.now).Seconds())
	}
	fn := e.fn
	s.release(e)
	fn(s.Now())
}

// RunUntil executes all events scheduled strictly before end, moving the
// clock to each event's instant, then moves the clock to end. It returns
// the number of events executed.
func (s *Scheduler) RunUntil(end time.Time) int {
	endNs := int64(end.Sub(Epoch))
	ran := 0
	for {
		e := s.q.min()
		if e == nil || e.atNs >= endNs {
			break
		}
		s.q.pop()
		s.runEvent(e)
		ran++
	}
	if endNs > s.now {
		s.now = endNs
	}
	if s.m != nil {
		s.m.ClockSeconds.Set(time.Duration(s.now).Seconds())
	}
	return ran
}

// Drain executes every pending event regardless of time, moving the clock
// along the way. It returns the number of events executed. A callback that
// re-arms itself keeps Drain running until it stops doing so.
func (s *Scheduler) Drain() int {
	ran := 0
	for {
		e := s.q.min()
		if e == nil {
			break
		}
		s.q.pop()
		s.runEvent(e)
		ran++
	}
	return ran
}

// Day truncates t to midnight UTC — the bucketing unit for daily series such
// as the paper's Figure 1 traffic fractions.
func Day(t time.Time) time.Time {
	y, m, d := t.UTC().Date()
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
}

// Month truncates t to the first of its month UTC — the bucketing unit for
// monthly series such as Figures 2 and 8.
func Month(t time.Time) time.Time {
	y, m, _ := t.UTC().Date()
	return time.Date(y, m, 1, 0, 0, 0, 0, time.UTC)
}

// Hour truncates t to the top of its hour UTC — the bucketing unit for the
// attacks-per-hour series in Figure 7.
func Hour(t time.Time) time.Time {
	return t.UTC().Truncate(time.Hour)
}
