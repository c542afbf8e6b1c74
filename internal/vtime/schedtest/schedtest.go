// Package schedtest is the differential harness that locks the calendar-queue
// scheduler to the reference binary heap. It interprets a byte program as a
// sequence of scheduler operations — one-shot events at an instant (At) or a
// delay from now (After, the fabric's way of scheduling a train), periodic
// timers, re-entrant scheduling from inside callbacks, interleaved
// RunUntil/Drain — and records every observable action in a trace. Running
// the same program against two scheduler constructors and comparing traces
// asserts the implementations agree on the full (atNs, seq) total order,
// including same-instant ties and events scheduled while firing.
//
// The byte-program encoding is deliberately fuzz-friendly: every byte string
// is a valid program, and small input mutations explore materially different
// schedules (zero deltas for ties, shifted deltas that cross bucket and
// wheel-window boundaries, nested callbacks).
package schedtest

import (
	"fmt"
	"time"

	"ntpddos/internal/vtime"
)

// Trace is the observable behaviour of one scheduler run: one line per fired
// event and run-loop checkpoint, in execution order.
type Trace []string

// Diff returns the first index at which two traces disagree, or -1 when they
// are identical.
func Diff(a, b Trace) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return n
	}
	return -1
}

// Replay interprets program against a fresh scheduler built by mk and
// returns the trace. The interpreter consumes program bytes both at the top
// level and from inside firing callbacks (re-entrant scheduling), so a trace
// divergence between two implementations surfaces at the first misordered
// event even though later consumption cascades.
func Replay(mk func() *vtime.Scheduler, program []byte) Trace {
	it := &interp{sched: mk(), prog: program}
	for it.pc < len(it.prog) {
		it.step()
	}
	it.sched.Drain()
	it.emit("end @%d pending=%d peak=%d",
		it.sched.Now().UnixNano(), it.sched.Pending(), it.sched.PeakPending())
	return it.trace
}

type interp struct {
	sched  *vtime.Scheduler
	prog   []byte
	pc     int
	nextID int
	trace  Trace
}

func (it *interp) emit(format string, args ...any) {
	it.trace = append(it.trace, fmt.Sprintf(format, args...))
}

// next consumes one program byte; an exhausted program reads as zero.
func (it *interp) next() byte {
	if it.pc >= len(it.prog) {
		return 0
	}
	b := it.prog[it.pc]
	it.pc++
	return b
}

// delta consumes two bytes and builds a non-negative duration spanning from
// zero (same-instant ties) through sub-bucket offsets up to minutes — wide
// enough to push events past the calendar wheel's window into its overflow
// heap and force a rebase.
func (it *interp) delta() time.Duration {
	b1, b2 := it.next(), it.next()
	return time.Duration(int64(b1) << (uint(b2) % 33))
}

func (it *interp) step() {
	switch it.next() % 8 {
	case 0, 1, 2: // bias toward plain events: they carry the ordering load
		it.scheduleFire(2, false)
	case 3:
		it.scheduleEvery()
	case 4:
		it.scheduleFire(2, true)
	case 5:
		end := it.sched.Now().Add(it.delta())
		ran := it.sched.RunUntil(end)
		it.emit("until @%d ran=%d pending=%d", it.sched.Now().UnixNano(), ran, it.sched.Pending())
	case 6:
		ran := it.sched.Drain()
		it.emit("drain @%d ran=%d", it.sched.Now().UnixNano(), ran)
	case 7: // a burst of same-instant events: the tie-breaking stress case
		at := it.sched.Now().Add(it.delta())
		n := int(it.next()%4) + 2
		for i := 0; i < n; i++ {
			id := it.nextID
			it.nextID++
			it.sched.At(at, func(now time.Time) {
				it.emit("fire %d @%d", id, now.UnixNano())
			})
		}
	}
}

// scheduleFire schedules a one-shot event a drawn delay from now: with After
// when relative, else with At at Now() plus the delay. Its callback may
// re-entrantly schedule further events the same way (down to the given
// depth), including at the very instant that is currently firing.
func (it *interp) scheduleFire(depth int, relative bool) {
	id := it.nextID
	it.nextID++
	d := it.delta()
	fire := func(now time.Time) {
		it.emit("fire %d @%d", id, now.UnixNano())
		if depth > 0 && it.next()%3 == 0 {
			it.scheduleFire(depth-1, relative)
		}
	}
	if relative {
		it.sched.After(d, fire)
	} else {
		it.sched.At(it.sched.Now().Add(d), fire)
	}
}

// scheduleEvery schedules a bounded periodic timer: a callback that re-arms
// itself with At, as its first statement, until the next tick would reach
// end.
func (it *interp) scheduleEvery() {
	id := it.nextID
	it.nextID++
	start := it.sched.Now().Add(it.delta())
	interval := time.Duration(1+int64(it.next())) * time.Millisecond
	ticks := int64(it.next() % 6)
	end := start.Add(time.Duration(ticks) * interval)
	if !start.Before(end) {
		return // an empty window schedules nothing
	}
	var tick func(now time.Time)
	tick = func(now time.Time) {
		if next := now.Add(interval); next.Before(end) {
			it.sched.At(next, tick)
		}
		it.emit("tick %d @%d", id, now.UnixNano())
	}
	it.sched.At(start, tick)
}
