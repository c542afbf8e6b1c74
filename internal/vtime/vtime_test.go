package vtime

import (
	"testing"
	"time"
)

// mustPanic fails t unless fn panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

func TestClockStartsAtEpoch(t *testing.T) {
	for name, s := range map[string]*Scheduler{"calendar": NewScheduler(), "heap": NewHeapScheduler()} {
		if now := s.Now(); now != Epoch {
			t.Fatalf("%s: new scheduler reads %v, want %v", name, now, Epoch)
		}
	}
}

// TestClockAdvance: RunUntil moves the clock to its end even when no event
// fires on the way.
func TestClockAdvance(t *testing.T) {
	s := NewScheduler()
	want := Epoch.Add(90 * time.Minute)
	s.RunUntil(want)
	if s.Now() != want {
		t.Fatalf("after RunUntil clock reads %v, want %v", s.Now(), want)
	}
	// An end before now leaves the clock where it is.
	s.RunUntil(Epoch)
	if s.Now() != want {
		t.Fatalf("RunUntil(past) moved the clock to %v, want %v", s.Now(), want)
	}
}

func TestClockAdvanceNegativePanics(t *testing.T) {
	s := NewScheduler()
	mustPanic(t, "After(-1s)", func() { s.After(-time.Second, func(time.Time) {}) })
}

// TestClockAdvanceTo: the clock stands at each event's instant while it
// fires, and at RunUntil's end afterwards.
func TestClockAdvanceTo(t *testing.T) {
	s := NewScheduler()
	target := Epoch.Add(48 * time.Hour)
	var seen time.Time
	s.At(target, func(time.Time) { seen = s.Now() })
	end := target.Add(time.Hour)
	s.RunUntil(end)
	if seen != target {
		t.Fatalf("clock inside the event read %v, want %v", seen, target)
	}
	if s.Now() != end {
		t.Fatalf("after RunUntil clock reads %v, want %v", s.Now(), end)
	}
}

// TestClockAdvanceToPastPanics: once the clock has moved, an instant one
// nanosecond before it panics, whether handed to At or as a delay to After.
func TestClockAdvanceToPastPanics(t *testing.T) {
	for name, mk := range map[string]func() *Scheduler{"calendar": NewScheduler, "heap": NewHeapScheduler} {
		s := mk()
		s.RunUntil(Epoch.Add(time.Hour))
		mustPanic(t, name+" At(now-1ns)", func() { s.At(s.Now().Add(-1), func(time.Time) {}) })
		mustPanic(t, name+" After(-1ns)", func() { s.After(-1, func(time.Time) {}) })
	}
}

// TestBoundaryConversion: the instant a caller hands in comes back out
// unchanged. A callback's now and Now() inside it are == (Location
// included) to the time.Time given to At, or reached by After from Epoch,
// for instants inside the calendar wheel's window, far past it (the
// overflow heap) and equal to a RunUntil end; After(d) fires at
// Now().Add(d), also when called inside a firing callback.
func TestBoundaryConversion(t *testing.T) {
	for name, mk := range map[string]func() *Scheduler{"calendar": NewScheduler, "heap": NewHeapScheduler} {
		s := mk()
		near := Epoch.Add(1500 * time.Millisecond)                           // inside the wheel window
		far := time.Date(2014, time.February, 11, 17, 45, 12, 999, time.UTC) // overflow heap
		end := Epoch.Add(36 * time.Hour)                                     // a RunUntil end
		// At and After callbacks share one record.
		var want []time.Time
		rec := &record{s: s}
		for _, at := range []time.Time{near, end, far} { // firing order
			want = append(want, at, at)
			s.At(at, rec.fire)
			s.After(at.Sub(Epoch), rec.fire)
		}
		var afterAt, base, nestedAt time.Time
		s.After(90*time.Second, func(now time.Time) {
			afterAt, base = now, s.Now()
			s.After(7*time.Millisecond, func(now time.Time) { nestedAt = now })
		})
		s.RunUntil(end)
		if s.Now() != end {
			t.Fatalf("%s: after RunUntil(end) clock reads %v, want %v", name, s.Now(), end)
		}
		s.RunUntil(end.Add(time.Nanosecond))
		s.Drain()
		if afterAt != Epoch.Add(90*time.Second) || nestedAt != base.Add(7*time.Millisecond) {
			t.Fatalf("%s: After(90s) fired at %v and After(7ms) inside it at %v, want %v and %v",
				name, afterAt, nestedAt, Epoch.Add(90*time.Second), base.Add(7*time.Millisecond))
		}
		if len(rec.got) != len(want) {
			t.Fatalf("%s: %d callbacks, want %d", name, len(rec.got), len(want))
		}
		for i := range want {
			if rec.got[i] != want[i] || rec.inside[i] != want[i] {
				t.Fatalf("%s: callback %d got now %v (loc %v) and Now() %v, want %v",
					name, i, rec.got[i], rec.got[i].Location(), rec.inside[i], want[i])
			}
		}
		if s.Now() != far {
			t.Fatalf("%s: after Drain clock reads %v, want %v", name, s.Now(), far)
		}
	}
}

// record keeps each callback's now, and the scheduler's Now() inside it.
type record struct {
	s           *Scheduler
	got, inside []time.Time
}

func (r *record) fire(now time.Time) {
	r.got = append(r.got, now)
	r.inside = append(r.inside, r.s.Now())
}

func TestSchedulerRunsInTimeOrder(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.At(Epoch.Add(3*time.Hour), func(time.Time) { order = append(order, 3) })
	s.At(Epoch.Add(1*time.Hour), func(time.Time) { order = append(order, 1) })
	s.At(Epoch.Add(2*time.Hour), func(time.Time) { order = append(order, 2) })
	n := s.RunUntil(Epoch.Add(24 * time.Hour))
	if n != 3 {
		t.Fatalf("ran %d events, want 3", n)
	}
	for i, v := range []int{1, 2, 3} {
		if order[i] != v {
			t.Fatalf("order = %v, want [1 2 3]", order)
		}
	}
}

func TestSchedulerSameInstantFIFO(t *testing.T) {
	s := NewScheduler()
	at := Epoch.Add(time.Hour)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(at, func(time.Time) { order = append(order, i) })
	}
	s.Drain()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events ran out of order: %v", order)
		}
	}
}

func TestSchedulerRunUntilExcludesEnd(t *testing.T) {
	s := NewScheduler()
	end := Epoch.Add(time.Hour)
	ran := false
	s.At(end, func(time.Time) { ran = true })
	s.RunUntil(end)
	if ran {
		t.Fatal("event at end boundary ran; RunUntil must be exclusive")
	}
	if s.Now() != end {
		t.Fatalf("clock at %v, want %v", s.Now(), end)
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", s.Pending())
	}
}

func TestSchedulerEventsCanScheduleEvents(t *testing.T) {
	s := NewScheduler()
	count := 0
	var tick func(now time.Time)
	tick = func(now time.Time) {
		count++
		if count < 5 {
			s.After(time.Minute, tick)
		}
	}
	s.After(time.Minute, tick)
	s.RunUntil(Epoch.Add(time.Hour))
	if count != 5 {
		t.Fatalf("chained ticks = %d, want 5", count)
	}
}

func TestSchedulerAtPastPanics(t *testing.T) {
	s := NewScheduler()
	s.RunUntil(Epoch.Add(time.Hour))
	mustPanic(t, "At(past)", func() { s.At(Epoch, func(time.Time) {}) })
}

// TestSchedulerEvery: a periodic timer is a callback that re-arms itself
// with At as its first statement, so each tick is queued before anything
// the current tick schedules at the same instant.
func TestSchedulerEvery(t *testing.T) {
	s := NewScheduler()
	start := Epoch.Add(time.Hour)
	end := start.Add(5 * time.Hour)
	var order []string
	var tick func(now time.Time)
	tick = func(now time.Time) {
		next := now.Add(time.Hour)
		if next.Before(end) {
			s.At(next, tick)
		}
		order = append(order, "tick "+now.Sub(Epoch).String())
		s.At(next, func(time.Time) { order = append(order, "work") })
	}
	s.At(start, tick)
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want 1: a periodic timer holds one queue slot", s.Pending())
	}
	s.Drain()
	want := []string{"tick 1h0m0s", "tick 2h0m0s", "work", "tick 3h0m0s", "work",
		"tick 4h0m0s", "work", "tick 5h0m0s", "work", "work"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestDayMonthHourTruncation(t *testing.T) {
	ts := time.Date(2014, time.February, 11, 17, 45, 12, 999, time.UTC)
	if d := Day(ts); !d.Equal(time.Date(2014, 2, 11, 0, 0, 0, 0, time.UTC)) {
		t.Fatalf("Day = %v", d)
	}
	if m := Month(ts); !m.Equal(time.Date(2014, 2, 1, 0, 0, 0, 0, time.UTC)) {
		t.Fatalf("Month = %v", m)
	}
	if h := Hour(ts); !h.Equal(time.Date(2014, 2, 11, 17, 0, 0, 0, time.UTC)) {
		t.Fatalf("Hour = %v", h)
	}
}

func TestDrainAdvancesClock(t *testing.T) {
	s := NewScheduler()
	last := Epoch.Add(77 * time.Hour)
	s.At(last, func(time.Time) {})
	s.Drain()
	if s.Now() != last {
		t.Fatalf("after Drain clock reads %v, want %v", s.Now(), last)
	}
}
