package detect

import (
	"testing"
	"time"

	"ntpddos/internal/netaddr"
	"ntpddos/internal/vtime"
)

// TestCollectorOutageHoldsEpisode injects a deterministic collector outage
// into a sustained campaign: the vantage-aware tracker must ride it out
// (one onset, one final offset) while a naive detector fed the identical
// gap-ridden stream flaps mid-campaign.
func TestCollectorOutageHoldsEpisode(t *testing.T) {
	cfg := DefaultConfig()
	t0 := vtime.Epoch
	cfg.Vantage = Vantage{OutageFraction: 0.75}
	d := New(cfg)
	naive := New(DefaultConfig())

	end := t0.Add(24 * time.Hour)
	for at := t0; at.Before(end); at = at.Add(10 * time.Minute) {
		dg := monlistResponse(amp, victim, 80, 100)
		observeOne(d, dg, at)
		// The naive twin sees exactly what survived the outage: the same
		// stream with the dark windows already carved out.
		if !d.darkAt(at) {
			observeOne(naive, dg, at)
		}
		d.sweep(at, false)
		naive.sweep(at, false)
	}
	count := func(det *Detector) (onsets, offsets int) {
		for _, a := range det.Alarms() {
			if a.Onset {
				onsets++
			} else {
				offsets++
			}
		}
		return
	}
	d.Flush(end)
	naive.Flush(end)
	on, off := count(d)
	if on != 1 || off != 1 {
		t.Fatalf("vantage-aware tracker flapped: %d onsets / %d offsets, want 1/1; alarms=%+v",
			on, off, d.Alarms())
	}
	if _, noff := count(naive); noff < 2 {
		t.Fatalf("naive twin rode out the outage (offsets=%d) — the hold test is vacuous", noff)
	}
	// Confidence reflects the dark share of the observation window.
	for _, a := range d.Alarms() {
		if !a.Onset && (a.Confidence <= 0 || a.Confidence > 0.5) {
			t.Fatalf("offset confidence %.3f under a 75%% outage, want (0, 0.5]", a.Confidence)
		}
	}
}

// TestSamplingVantage pins 1-in-N behavior: a heavy flood still alarms (with
// 1/N confidence and re-inflated counts), while a 3-packet micro-flood that
// would qualify under a perfect vantage falls between sample points.
func TestSamplingVantage(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Vantage = Vantage{SampleN: 16}
	d := New(cfg)
	t0 := vtime.Epoch
	small := netaddr.MustParseAddr("203.0.113.9")
	for i := 0; i < 3; i++ {
		at := t0.Add(time.Duration(i) * 30 * time.Second)
		observeOne(d, monlistResponse(amp, victim, 80, 1000), at)
		observeOne(d, monlistResponse(amp, small, 80, 1), at)
	}
	sum := d.Summarize(t0.Add(6 * time.Hour))
	if len(sum.Victims) != 1 || sum.Victims[0] != victim {
		t.Fatalf("victims = %v, want only the heavy flood", sum.Victims)
	}
	if sum.Packets < 2900 || sum.Packets > 3100 {
		t.Fatalf("re-inflated packets = %d, want ~3000", sum.Packets)
	}
	var onset *Alarm
	for i, a := range sum.Alarms {
		if a.Onset && a.Victim == victim {
			onset = &sum.Alarms[i]
		}
	}
	if onset == nil || onset.Confidence != 1.0/16 {
		t.Fatalf("onset = %+v, want confidence 1/16", onset)
	}
}

// TestPerfectVantageConfidenceIsOne pins that alarms under a zero-value
// Vantage carry confidence 1.
func TestPerfectVantageConfidenceIsOne(t *testing.T) {
	d := New(DefaultConfig())
	t0 := vtime.Epoch
	for i := 0; i < 5; i++ {
		observeOne(d, monlistResponse(amp, victim, 80, 100), t0.Add(time.Duration(i)*30*time.Second))
	}
	for _, a := range d.Summarize(t0.Add(6 * time.Hour)).Alarms {
		if a.Confidence != 1 {
			t.Fatalf("alarm confidence = %v under a perfect vantage, want 1", a.Confidence)
		}
	}
}

// TestSampledOffsetDeadlineWidens pins the gap-tolerance contract: under
// 1-in-N sampling the offset deadline stretches min(N, 4)×.
func TestSampledOffsetDeadlineWidens(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Vantage = Vantage{SampleN: 2}
	d := New(cfg)
	st := &victimState{}
	if got, want := d.offsetDeadline(st), 2*offsetGap; got != want {
		t.Fatalf("deadline = %v, want %v (2x widening)", got, want)
	}
	cfg.Vantage = Vantage{SampleN: 64}
	if got, want := New(cfg).offsetDeadline(st), 4*offsetGap; got != want {
		t.Fatalf("deadline = %v, want %v (capped 4x widening)", got, want)
	}
}
