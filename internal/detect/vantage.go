package detect

import (
	"time"

	"ntpddos/internal/rng"
	"ntpddos/internal/vtime"
)

// Vantage models the degraded telemetry path between the fabric and this
// detector: NetFlow-style 1-in-N packet sampling and deterministic collector
// outage windows, aligned to the simulation epoch. The zero value is a
// perfect vantage and is provably inert — every gate below is behind a rate
// check, so an undegraded detector runs the exact instruction sequence it ran
// before Vantage existed.
type Vantage struct {
	// SampleN applies 1-in-N systematic packet sampling to the tap stream.
	// Kept batches are re-inflated ×N (the standard NetFlow scaling), so
	// totals stay calibrated while small flows can vanish entirely — exactly
	// the failure mode that erodes the §4.2 core.VictimMinCount threshold.
	// 0 or 1 means unsampled.
	SampleN int
	// OutageFraction is the fraction of each outagePeriod the collector is
	// dark. Everything observed while dark is dropped; the offset sweep
	// subtracts dark time from victim idleness so an outage mid-campaign
	// cannot flap an episode.
	OutageFraction float64
}

// outagePeriod is the collector-outage scheduling window.
const outagePeriod = 6 * time.Hour

// Degraded reports whether this vantage loses any telemetry.
func (v Vantage) Degraded() bool { return v.SampleN > 1 || v.OutageFraction > 0 }

// darkSpan returns window w's outage placement: the offset of the dark
// stretch inside the window and its length. The offset is hash-jittered per
// window so outages don't beat against periodic traffic; the schedule is a
// pure hash of (seed, window index), never an RNG draw, so replaying a
// stream reproduces it exactly.
func (d *Detector) darkSpan(w int64) (off, length time.Duration) {
	frac := d.cfg.Vantage.OutageFraction
	if frac >= 1 {
		return 0, outagePeriod
	}
	length = time.Duration(frac * float64(outagePeriod))
	off = time.Duration(rng.Unit(rng.Mix64(uint64(w)*0x9e3779b97f4a7c15^vantSalt)) * float64(outagePeriod-length))
	return off, length
}

// windowOf floor-divides t's offset from the epoch into (outage window
// index, remainder).
func windowOf(t time.Time) (int64, time.Duration) {
	rel := t.Sub(vtime.Epoch)
	w := int64(rel / outagePeriod)
	rem := rel % outagePeriod
	if rem < 0 {
		w--
		rem += outagePeriod
	}
	return w, rem
}

// darkAt reports whether the collector is inside an outage window at t.
func (d *Detector) darkAt(t time.Time) bool {
	if d.cfg.Vantage.OutageFraction <= 0 {
		return false
	}
	w, rem := windowOf(t)
	off, length := d.darkSpan(w)
	return rem >= off && rem < off+length
}

// darkOverlap returns how much of [from, to] the collector spent dark. The
// offset sweep subtracts this from victim idleness ("the vantage was blind,
// not the victim quiet"), and alarm confidence scales by its complement.
func (d *Detector) darkOverlap(from, to time.Time) time.Duration {
	v := d.cfg.Vantage
	if v.OutageFraction <= 0 || !to.After(from) {
		return 0
	}
	w0, _ := windowOf(from)
	w1, _ := windowOf(to)
	if w1-w0 > 1<<16 {
		// Absurdly wide ranges (a backdated first-seen) fall back to the
		// long-run expectation; still deterministic.
		return time.Duration(v.OutageFraction * float64(to.Sub(from)))
	}
	a, b := from.Sub(vtime.Epoch), to.Sub(vtime.Epoch)
	var total time.Duration
	for w := w0; w <= w1; w++ {
		off, length := d.darkSpan(w)
		ds := time.Duration(w)*outagePeriod + off
		de := ds + length
		lo, hi := ds, de
		if a > lo {
			lo = a
		}
		if b < hi {
			hi = b
		}
		if hi > lo {
			total += hi - lo
		}
	}
	return total
}

// sampleRep applies 1-in-N systematic sampling to a Rep-weighted batch via a
// phase accumulator (no randomness: the k-th, 2k-th, ... packets of the
// stream are the kept ones) and re-inflates survivors ×N. Returns 0 when the
// batch fell entirely between sample points.
func (d *Detector) sampleRep(rep int64) int64 {
	n := int64(d.cfg.Vantage.SampleN)
	if n <= 1 {
		return rep
	}
	d.samplePhase += rep
	kept := d.samplePhase / n
	d.samplePhase %= n
	return kept * n
}

// confidence scores an alarm's telemetry quality in [0, 1]: 1 under a
// perfect vantage, divided by the sampling rate and scaled by the live
// (non-outage) fraction of the victim's observation window.
func (d *Detector) confidence(st *victimState, now time.Time) float64 {
	v := d.cfg.Vantage
	c := 1.0
	if v.SampleN > 1 {
		c /= float64(v.SampleN)
	}
	if v.OutageFraction > 0 {
		if window := now.Sub(st.first); window > 0 {
			live := 1 - float64(d.darkOverlap(st.first, now))/float64(window)
			if live < 0 {
				live = 0
			}
			c *= live
		}
	}
	return c
}
