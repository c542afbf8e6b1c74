package detect

import (
	"time"

	"ntpddos/internal/netaddr"
)

// VectorSummary is one protocol lane's share of the stream: the per-vector
// breakdown a mitigation team needs to pick which service to filter.
type VectorSummary struct {
	// Vector is the lane label ("ntp", "dns", "ssdp", "chargen").
	Vector string
	// Rep-weighted stream accounting, as in Summary but lane-scoped.
	Requests       int64
	Responses      int64
	ReflectedBytes int64
	Suppressed     int64
	// Victims counts alarmed victims whose dominant lane this is.
	Victims int
}

// Summary is the scenario-end snapshot of the streaming plane — everything
// the cross-vantage report consumes, with deterministic ordering throughout.
type Summary struct {
	// Rep-weighted stream accounting.
	Packets        int64
	Requests       int64
	Responses      int64
	ReflectedBytes int64
	Suppressed     int64

	// Vectors is the per-protocol breakdown, in lane presentation order
	// (ntp, dns, ssdp, chargen), lanes with no traffic included.
	Vectors []VectorSummary

	// Scanner vantage: exact suppression-set size versus the HLL estimate
	// (their agreement is itself a live check of the sketch).
	ScannersMarked  int
	ScannerEstimate float64

	// Alarms is the full alarm log, time-ordered.
	Alarms []Alarm
	// Victims is every alarmed (non-scanner) address, sorted.
	Victims []netaddr.Addr
	// TopVictims and TopAmplifiers are the SpaceSaving rankings by on-wire
	// bytes.
	TopVictims    []HeavyHitter
	TopAmplifiers []HeavyHitter
}

// Summarize closes the stream (flushing offset alarms for still-active
// victims) and snapshots the detector's answers as of virtual time now.
func (d *Detector) Summarize(now time.Time) *Summary {
	d.Flush(now)
	vectors := make([]VectorSummary, numLanes)
	for _, l := range Lanes() {
		vectors[l] = VectorSummary{
			Vector:         l.String(),
			Requests:       d.lanes[l].requests,
			Responses:      d.lanes[l].responses,
			ReflectedBytes: d.lanes[l].reflected,
			Suppressed:     d.lanes[l].suppressed,
		}
	}
	for addr, st := range d.victims {
		if st.alarmed && !d.scanners.Has(addr) {
			vectors[st.dominantLane()].Victims++
		}
	}
	return &Summary{
		Packets:         d.packets,
		Requests:        d.requests,
		Responses:       d.responses,
		ReflectedBytes:  d.reflected,
		Suppressed:      d.suppressed,
		Vectors:         vectors,
		ScannersMarked:  d.scanners.Len(),
		ScannerEstimate: d.scannerHLL.Estimate(),
		Alarms:          d.Alarms(),
		Victims:         d.VictimSet().Sorted(),
		TopVictims:      d.TopVictims(topK),
		TopAmplifiers:   d.TopAmplifiers(topK),
	}
}

// VictimSet rebuilds the detected-victim set from the summary.
func (s *Summary) VictimSet() netaddr.Set {
	set := netaddr.NewSet(len(s.Victims))
	for _, v := range s.Victims {
		set.Add(v)
	}
	return set
}

// Eval is a precision/recall comparison of a detected set against a
// reference set.
type Eval struct {
	// Truth and Detected are the reference and candidate set sizes;
	// TruePositives their intersection.
	Truth         int
	Detected      int
	TruePositives int
	// Precision = TP/Detected, Recall = TP/Truth (1 when the respective
	// denominator is empty: an empty claim over an empty truth is perfect).
	Precision float64
	Recall    float64
}

// Evaluate scores detected against truth.
func Evaluate(detected, truth netaddr.Set) Eval {
	e := Eval{Truth: truth.Len(), Detected: detected.Len()}
	e.TruePositives = detected.IntersectCount(truth)
	e.Precision, e.Recall = 1, 1
	if e.Detected > 0 {
		e.Precision = float64(e.TruePositives) / float64(e.Detected)
	}
	if e.Truth > 0 {
		e.Recall = float64(e.TruePositives) / float64(e.Truth)
	}
	return e
}
