package detect

import (
	"time"

	"ntpddos/internal/core"
	"ntpddos/internal/netaddr"
	"ntpddos/internal/ntp"
)

// The non-tap ingestion paths: a real deployment rarely sits on a full
// packet tap. Periodic monlist polls and darknet scanner sightings fold into
// the same per-victim state the tap maintains, so a collector can mix
// vantages freely.

// IngestMonEntry folds one polled monitor-table entry (the cmd/ntpwatch
// live mode: repeatedly monlist a daemon and classify what its table says).
// The entry's own counters carry the §4.2 evidence, so the paper's offline
// classifier applies directly; qualifying entries raise an onset alarm
// backdated to the entry's last-seen time.
func (d *Detector) IngestMonEntry(amp netaddr.Addr, e ntp.MonEntry, now time.Time) {
	if core.ClassifyEntry(e, 0) != core.Victim || d.scanners.Has(e.Addr) {
		return
	}
	st, ok := d.victims[e.Addr]
	if !ok {
		st = &victimState{
			first: now.Add(-core.EntrySpan(e)),
			port:  e.Port,
		}
		d.victims[e.Addr] = st
	}
	last := now.Add(-time.Duration(e.LastSeen) * time.Second)
	if last.After(st.last) {
		st.last = last
	}
	if int64(e.Count) > st.count {
		st.count = int64(e.Count)
	}
	st.port = e.Port
	if !st.active {
		st.active = true
		st.alarmed = true
		d.alarms = append(d.alarms, Alarm{
			Onset: true, Victim: e.Addr, Port: e.Port,
			Vector: st.dominantLane().String(), At: st.last, Count: st.count,
			Confidence: d.confidence(st, st.last),
		})
		if d.m != nil {
			d.m.Onsets.Inc()
			d.m.Active.Inc()
		}
	}
	_ = amp // reflected-byte attribution needs packet sizes the table lacks
}

// IngestScannerSighting folds one darknet-telescope sighting of a probing
// source: dark-space probes unmask scanners with certainty (no legitimate
// traffic enters a darknet), feeding the same suppression set and
// cardinality estimate the tap path maintains.
func (d *Detector) IngestScannerSighting(src netaddr.Addr) { d.markScanner(src) }
