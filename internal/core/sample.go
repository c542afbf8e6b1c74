package core

import (
	"sort"
	"time"

	"ntpddos/internal/netaddr"
	"ntpddos/internal/packet"
	"ntpddos/internal/scan"
)

// AmpRecord is one amplifier's behaviour in one sample.
type AmpRecord struct {
	Addr netaddr.Addr
	// Bytes is the aggregate on-wire response volume for the single probe
	// packet — the quantity behind Figure 4a.
	Bytes int64
	// Packets is the Rep-weighted response packet count.
	Packets int64
	// BAF is the on-wire bandwidth amplification factor: Bytes divided by
	// the 84-byte on-wire cost of the probe (§3.2).
	BAF float64
	// Table is the rebuilt monitor table (nil for version samples).
	Table *TableView
	// Mega flags §3.4 behaviour: repeated table copies or >100KB returned.
	Mega bool
}

// SampleAnalysis is the per-sample output of the pipeline.
type SampleAnalysis struct {
	Date time.Time
	Kind string
	// Amps holds every responding amplifier.
	Amps map[netaddr.Addr]*AmpRecord
	// Victims holds every (amplifier, victim) observation.
	Victims []VictimObservation
	// ScannerEntries and NonVictimEntries census the other classes.
	ScannerEntries   int
	NonVictimEntries int
	// WindowMedian is the median largest-last-seen across tables — the
	// §4.2 observation window.
	WindowMedian time.Duration
}

// AmplifierSet returns the sample's responding amplifier addresses.
func (a *SampleAnalysis) AmplifierSet() netaddr.Set {
	s := netaddr.NewSet(len(a.Amps))
	for addr := range a.Amps {
		s.Add(addr)
	}
	return s
}

// VictimSet returns the distinct victim addresses of the sample.
func (a *SampleAnalysis) VictimSet() netaddr.Set {
	s := netaddr.NewSet(0)
	for _, v := range a.Victims {
		s.Add(v.Victim)
	}
	return s
}

// AnalyzeSample runs the full §3/§4 per-sample pipeline over one monlist
// scan sample: rebuild each amplifier's table, compute its on-wire BAF,
// flag mega amplifiers, and extract victim observations.
func AnalyzeSample(sample *scan.Sample, probeAddr netaddr.Addr) *SampleAnalysis {
	out := &SampleAnalysis{
		Date: sample.Date,
		Kind: sample.Kind,
		Amps: make(map[netaddr.Addr]*AmpRecord, len(sample.Responses)),
	}
	probeWire := float64(packet.MinOnWire)
	var windows []time.Duration
	for addr, resp := range sample.Responses {
		rec := &AmpRecord{
			Addr:    addr,
			Bytes:   resp.Bytes,
			Packets: resp.Packets,
			BAF:     float64(resp.Bytes) / probeWire,
		}
		if sample.Kind == "monlist" {
			view, err := RebuildTable(resp.Payloads)
			if err == nil && (len(view.Entries) > 0 || view.Copies > 0) {
				rec.Table = view
				vs, sc, nv := ExtractVictims(view, addr, probeAddr, sample.Date)
				out.Victims = append(out.Victims, vs...)
				out.ScannerEntries += sc
				out.NonVictimEntries += nv
				windows = append(windows, LargestLastSeen(view))
				rec.Mega = view.Copies > 1
			}
		}
		if IsMegaVolume(rec.Bytes) {
			rec.Mega = true
		}
		out.Amps[addr] = rec
	}
	if len(windows) > 0 {
		out.WindowMedian = medianDuration(windows)
	}
	return out
}

func medianDuration(ds []time.Duration) time.Duration {
	sorted := make([]time.Duration, len(ds))
	copy(sorted, ds)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2]
}
