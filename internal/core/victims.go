package core

import (
	"math"
	"time"

	"ntpddos/internal/netaddr"
	"ntpddos/internal/ntp"
)

// EntryClass is the §4.2 classification of a monitor-table client.
type EntryClass int

// Classes.
const (
	// NonVictim: normal NTP modes (< 6). No amplification is gained by
	// reflecting them, so attackers don't use them.
	NonVictim EntryClass = iota
	// ScannerOrLowVolume: mode 6/7 but fewer than 3 packets or an average
	// inter-arrival above an hour.
	ScannerOrLowVolume
	// Victim: mode 6/7, at least 3 packets, more than one packet per hour.
	Victim
)

// The §4.2 victim thresholds: a mode 6/7 client is a victim once it has
// sent at least VictimMinCount packets at an average inter-arrival of at
// most VictimMaxInterarrival. The streaming detector applies the same two.
const (
	VictimMinCount        = 3
	VictimMaxInterarrival = 3600 * time.Second
)

// ClassifyEntry applies the paper's filter to one table entry. The probing
// (ONP) address is always a non-victim: it is our own scanner.
func ClassifyEntry(e ntp.MonEntry, probeAddr netaddr.Addr) EntryClass {
	if e.Addr == probeAddr {
		return NonVictim
	}
	if e.Mode < ntp.ModeControl { // modes 0..5
		return NonVictim
	}
	if e.Count < VictimMinCount || e.AvgInterval > uint32(VictimMaxInterarrival/time.Second) {
		return ScannerOrLowVolume
	}
	return Victim
}

// VictimObservation is one (amplifier, victim) pair extracted from a table,
// with the §4.2-derived attack timing.
type VictimObservation struct {
	Victim    netaddr.Addr
	Amplifier netaddr.Addr
	Port      uint16
	Mode      uint8
	Count     int64
	// SampleTime is when the table was captured.
	SampleTime time.Time
	// End is the attack end for this pair: SampleTime minus "last seen".
	End time.Time
	// Duration is estimated as packet count × average inter-arrival.
	Duration time.Duration
	// Start is End minus Duration.
	Start time.Time
}

// EntrySpan estimates how long a table entry's client has been sending:
// packet count × average inter-arrival. The product is taken in uint64
// seconds and saturates at the largest time.Duration, so counters read from
// a capture or a live daemon cannot wrap past about 292 years into a span
// that ends after it starts.
func EntrySpan(e ntp.MonEntry) time.Duration {
	secs := uint64(e.Count) * uint64(e.AvgInterval)
	if secs > math.MaxInt64/uint64(time.Second) {
		return math.MaxInt64
	}
	return time.Duration(secs) * time.Second
}

// ExtractVictims classifies every entry of a rebuilt table and returns the
// victim observations plus a census of the other classes.
func ExtractVictims(view *TableView, amplifier, probeAddr netaddr.Addr, sampleTime time.Time) (victims []VictimObservation, scanners, nonVictims int) {
	for _, e := range view.Entries {
		switch ClassifyEntry(e, probeAddr) {
		case NonVictim:
			nonVictims++
		case ScannerOrLowVolume:
			scanners++
		case Victim:
			end := sampleTime.Add(-time.Duration(e.LastSeen) * time.Second)
			dur := EntrySpan(e)
			victims = append(victims, VictimObservation{
				Victim:     e.Addr,
				Amplifier:  amplifier,
				Port:       e.Port,
				Mode:       e.Mode,
				Count:      int64(e.Count),
				SampleTime: sampleTime,
				End:        end,
				Duration:   dur,
				Start:      end.Add(-dur),
			})
		}
	}
	return victims, scanners, nonVictims
}

// LargestLastSeen returns the biggest "last seen" value in a table — the
// §4.2 view-window measure (median ≈44 hours across samples, which is why
// weekly samples under-count attacks by roughly 168/44 ≈ 3.8×).
func LargestLastSeen(view *TableView) time.Duration {
	var max uint32
	for _, e := range view.Entries {
		if e.LastSeen > max {
			max = e.LastSeen
		}
	}
	return time.Duration(max) * time.Second
}

// UnderSampleFactor converts a per-week observation window into the §4.3.3
// correction factor (168 hours per week / window hours).
func UnderSampleFactor(window time.Duration) float64 {
	if window <= 0 {
		return 1
	}
	f := float64(7*24*time.Hour) / float64(window)
	if f < 1 {
		return 1
	}
	return f
}
