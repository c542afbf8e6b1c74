// Package darknet implements the network telescope of §5: full packet
// capture over the unused portion of a /8, the vantage point from which the
// paper pinpoints the onset of large-scale NTP scanning in mid-December 2013
// — roughly a week before attack traffic ramped (Figure 9), demonstrating
// darknets as early-warning systems.
//
// The telescope is a netsim tap: it sees every packet on the fabric and
// keeps those destined to the covered fraction of its dark prefix. Scanners
// genuinely hit it because the zmap-style sweep covers dark space too.
package darknet

import (
	"time"

	"ntpddos/internal/netaddr"
	"ntpddos/internal/ntp"
	"ntpddos/internal/packet"
	"ntpddos/internal/stats"
	"ntpddos/internal/vtime"
)

// coverage is the fraction of the prefix's /24s that are effectively dark
// and capturable — "roughly 75% of an IPv4 /8" for Merit's.
const coverage = 0.75

// Telescope observes a dark prefix. It implements netsim.Tap.
type Telescope struct {
	Prefix netaddr.Prefix

	benign map[netaddr.Addr]bool

	// NTPPackets counts Rep-weighted NTP-directed packets per month.
	NTPPackets *stats.TimeSeries
	// BenignNTPPackets counts the research-scanner share per month.
	BenignNTPPackets *stats.TimeSeries
	// scannersByDay tracks unique source IPs sending NTP probes per day —
	// the Figure 9 series.
	scannersByDay map[time.Time]netaddr.Set
}

// New builds a telescope over prefix.
func New(prefix netaddr.Prefix) *Telescope {
	return &Telescope{
		Prefix:           prefix,
		benign:           make(map[netaddr.Addr]bool),
		NTPPackets:       stats.NewTimeSeries(vtime.Epoch, 30*24*time.Hour),
		BenignNTPPackets: stats.NewTimeSeries(vtime.Epoch, 30*24*time.Hour),
		scannersByDay:    make(map[time.Time]netaddr.Set),
	}
}

// RegisterBenign marks a source address as a known research scanner —
// the paper identified these by hostname (e.g. university survey projects).
func (t *Telescope) RegisterBenign(a netaddr.Addr) { t.benign[a] = true }

// IsBenign reports whether a scanner is classified as research.
func (t *Telescope) IsBenign(a netaddr.Addr) bool { return t.benign[a] }

// Covers reports whether the telescope actually captures traffic to dst:
// inside the prefix and within the covered (announced-and-dark) 75% of
// /24s, selected deterministically by hashing the /24.
func (t *Telescope) Covers(dst netaddr.Addr) bool {
	if !t.Prefix.Contains(dst) {
		return false
	}
	h := uint64(dst>>8) * 0x9e3779b97f4a7c15 >> 40
	return float64(h%1000) < coverage*1000
}

// ObserveTrain implements netsim.Tap. A train's payloads share its
// destination, port and source, so the coverage test, the set insert and
// the map lookups happen once; the packet counts, whole numbers, take one
// sum of the Reps per train.
func (t *Telescope) ObserveTrain(hdr *packet.Datagram, payloads [][]byte, reps []int64, now time.Time) {
	if !t.Covers(hdr.IP.Dst) {
		return
	}
	if hdr.UDP.DstPort != ntp.Port {
		return // we analyze only the NTP slice of backscatter here
	}
	var sum int64
	for _, r := range reps {
		sum += r
	}
	packets := float64(sum)
	month := vtime.Month(now)
	t.NTPPackets.Add(month, packets)
	if t.benign[hdr.IP.Src] {
		t.BenignNTPPackets.Add(month, packets)
	}
	day := vtime.Day(now)
	s, ok := t.scannersByDay[day]
	if !ok {
		s = netaddr.NewSet(0)
		t.scannersByDay[day] = s
	}
	s.Add(hdr.IP.Src)
}

// EffectiveDark24s returns the number of /24-equivalents the telescope
// covers — the normalizer for Figure 8's "average packets seen per darknet
// /24 block".
func (t *Telescope) EffectiveDark24s() float64 {
	total := float64(t.Prefix.NumAddrs() / 256)
	return total * coverage
}

// MonthlyRow is one Figure 8 bar: packets per dark /24 in a month, split by
// classification.
type MonthlyRow struct {
	Month          time.Time
	PacketsPer24   float64
	BenignFraction float64
}

// MonthlyVolume renders the Figure 8 series.
func (t *Telescope) MonthlyVolume() []MonthlyRow {
	per24 := t.EffectiveDark24s()
	var out []MonthlyRow
	for _, p := range t.NTPPackets.Points() {
		benign := t.BenignNTPPackets.At(p.Time)
		frac := 0.0
		if p.Value > 0 {
			frac = benign / p.Value
		}
		out = append(out, MonthlyRow{
			Month:          p.Time,
			PacketsPer24:   p.Value / per24,
			BenignFraction: frac,
		})
	}
	return out
}

// ScannersOn returns the unique NTP scanner count for a day.
func (t *Telescope) ScannersOn(day time.Time) int {
	return t.scannersByDay[vtime.Day(day)].Len()
}

// ScannerSeries returns the Figure 9 unique-scanners-per-day series.
func (t *Telescope) ScannerSeries() []stats.Point {
	ts := stats.NewTimeSeries(vtime.Epoch, 24*time.Hour)
	for day, set := range t.scannersByDay {
		ts.Add(day, float64(set.Len()))
	}
	return ts.Points()
}
