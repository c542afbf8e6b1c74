// Package telemetry models the Arbor Networks-style global analytics feed
// of §2: netflow summaries from 300+ operators covering a third to a half
// of Internet traffic, plus labeled attack counts. It produces Figure 1
// (NTP/DNS fraction of global traffic) and Figure 2 (fraction of monthly
// DDoS attacks that are NTP-based, by size class).
//
// Global traffic is analytic — no flow collector simulates the whole
// Internet packet by packet, and neither did Arbor's: appliances export
// summaries. The 71.5 Tbps baseline is a constant, and the NTP and DNS
// bytes come from the scenario's aggregate attack-volume model; the
// collector reads nothing from the fabric.
package telemetry

import (
	"sort"
	"time"

	"ntpddos/internal/metrics"
	"ntpddos/internal/stats"
	"ntpddos/internal/vtime"
)

// Metrics is the global-telemetry ingest instrumentation: bytes accrued per
// protocol from the aggregate model and labeled attack records.
type Metrics struct {
	AggNTPBytes *metrics.Counter
	AggDNSBytes *metrics.Counter
	Attacks     *metrics.Counter
}

// NewMetrics registers the telemetry family on r (nil r yields no-ops).
func NewMetrics(r *metrics.Registry) *Metrics {
	agg := r.NewCounterVec("ntpsim_telemetry_aggregate_bytes_total",
		"Bytes accrued from the analytic attack-volume model, by protocol.",
		"proto")
	return &Metrics{
		AggNTPBytes: agg.With("ntp"),
		AggDNSBytes: agg.With("dns"),
		Attacks: r.NewCounter("ntpsim_telemetry_attacks_recorded_total",
			"Labeled attack records ingested."),
	}
}

// DailyBytes is the average total Internet traffic the dataset represents,
// 71.5 Tbps in the paper, in bytes per day: the denominator of Figure 1.
const DailyBytes = 71.5e12 / 8 * 86400

// Protocol classes tracked by the collector.
type Protocol int

// Protocols.
const (
	ProtoNTP Protocol = iota
	ProtoDNS
)

// SizeClass bins attacks the way Figure 2 does.
type SizeClass int

// Size classes: Small < 2 Gbps, Medium 2–20 Gbps, Large > 20 Gbps.
const (
	Small SizeClass = iota
	Medium
	Large
)

// String names the class.
func (c SizeClass) String() string {
	switch c {
	case Small:
		return "Small (<2 Gbps)"
	case Medium:
		return "Medium (2-20 Gbps)"
	case Large:
		return "Large (>20 Gbps)"
	}
	return "?"
}

// ClassifyGbps bins a peak attack bandwidth.
func ClassifyGbps(gbps float64) SizeClass {
	switch {
	case gbps < 2:
		return Small
	case gbps <= 20:
		return Medium
	default:
		return Large
	}
}

// Attack is one labeled attack record.
type Attack struct {
	Start    time.Time
	PeakGbps float64
	// Vector is the dominant protocol ("ntp", "dns", "syn", "icmp", ...).
	Vector string
}

// Collector aggregates traffic fractions and attack labels.
type Collector struct {
	ntpDailyBytes *stats.TimeSeries
	dnsDailyBytes *stats.TimeSeries
	attacks       []Attack
	m             *Metrics
}

// SetMetrics attaches (or, with nil, detaches) live instrumentation.
func (c *Collector) SetMetrics(m *Metrics) { c.m = m }

// New builds an empty collector.
func New() *Collector {
	return &Collector{
		ntpDailyBytes: stats.NewTimeSeries(vtime.Epoch, 24*time.Hour),
		dnsDailyBytes: stats.NewTimeSeries(vtime.Epoch, 24*time.Hour),
	}
}

// AddAggregate accrues analytically modeled traffic (bytes over one day)
// for a protocol class — the path by which the scenario's flow-level attack
// model reaches the global picture.
func (c *Collector) AddAggregate(day time.Time, p Protocol, bytes float64) {
	switch p {
	case ProtoNTP:
		c.ntpDailyBytes.Add(day, bytes)
		if c.m != nil {
			c.m.AggNTPBytes.Add(int64(bytes))
		}
	case ProtoDNS:
		c.dnsDailyBytes.Add(day, bytes)
		if c.m != nil {
			c.m.AggDNSBytes.Add(int64(bytes))
		}
	}
}

// RecordAttack stores a labeled attack, subject to visibility (the caller
// should pre-filter if modeling unobserved attacks; Arbor's labeling also
// misses some, especially small ones).
func (c *Collector) RecordAttack(a Attack) {
	c.attacks = append(c.attacks, a)
	if c.m != nil {
		c.m.Attacks.Inc()
	}
}

// FractionPoint is one day of Figure 1: the protocol's share of total
// traffic (dimensionless, e.g. 0.01 = 1%).
type FractionPoint struct {
	Day      time.Time
	Fraction float64
}

// fractionSeries renders a byte series as fractions of total traffic.
func (c *Collector) fractionSeries(ts *stats.TimeSeries) []FractionPoint {
	pts := ts.Points()
	out := make([]FractionPoint, len(pts))
	for i, p := range pts {
		out[i] = FractionPoint{Day: p.Time, Fraction: p.Value / DailyBytes}
	}
	return out
}

// NTPFractionSeries is Figure 1's NTP line.
func (c *Collector) NTPFractionSeries() []FractionPoint {
	return c.fractionSeries(c.ntpDailyBytes)
}

// DNSFractionSeries is Figure 1's DNS line.
func (c *Collector) DNSFractionSeries() []FractionPoint {
	return c.fractionSeries(c.dnsDailyBytes)
}

// PeakNTPDay returns the day with the highest NTP fraction (the paper:
// February 11th, ~1% of all traffic).
func (c *Collector) PeakNTPDay() (FractionPoint, bool) {
	p, ok := c.ntpDailyBytes.Max()
	if !ok {
		return FractionPoint{}, false
	}
	return FractionPoint{Day: p.Time, Fraction: p.Value / DailyBytes}, true
}

// MonthRow is one month of Figure 2.
type MonthRow struct {
	Month time.Time
	// NTPFraction per size class and overall: what fraction of the class's
	// attacks used the NTP vector.
	Small, Medium, Large, All float64
	// Counts per class (all vectors).
	NSmall, NMedium, NLarge int
}

// AttackFractions renders Figure 2's bars.
func (c *Collector) AttackFractions() []MonthRow {
	type agg struct {
		total [3]int
		ntp   [3]int
	}
	months := make(map[time.Time]*agg)
	for _, a := range c.attacks {
		m := vtime.Month(a.Start)
		g, ok := months[m]
		if !ok {
			g = &agg{}
			months[m] = g
		}
		cls := ClassifyGbps(a.PeakGbps)
		g.total[cls]++
		if a.Vector == "ntp" {
			g.ntp[cls]++
		}
	}
	keys := make([]time.Time, 0, len(months))
	for m := range months {
		keys = append(keys, m)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Before(keys[j]) })
	out := make([]MonthRow, 0, len(keys))
	for _, m := range keys {
		g := months[m]
		frac := func(cls SizeClass) float64 {
			if g.total[cls] == 0 {
				return 0
			}
			return float64(g.ntp[cls]) / float64(g.total[cls])
		}
		tot := g.total[0] + g.total[1] + g.total[2]
		ntp := g.ntp[0] + g.ntp[1] + g.ntp[2]
		all := 0.0
		if tot > 0 {
			all = float64(ntp) / float64(tot)
		}
		out = append(out, MonthRow{
			Month: m, Small: frac(Small), Medium: frac(Medium), Large: frac(Large),
			All: all, NSmall: g.total[0], NMedium: g.total[1], NLarge: g.total[2],
		})
	}
	return out
}

// NumAttacks returns the total labeled attack count.
func (c *Collector) NumAttacks() int { return len(c.attacks) }

// MonthlyVectorCounts returns labeled attack counts per month for one
// vector — the telemetry side of the honeypot cross-vantage join.
func (c *Collector) MonthlyVectorCounts(vector string) map[time.Time]int {
	out := make(map[time.Time]int)
	for _, a := range c.attacks {
		if a.Vector == vector {
			out[vtime.Month(a.Start)]++
		}
	}
	return out
}
