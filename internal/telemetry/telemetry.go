// Package telemetry models the Arbor Networks-style global analytics feed
// of §2: netflow summaries from 300+ operators covering a third to a half
// of Internet traffic, plus labeled attack counts. It produces Figure 1
// (NTP/DNS fraction of global traffic) and Figure 2 (fraction of monthly
// DDoS attacks that are NTP-based, by size class).
//
// Global background traffic (the 71.5 Tbps baseline) is analytic — no flow
// collector simulates the whole Internet packet by packet, and neither did
// Arbor's: appliances export summaries. Simulated NTP/DNS bytes arrive both
// from the fabric tap (packet-level events) and from the scenario's
// aggregate attack-volume model.
package telemetry

import (
	"sort"
	"time"

	"ntpddos/internal/dns"
	"ntpddos/internal/metrics"
	"ntpddos/internal/ntp"
	"ntpddos/internal/packet"
	"ntpddos/internal/stats"
	"ntpddos/internal/vtime"
)

// Metrics is the global-telemetry ingest instrumentation: visibility-scaled
// bytes accrued per protocol (tap and aggregate paths separately) and
// labeled attack records. Pre-resolved children keep the tap path to one
// atomic add per packet.
type Metrics struct {
	TapNTPBytes *metrics.Counter
	TapDNSBytes *metrics.Counter
	AggNTPBytes *metrics.Counter
	AggDNSBytes *metrics.Counter
	Attacks     *metrics.Counter
}

// NewMetrics registers the telemetry family on r (nil r yields no-ops).
func NewMetrics(r *metrics.Registry) *Metrics {
	tap := r.NewCounterVec("ntpsim_telemetry_tap_bytes_total",
		"Visibility-scaled bytes accrued from the fabric tap, by protocol.",
		"proto")
	agg := r.NewCounterVec("ntpsim_telemetry_aggregate_bytes_total",
		"Bytes accrued from the analytic attack-volume model, by protocol.",
		"proto")
	return &Metrics{
		TapNTPBytes: tap.With("ntp"),
		TapDNSBytes: tap.With("dns"),
		AggNTPBytes: agg.With("ntp"),
		AggDNSBytes: agg.With("dns"),
		Attacks: r.NewCounter("ntpsim_telemetry_attacks_recorded_total",
			"Labeled attack records ingested."),
	}
}

// Protocol classes tracked by the collector.
type Protocol int

// Protocols.
const (
	ProtoNTP Protocol = iota
	ProtoDNS
	ProtoOther
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
	// TotalDailyBps is the average total Internet traffic represented in
	// the dataset: 71.5 Tbps in the paper.
	TotalDailyBps float64
	// Visibility is the fraction of global traffic/attacks the collector
	// actually observes (Arbor: between a third and a half).
	Visibility float64

	ntpDailyBytes *stats.TimeSeries
	dnsDailyBytes *stats.TimeSeries
	attacks       []Attack
	m             *Metrics
}

// SetMetrics attaches (or, with nil, detaches) live instrumentation.
func (c *Collector) SetMetrics(m *Metrics) { c.m = m }

// New builds a collector with the paper's 71.5 Tbps baseline.
func New() *Collector {
	return &Collector{
		TotalDailyBps: 71.5e12,
		Visibility:    0.4,
		ntpDailyBytes: stats.NewTimeSeries(vtime.Epoch, 24*time.Hour),
		dnsDailyBytes: stats.NewTimeSeries(vtime.Epoch, 24*time.Hour),
	}
}

// ObserveTrain implements netsim.Tap: each payload is accrued in order, as
// its own datagram with its own Rep, because the scaled byte counts are
// fractional and float sums depend on their order.
func (c *Collector) ObserveTrain(hdr *packet.Datagram, payloads [][]byte, reps []int64, now time.Time) {
	for i, p := range payloads {
		c.observe(hdr, len(p), reps[i], now)
	}
}

// observe classifies rep datagrams (hdr's ports, a UDP payload of
// payloadLen bytes) by port and accrues their on-wire bytes (scaled up by
// 1/Visibility, since the tap effectively sees the visible share of the
// simulated world).
func (c *Collector) observe(hdr *packet.Datagram, payloadLen int, rep int64, now time.Time) {
	bytes := float64(packet.OnWireBytesForUDPPayload(payloadLen)) * float64(rep)
	if c.Visibility > 0 && c.Visibility < 1 {
		bytes /= c.Visibility // the tap sees only the visible share of traffic
	}
	switch {
	case hdr.UDP.DstPort == ntp.Port || hdr.UDP.SrcPort == ntp.Port:
		c.ntpDailyBytes.Add(now, bytes)
		if c.m != nil {
			c.m.TapNTPBytes.Add(int64(bytes))
		}
	case hdr.UDP.DstPort == dns.Port || hdr.UDP.SrcPort == dns.Port:
		c.dnsDailyBytes.Add(now, bytes)
		if c.m != nil {
			c.m.TapDNSBytes.Add(int64(bytes))
		}
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

// totalDailyBytes converts the bps baseline to bytes/day.
func (c *Collector) totalDailyBytes() float64 {
	return c.TotalDailyBps / 8 * 86400
}

// fractionSeries renders a byte series as fractions of total traffic.
func (c *Collector) fractionSeries(ts *stats.TimeSeries) []FractionPoint {
	total := c.totalDailyBytes()
	pts := ts.Points()
	out := make([]FractionPoint, len(pts))
	for i, p := range pts {
		out[i] = FractionPoint{Day: p.Time, Fraction: p.Value / total}
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
	return FractionPoint{Day: p.Time, Fraction: p.Value / c.totalDailyBytes()}, true
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
