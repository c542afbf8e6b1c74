package telemetry

import (
	"math"
	"testing"
	"time"

	"ntpddos/internal/vtime"
)

func TestClassifyGbps(t *testing.T) {
	cases := []struct {
		gbps float64
		want SizeClass
	}{
		{0.1, Small}, {1.99, Small}, {2, Medium}, {19, Medium}, {20, Medium},
		{20.1, Large}, {400, Large},
	}
	for _, c := range cases {
		if got := ClassifyGbps(c.gbps); got != c.want {
			t.Fatalf("ClassifyGbps(%v) = %v, want %v", c.gbps, got, c.want)
		}
	}
}

func TestAggregateFractions(t *testing.T) {
	c := New()
	day := vtime.Epoch.Add(61 * 24 * time.Hour)
	// Push exactly 1% of a day's traffic as NTP.
	total := DailyBytes
	c.AddAggregate(day, ProtoNTP, total*0.01)
	c.AddAggregate(day, ProtoDNS, total*0.0015)
	ntp := c.NTPFractionSeries()
	if len(ntp) != 1 || math.Abs(ntp[0].Fraction-0.01) > 1e-12 {
		t.Fatalf("NTP fraction = %+v", ntp)
	}
	dns := c.DNSFractionSeries()
	if math.Abs(dns[0].Fraction-0.0015) > 1e-12 {
		t.Fatalf("DNS fraction = %+v", dns)
	}
	peak, ok := c.PeakNTPDay()
	if !ok || !peak.Day.Equal(vtime.Day(day)) {
		t.Fatalf("peak = %+v/%v", peak, ok)
	}
}

func TestAttackFractions(t *testing.T) {
	c := New()
	feb := time.Date(2014, 2, 5, 0, 0, 0, 0, time.UTC)
	nov := time.Date(2013, 11, 5, 0, 0, 0, 0, time.UTC)
	// November: 1000 small syn attacks, 1 ntp.
	for i := 0; i < 999; i++ {
		c.RecordAttack(Attack{Start: nov, PeakGbps: 0.5, Vector: "syn"})
	}
	c.RecordAttack(Attack{Start: nov, PeakGbps: 0.5, Vector: "ntp"})
	// February: large attacks dominated by NTP.
	for i := 0; i < 7; i++ {
		c.RecordAttack(Attack{Start: feb, PeakGbps: 100, Vector: "ntp"})
	}
	for i := 0; i < 3; i++ {
		c.RecordAttack(Attack{Start: feb, PeakGbps: 100, Vector: "dns"})
	}
	c.RecordAttack(Attack{Start: feb, PeakGbps: 5, Vector: "ntp"})
	c.RecordAttack(Attack{Start: feb, PeakGbps: 5, Vector: "syn"})

	rows := c.AttackFractions()
	if len(rows) != 2 {
		t.Fatalf("%d month rows", len(rows))
	}
	if !rows[0].Month.Before(rows[1].Month) {
		t.Fatal("rows not sorted by month")
	}
	novRow, febRow := rows[0], rows[1]
	if math.Abs(novRow.All-0.001) > 1e-9 {
		t.Fatalf("Nov all fraction = %v, want 0.001", novRow.All)
	}
	if febRow.Large != 0.7 {
		t.Fatalf("Feb large fraction = %v, want 0.7", febRow.Large)
	}
	if febRow.Medium != 0.5 {
		t.Fatalf("Feb medium fraction = %v, want 0.5", febRow.Medium)
	}
	if febRow.NLarge != 10 || febRow.NMedium != 2 {
		t.Fatalf("Feb counts = %+v", febRow)
	}
	if c.NumAttacks() != 1012 {
		t.Fatalf("NumAttacks = %d", c.NumAttacks())
	}
}

func TestEmptyCollector(t *testing.T) {
	c := New()
	if _, ok := c.PeakNTPDay(); ok {
		t.Fatal("empty collector has a peak day")
	}
	if len(c.AttackFractions()) != 0 {
		t.Fatal("empty collector has attack rows")
	}
}
