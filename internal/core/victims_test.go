package core

import (
	"math"
	"testing"
	"time"

	"ntpddos/internal/netaddr"
	"ntpddos/internal/ntp"
	"ntpddos/internal/vtime"
)

var probeAddr = netaddr.MustParseAddr("198.51.100.5")

func TestClassifyEntry(t *testing.T) {
	cases := []struct {
		name string
		e    ntp.MonEntry
		want EntryClass
	}{
		{"probe itself", ntp.MonEntry{Addr: probeAddr, Mode: 7, Count: 1000}, NonVictim},
		{"normal client mode 3", ntp.MonEntry{Addr: 1, Mode: 3, Count: 1 << 20}, NonVictim},
		{"normal client mode 4", ntp.MonEntry{Addr: 1, Mode: 4, Count: 1 << 20}, NonVictim},
		{"research scanner", ntp.MonEntry{Addr: 2, Mode: 7, Count: 2}, ScannerOrLowVolume},
		{"slow mode 6", ntp.MonEntry{Addr: 3, Mode: 6, Count: 19, AvgInterval: 154503}, ScannerOrLowVolume},
		{"victim mode 7", ntp.MonEntry{Addr: 4, Mode: 7, Count: 3_358_227_026 % (1 << 32), AvgInterval: 0}, Victim},
		{"victim mode 6", ntp.MonEntry{Addr: 5, Mode: 6, Count: 500, AvgInterval: 10}, Victim},
		{"boundary count 3", ntp.MonEntry{Addr: 6, Mode: 7, Count: 3, AvgInterval: 3600}, Victim},
		{"boundary count 2", ntp.MonEntry{Addr: 7, Mode: 7, Count: 2, AvgInterval: 0}, ScannerOrLowVolume},
		{"boundary interval 3601", ntp.MonEntry{Addr: 8, Mode: 7, Count: 100, AvgInterval: 3601}, ScannerOrLowVolume},
	}
	for _, c := range cases {
		if got := ClassifyEntry(c.e, probeAddr); got != c.want {
			t.Fatalf("%s: class = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestExtractVictimsTiming(t *testing.T) {
	sample := vtime.Epoch.Add(1000 * time.Hour)
	view := &TableView{Entries: []ntp.MonEntry{
		{Addr: 10, Mode: 7, Count: 600, AvgInterval: 6, LastSeen: 120, Port: 80},
		{Addr: 11, Mode: 3, Count: 50},
		{Addr: 12, Mode: 7, Count: 1},
	}}
	victims, scanners, nonVictims := ExtractVictims(view, 99, probeAddr, sample)
	if len(victims) != 1 || scanners != 1 || nonVictims != 1 {
		t.Fatalf("got %d/%d/%d", len(victims), scanners, nonVictims)
	}
	v := victims[0]
	if v.Victim != 10 || v.Amplifier != 99 || v.Port != 80 {
		t.Fatalf("victim = %+v", v)
	}
	wantEnd := sample.Add(-120 * time.Second)
	if !v.End.Equal(wantEnd) {
		t.Fatalf("end = %v, want %v", v.End, wantEnd)
	}
	wantDur := 600 * 6 * time.Second
	if v.Duration != wantDur {
		t.Fatalf("duration = %v, want %v", v.Duration, wantDur)
	}
	if !v.Start.Equal(wantEnd.Add(-wantDur)) {
		t.Fatalf("start = %v", v.Start)
	}
}

// TestEntrySpanSaturates: a table read from a capture or a live daemon can
// carry count × avgint past what int64 nanoseconds hold (about 292 years).
// Such an entry is still a §4.2 victim; its span saturates, so its start
// stays before the sample, while an ordinary span stays exact.
func TestEntrySpanSaturates(t *testing.T) {
	sample := vtime.Epoch.Add(1000 * time.Hour)
	huge := ntp.MonEntry{Addr: 20, Mode: 7, Count: 2_600_000, AvgInterval: 3600}
	if ClassifyEntry(huge, probeAddr) != Victim {
		t.Fatal("the 2,600,000 × 3600 s entry is not a victim")
	}
	if got := EntrySpan(huge); got != math.MaxInt64 {
		t.Fatalf("span = %v, want the largest Duration", got)
	}
	exact := ntp.MonEntry{Addr: 21, Mode: 7, Count: 1000, AvgInterval: 3600}
	if got := EntrySpan(exact); got != 1000*time.Hour {
		t.Fatalf("span = %v, want 1000h", got)
	}
	victims, _, _ := ExtractVictims(&TableView{Entries: []ntp.MonEntry{huge, exact}}, 99, probeAddr, sample)
	if len(victims) != 2 {
		t.Fatalf("got %d victims, want 2", len(victims))
	}
	if v := victims[0]; !v.Start.Before(sample) || v.Duration != math.MaxInt64 {
		t.Fatalf("saturated entry starts at %v (sample %v), duration %v", v.Start, sample, v.Duration)
	}
	if v := victims[1]; !v.Start.Equal(sample.Add(-1000 * time.Hour)) {
		t.Fatalf("1000 × 3600 s entry starts at %v, want %v", v.Start, sample.Add(-1000*time.Hour))
	}
}

func TestLargestLastSeenAndUnderSample(t *testing.T) {
	view := &TableView{Entries: []ntp.MonEntry{
		{LastSeen: 10}, {LastSeen: 44 * 3600}, {LastSeen: 100},
	}}
	if got := LargestLastSeen(view); got != 44*time.Hour {
		t.Fatalf("window = %v", got)
	}
	f := UnderSampleFactor(44 * time.Hour)
	if f < 3.7 || f > 3.9 {
		t.Fatalf("under-sample factor = %v, want ≈3.8 (the paper's value)", f)
	}
	if UnderSampleFactor(0) != 1 || UnderSampleFactor(200*time.Hour) != 1 {
		t.Fatal("degenerate windows must clamp to 1")
	}
}
