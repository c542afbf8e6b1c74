package ntpddos

import (
	"fmt"
	"strings"
	"testing"
)

// quickSim caches one QuickConfig run for all facade tests.
var quickSim *Simulation

func sim(t *testing.T) *Simulation {
	t.Helper()
	if testing.Short() {
		t.Skip("simulation skipped in -short mode")
	}
	if quickSim == nil {
		quickSim = Run(QuickConfig())
	}
	return quickSim
}

func TestAllExperimentsRender(t *testing.T) {
	s := sim(t)
	tables := s.All()
	if len(tables) != 33 {
		t.Fatalf("All() returned %d tables, want 33", len(tables))
	}
	ids := map[string]bool{}
	for _, tab := range tables {
		if tab == nil {
			t.Fatal("nil table")
		}
		if tab.ID == "" || tab.Title == "" {
			t.Fatalf("table missing id/title: %+v", tab)
		}
		if ids[tab.ID] {
			t.Fatalf("duplicate experiment id %q", tab.ID)
		}
		ids[tab.ID] = true
		out := tab.Render()
		if !strings.Contains(out, tab.ID) {
			t.Fatalf("render missing id:\n%s", out)
		}
		if csv := tab.CSV(); len(csv) == 0 {
			t.Fatalf("empty CSV for %s", tab.ID)
		}
	}
}

func TestByID(t *testing.T) {
	s := sim(t)
	if tab := s.ByID("fig1"); tab == nil || tab.ID != "fig1" {
		t.Fatal("ByID(fig1) failed")
	}
	if s.ByID("nope") != nil {
		t.Fatal("unknown id resolved")
	}
	if s.ByID("detect") != nil || s.ByID("timesync") != nil {
		t.Fatal("plane report resolved; ByID covers All() alone")
	}
}

// TestReportTable pins the report table: its ids, in order, are the ones
// ntpsim -list has always printed, and each builder renders the table its
// entry names.
func TestReportTable(t *testing.T) {
	want := []string{
		"fig1", "fig2", "fig3", "fig4a", "fig4b", "fig4c", "table1a",
		"table1v", "table2", "table3", "fig5", "table4", "fig6", "fig7",
		"fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
		"fig15", "fig16", "table5", "table6", "churn", "volume",
		"remediation", "dnsoverlap", "ttl", "mega", "honeypot", "hpconv",
		"detect", "vectors", "timesync", "timeintegrity",
	}
	var got []string
	for _, r := range Reports() {
		got = append(got, r.ID)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("report ids:\n got %v\nwant %v", got, want)
	}
	s := sim(t)
	for _, r := range Reports() {
		if tab := r.Build(s); tab.ID != r.ID {
			t.Errorf("report %q builds table %q", r.ID, tab.ID)
		}
	}
}

func TestFigure1Shape(t *testing.T) {
	s := sim(t)
	tab := s.Figure1()
	if len(tab.Rows) < 20 {
		t.Fatalf("fig1 has %d rows", len(tab.Rows))
	}
	// Peak note must exist and name a February day.
	found := false
	for _, n := range tab.Notes {
		if strings.Contains(n, "peak NTP day 2014-02") {
			found = true
		}
	}
	if !found {
		t.Fatalf("fig1 notes = %v", tab.Notes)
	}
}

func TestTable1Shape(t *testing.T) {
	s := sim(t)
	amps := s.Table1Amplifiers()
	if len(amps.Rows) != 15 {
		t.Fatalf("table1a rows = %d, want 15", len(amps.Rows))
	}
	vics := s.Table1Victims()
	if len(vics.Rows) != 15 {
		t.Fatalf("table1v rows = %d, want 15", len(vics.Rows))
	}
}

func TestTable4PortMix(t *testing.T) {
	s := sim(t)
	tab := s.Table4()
	if len(tab.Rows) < 5 {
		t.Fatal("too few port rows")
	}
	// Port draws are campaign-correlated (one coordinated campaign yields
	// many same-port amplifier/victim pairs), so at test scale the exact
	// ranking is noisy; the paper shape is: 80 and 123 at the top, game
	// ports prominent.
	top3 := map[string]bool{}
	for i := 0; i < 3 && i < len(tab.Rows); i++ {
		top3[tab.Rows[i][1]] = true
	}
	if !top3["80"] || !top3["123"] {
		t.Fatalf("ports 80 and 123 not both in the top 3: %v", top3)
	}
	games := 0
	for i := 0; i < 10 && i < len(tab.Rows); i++ {
		if tab.Rows[i][3] == "(g)" {
			games++
		}
	}
	if games < 3 {
		t.Fatalf("only %d game ports in the top 10, paper: at least half", games)
	}
}

func TestFigure10MonlistFallsFastest(t *testing.T) {
	s := sim(t)
	tab := s.Figure10()
	last := tab.Rows[len(tab.Rows)-1]
	var mon, ver float64
	if _, err := sscan(last[1], &mon); err != nil {
		t.Fatal(err)
	}
	if last[2] != "" {
		if _, err := sscan(last[2], &ver); err != nil {
			t.Fatal(err)
		}
		if mon >= ver {
			t.Fatalf("monlist (%v%%) must fall below version (%v%%)", mon, ver)
		}
	}
}

func sscan(s string, out *float64) (int, error) {
	return fmt.Sscan(s, out)
}
