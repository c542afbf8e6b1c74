package ntpddos

import (
	"strings"
	"testing"
	"time"

	"ntpddos/internal/scenario"
)

// earlyConfig is a quick world whose window ends before the first weekly
// monlist survey (scenario.ONPStart), so it has no survey at all.
func earlyConfig() Config {
	cfg := QuickConfig()
	cfg.Scale = 4000
	cfg.End = time.Date(2013, 9, 3, 0, 0, 0, 0, time.UTC)
	return cfg
}

// TestWindowBeforeFirstSurvey pins the survey-less window: every one of the
// 33 tables builds, each survey-backed one empty with a note naming the
// first survey date, and a one-job sweep of that window lands ok.
func TestWindowBeforeFirstSurvey(t *testing.T) {
	s := Run(earlyConfig())
	if n := len(s.Results().MonlistAnalyses); n != 0 {
		t.Fatalf("window ending %s has %d surveys, want none", day(earlyConfig().End), n)
	}
	tables := s.All()
	if len(tables) != 33 {
		t.Fatalf("All() built %d tables, want 33", len(tables))
	}
	// The tables built from the weekly surveys: each renders empty with one
	// note naming the first survey's date.
	surveyBacked := map[string]bool{"fig3": true, "fig4a": true, "fig4b": true, "fig4c": true,
		"table1a": true, "table1v": true, "table2": true, "table3": true, "fig5": true,
		"table4": true, "fig6": true, "fig7": true, "fig10": true, "churn": true,
		"volume": true, "remediation": true, "dnsoverlap": true, "mega": true}
	want := "no monlist survey in this window: the first is on " + day(scenario.ONPStart)
	for _, tab := range tables {
		notes := strings.Join(tab.Notes, " | ")
		if !surveyBacked[tab.ID] {
			if strings.Contains(notes, "no monlist survey") {
				t.Errorf("%s is not survey-backed but notes %q", tab.ID, notes)
			}
			continue
		}
		delete(surveyBacked, tab.ID)
		if len(tab.Rows) != 0 || notes != want {
			t.Errorf("%s: %d rows, notes %q; want no rows and the note %q", tab.ID, len(tab.Rows), notes, want)
		}
	}
	if len(surveyBacked) != 0 {
		t.Errorf("survey-backed tables missing from All(): %v", surveyBacked)
	}

	m, err := Sweep(SweepReplicates("early", earlyConfig(), 1), SweepOptions{Workers: 1})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if len(m.Jobs) != 1 || m.Jobs[0].Err != "" || m.Jobs[0].Digest == "" {
		t.Fatalf("sweep job %+v, want one ok job with a digest", m.Jobs)
	}
}
