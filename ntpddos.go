// Package ntpddos reproduces "Taming the 800 Pound Gorilla: The Rise and
// Decline of NTP DDoS Attacks" (Czyz et al., IMC 2014) as a runnable system:
// a calibrated synthetic Internet with vulnerable NTP daemons, attackers,
// Internet-wide scanners, a darknet telescope, regional ISP vantage points
// and a global traffic feed — plus the paper's full analysis pipeline over
// the packets those components exchange.
//
// Quick start:
//
//	sim := ntpddos.Run(ntpddos.DefaultConfig())
//	fmt.Println(sim.Figure1().Render())   // NTP/DNS share of global traffic
//	fmt.Println(sim.Table4().Render())    // top attacked ports
//	for _, tab := range sim.All() {       // every table & figure
//		fmt.Println(tab.Render())
//	}
//
// Populations are scaled down by Config.Scale (default 100) and re-inflated
// in reported counts; per-host behaviour — monitor tables, packet formats,
// amplification factors — is exact at any scale. See DESIGN.md for the
// substitution map from the paper's proprietary datasets to the simulated
// substrate, and EXPERIMENTS.md for paper-versus-measured values.
package ntpddos

import (
	"slices"
	"time"

	"ntpddos/internal/core"
	"ntpddos/internal/netaddr"
	"ntpddos/internal/report"
	"ntpddos/internal/scenario"
)

// Config sizes and seeds a simulation. The zero value is not usable; start
// from DefaultConfig or QuickConfig.
type Config = scenario.Config

// DefaultConfig returns the full-window benchmark configuration
// (Scale 100; several minutes of CPU).
func DefaultConfig() Config { return scenario.DefaultConfig() }

// QuickConfig returns a small configuration that runs the whole window in
// a few seconds — the right choice for tests and exploration.
func QuickConfig() Config { return scenario.TestConfig() }

// Table re-exports the report table type every experiment returns.
type Table = report.Table

// Simulation is a completed run plus cached derived analyses.
type Simulation struct {
	res *scenario.Results

	monlistPopAmps    []core.PopulationRow
	monlistPopVictims []core.PopulationRow
	megaSet           netaddr.Set
	ampUnion          netaddr.Set
}

// Run executes the full September-2013-to-May-2014 timeline and returns the
// analysed simulation.
func Run(cfg Config) *Simulation {
	return NewSimulation(scenario.Run(cfg))
}

// NewSimulation wraps existing scenario results (used when a caller drives
// scenario.Run itself, e.g. to inspect the World mid-flight).
func NewSimulation(res *scenario.Results) *Simulation {
	s := &Simulation{res: res}
	s.monlistPopAmps, s.monlistPopVictims = core.PopulationTable(res.MonlistAnalyses, res.Registries)
	s.megaSet = netaddr.NewSet(0)
	s.ampUnion = netaddr.NewSet(0)
	for _, a := range res.MonlistAnalyses {
		for addr, rec := range a.Amps {
			s.ampUnion.Add(addr)
			if rec.Mega {
				s.megaSet.Add(addr)
			}
		}
	}
	return s
}

// Results exposes the underlying scenario results for custom analyses.
func (s *Simulation) Results() *scenario.Results { return s.res }

// Scale returns the population re-inflation factor of this run.
func (s *Simulation) Scale() int { return s.res.Cfg.Scale }

// Report is one entry of the report table: an experiment id, the builder
// of its table, the optional planes the report needs to carry data (none
// for All()'s classic tables), and whether it joins SweepRunner's digest
// when those planes are attached.
type Report struct {
	ID     string
	Build  func(*Simulation) *Table
	needs  plane
	digest bool
}

// plane is a set of the optional simulation planes a report can need.
type plane uint8

const (
	detectPlane   plane = 1 << iota // Config.Detector
	timeSyncPlane                   // Config.TimeSync
)

// reports is the report table: All()'s 33 classic tables in presentation
// order, then the plane reports. The classic tables must not depend on any
// plane, so the classic digest is the same with a plane on or off. The
// timesync report joins the sweep digest when its plane is on: it depends
// only on the timesync plane, never on the detector.
var reports = []Report{
	{"fig1", (*Simulation).Figure1, 0, true},
	{"fig2", (*Simulation).Figure2, 0, true},
	{"fig3", (*Simulation).Figure3, 0, true},
	{"fig4a", (*Simulation).Figure4a, 0, true},
	{"fig4b", (*Simulation).Figure4b, 0, true},
	{"fig4c", (*Simulation).Figure4c, 0, true},
	{"table1a", (*Simulation).Table1Amplifiers, 0, true},
	{"table1v", (*Simulation).Table1Victims, 0, true},
	{"table2", (*Simulation).Table2, 0, true},
	{"table3", (*Simulation).Table3, 0, true},
	{"fig5", (*Simulation).Figure5, 0, true},
	{"table4", (*Simulation).Table4, 0, true},
	{"fig6", (*Simulation).Figure6, 0, true},
	{"fig7", (*Simulation).Figure7, 0, true},
	{"fig8", (*Simulation).Figure8, 0, true},
	{"fig9", (*Simulation).Figure9, 0, true},
	{"fig10", (*Simulation).Figure10, 0, true},
	{"fig11", (*Simulation).Figure11, 0, true},
	{"fig12", (*Simulation).Figure12, 0, true},
	{"fig13", (*Simulation).Figure13, 0, true},
	{"fig14", (*Simulation).Figure14, 0, true},
	{"fig15", (*Simulation).Figure15, 0, true},
	{"fig16", (*Simulation).Figure16, 0, true},
	{"table5", (*Simulation).Table5, 0, true},
	{"table6", (*Simulation).Table6, 0, true},
	{"churn", (*Simulation).ChurnReport, 0, true},
	{"volume", (*Simulation).VolumeReport, 0, true},
	{"remediation", (*Simulation).RemediationReport, 0, true},
	{"dnsoverlap", (*Simulation).DNSOverlapReport, 0, true},
	{"ttl", (*Simulation).TTLReport, 0, true},
	{"mega", (*Simulation).MegaReport, 0, true},
	{"honeypot", (*Simulation).HoneypotReport, 0, true},
	{"hpconv", (*Simulation).HoneypotConvergence, 0, true},
	{"detect", (*Simulation).DetectReport, detectPlane, false},
	{"vectors", (*Simulation).DetectVectorReport, detectPlane, false},
	{"timesync", (*Simulation).TimeSyncReport, timeSyncPlane, true},
	{"timeintegrity", (*Simulation).TimeIntegrityReport, detectPlane | timeSyncPlane, false},
}

// Reports returns the report table: every experiment id with its builder,
// All()'s tables first, then the plane reports (detect, vectors, timesync,
// timeintegrity), which carry data only when their planes are attached.
func Reports() []Report { return slices.Clone(reports) }

// Attached reports whether s ran with every plane r needs, so r carries
// data. Classic reports are always attached.
func (r Report) Attached(s *Simulation) bool {
	return (r.needs&detectPlane == 0 || s.res.Detection != nil) &&
		(r.needs&timeSyncPlane == 0 || s.res.TimeSync != nil)
}

// All returns every table and figure of the paper's evaluation, in
// presentation order.
func (s *Simulation) All() []*Table {
	var out []*Table
	for _, r := range reports {
		if r.needs == 0 {
			out = append(out, r.Build(s))
		}
	}
	return out
}

// ByID returns the table of All() with the given id ("fig1", "table4",
// "churn", ...), or nil.
func (s *Simulation) ByID(id string) *Table {
	for _, r := range reports {
		if r.ID == id && r.needs == 0 {
			return r.Build(s)
		}
	}
	return nil
}

func day(t time.Time) string { return t.Format("2006-01-02") }

// noSurvey reports whether the window ended before the first weekly monlist
// survey (scenario.ONPStart), leaving the survey-backed tables nothing to
// show. If so it notes that on t, which the caller returns empty.
func (s *Simulation) noSurvey(t *Table) bool {
	if len(s.res.MonlistAnalyses) > 0 {
		return false
	}
	t.AddNote("no monlist survey in this window: the first is on %s", day(scenario.ONPStart))
	return true
}
