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

// All returns every table and figure of the paper's evaluation, in
// presentation order.
func (s *Simulation) All() []*Table {
	return []*Table{
		s.Figure1(), s.Figure2(), s.Figure3(), s.Figure4a(), s.Figure4b(),
		s.Figure4c(), s.Table1Amplifiers(), s.Table1Victims(), s.Table2(),
		s.Table3(), s.Figure5(), s.Table4(), s.Figure6(), s.Figure7(),
		s.Figure8(), s.Figure9(), s.Figure10(), s.Figure11(), s.Figure12(),
		s.Figure13(), s.Figure14(), s.Figure15(), s.Figure16(), s.Table5(),
		s.Table6(), s.ChurnReport(), s.VolumeReport(), s.RemediationReport(),
		s.DNSOverlapReport(), s.TTLReport(), s.MegaReport(),
		s.HoneypotReport(), s.HoneypotConvergence(),
	}
}

// ByID returns the experiment table with the given id ("fig1", "table4",
// "churn", ...), or nil.
func (s *Simulation) ByID(id string) *Table {
	for _, t := range s.All() {
		if t.ID == id {
			return t
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
