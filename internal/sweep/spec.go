package sweep

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"ntpddos/internal/scenario"
)

// Spec is the declarative sweep description: seed ranges, a Scale ladder,
// a window truncation, and the grid knobs (detector ablation, BCP38 spoofer
// fractions, remediation-hazard multipliers, no-remediation counterfactual,
// and the fault-injection plane's loss/dup/reorder/flap/sample/outage/
// blackout dimensions).
// It is the JSON job-spec format the serving layer accepts over HTTP and
// the surface cmd/ntpsweep's flags compile to, so a job submitted to
// ntpserved expands into exactly the jobs the CLI would run.
type Spec struct {
	// Name prefixes every experiment cell in the manifest.
	Name string `json:"name,omitempty"`
	// Seeds lists replicate seeds: comma list and/or ranges ("1-16",
	// "1,5,9-12"). Required.
	Seeds string `json:"seeds"`
	// Scale is the base population divisor (0 = the base config's value).
	Scale int `json:"scale,omitempty"`
	// Scales is the Scale ladder; when set it overrides Scale.
	Scales []int `json:"scales,omitempty"`
	// End truncates the window at this date (YYYY-MM-DD; empty = full).
	End string `json:"end,omitempty"`
	// Detect is the streaming-detector knob: "", "off", "on", or "both".
	Detect string `json:"detect,omitempty"`
	// NoRemediation is the counterfactual knob: "", "off", "on", or "both".
	NoRemediation string `json:"noremediation,omitempty"`
	// Spoof lists BCP38 spoofer fractions (0 meaning nobody spoofs).
	Spoof []float64 `json:"spoof,omitempty"`
	// Hazard lists remediation-hazard multipliers.
	Hazard []float64 `json:"hazard,omitempty"`
	// Vectors arms extra reflector planes alongside monlist ("dns-any",
	// "ssdp", "chargen"). Base-config setting, not a grid dimension:
	// registering a population is free until a campaign share uses it.
	Vectors []string `json:"vectors,omitempty"`
	// Pulse lists pulse-wave campaign shares in [0,1].
	Pulse []float64 `json:"pulse,omitempty"`
	// Carpet lists carpet-bombing campaign shares in [0,1].
	Carpet []float64 `json:"carpet,omitempty"`
	// Multi lists multi-vector campaign shares in [0,1].
	Multi []float64 `json:"multi,omitempty"`
	// Loss lists fabric packet-loss rates in [0,1) — the fault-injection
	// plane's primary knob for detection-degradation curves.
	Loss []float64 `json:"loss,omitempty"`
	// Dup lists fabric duplication rates in [0,1).
	Dup []float64 `json:"dup,omitempty"`
	// Reorder lists fabric reordering rates in [0,1).
	Reorder []float64 `json:"reorder,omitempty"`
	// Flap lists link-flap dark fractions in [0,1).
	Flap []float64 `json:"flap,omitempty"`
	// Sample lists NetFlow 1-in-N sampling strides (each at least 1;
	// 1 means every export is seen).
	Sample []int `json:"sample,omitempty"`
	// Outage lists NetFlow collector dark fractions in [0,1).
	Outage []float64 `json:"outage,omitempty"`
	// Blackout lists honeypot sensor blackout fractions in [0,1).
	Blackout []float64 `json:"blackout,omitempty"`
	// TimeSync sizes the disciplined-client plane (0 keeps it off).
	// Base-config setting like Vectors, not a grid dimension.
	TimeSync int `json:"timesync,omitempty"`
	// TimeAttack lists time-integrity attack shares in [0,1]; requires
	// TimeSync.
	TimeAttack []float64 `json:"timeattack,omitempty"`
}

// NumJobs returns how many jobs the spec expands to: the admission
// controller's cheap pre-flight check. It checks the spec as Grid does
// but builds no job configs.
func (s Spec) NumJobs() (int, error) {
	g, err := s.Grid(scenario.Config{})
	if err != nil {
		return 0, err
	}
	n := len(g.Seeds) * max(len(g.Scales), 1)
	for _, k := range g.Knobs {
		n *= len(k.Values)
	}
	return n, nil
}

// Grid compiles the spec against a base configuration. The returned grid's
// Jobs() are deterministic in spec order, which is what makes a daemon-run
// sweep byte-identical to the same spec run in-process.
func (s Spec) Grid(base scenario.Config) (Grid, error) {
	g := Grid{Base: base, Name: s.Name}
	var err error
	if g.Seeds, err = ParseSeeds(s.Seeds); err != nil {
		return g, err
	}
	if s.Scale != 0 {
		if s.Scale < 0 {
			return g, fmt.Errorf("bad scale %d: must be positive", s.Scale)
		}
		g.Base.Scale = s.Scale
	}
	for i, sc := range s.Scales {
		if sc <= 0 {
			return g, fmt.Errorf("bad scales[%d] %d: must be positive", i, sc)
		}
	}
	g.Scales = s.Scales
	if s.End != "" {
		end, err := time.Parse("2006-01-02", s.End)
		if err != nil {
			return g, fmt.Errorf("bad end %q: want YYYY-MM-DD", s.End)
		}
		g.Base.End = end
	}
	for _, k := range knobs {
		vals, err := k.values(s)
		switch {
		case err != nil:
			return g, err
		case vals == nil:
		case k.base:
			vals[0].Apply(&g.Base)
		default:
			g.Knobs = append(g.Knobs, Knob{Name: k.name, Values: vals})
		}
	}
	if len(s.TimeAttack) > 0 && s.TimeSync == 0 {
		return g, fmt.Errorf("timeattack requires timesync clients")
	}
	// The grid always holds the job with every largest share, and the
	// campaign shaper reads the shares as consecutive slices of [0,1].
	top := func(v []float64) float64 { return slices.Max(append([]float64{0}, v...)) }
	p, c, m := top(s.Pulse), top(s.Carpet), top(s.Multi)
	if p+c+m > 1+1e-9 {
		return g, fmt.Errorf("bad pulse+carpet+multi %v+%v+%v: largest shares must sum to at most 1", p, c, m)
	}
	return g, nil
}

// Jobs compiles the spec and expands it in one step.
func (s Spec) Jobs(base scenario.Config) ([]Job, error) {
	g, err := s.Grid(base)
	if err != nil {
		return nil, err
	}
	return g.Jobs(), nil
}

// ParseSeeds expands "1-16" / "1,5,9-12" into an ordered seed list.
func ParseSeeds(spec string) ([]uint64, error) {
	var seeds []uint64
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if lo, hi, ok := strings.Cut(part, "-"); ok {
			a, err1 := strconv.ParseUint(strings.TrimSpace(lo), 10, 64)
			b, err2 := strconv.ParseUint(strings.TrimSpace(hi), 10, 64)
			if err1 != nil || err2 != nil || b < a {
				return nil, fmt.Errorf("bad seed range %q", part)
			}
			if b-a >= 10_000 {
				return nil, fmt.Errorf("seed range %q too large", part)
			}
			for s := a; s <= b; s++ {
				seeds = append(seeds, s)
			}
			continue
		}
		s, err := strconv.ParseUint(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q", part)
		}
		seeds = append(seeds, s)
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("no seeds in %q", spec)
	}
	return seeds, nil
}
