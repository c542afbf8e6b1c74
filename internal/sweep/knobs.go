package sweep

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"ntpddos/internal/detect"
	"ntpddos/internal/reflector"
	"ntpddos/internal/scenario"
)

// knob is one Spec field beyond the name, seed, scale and window basics.
// Its name is the field's JSON key, its flag name, and its name in
// manifest cells. Adding a knob takes one entry in knobs plus its Spec and
// scenario.Config fields.
type knob struct {
	name, help string
	// field points at the knob's Spec field; its type picks the flag.
	field func(*Spec) any
	// values checks the field and returns one setting per value in spec
	// order, or nil when the field is unset.
	values func(Spec) ([]KnobValue, error)
	// base marks a base setting: its one value applies to Grid.Base
	// instead of adding a grid dimension.
	base bool
}

// knobs is the knob table, in the order grid dimensions nest in job IDs
// (first varies slowest).
var knobs = []knob{
	onOff("detect", "streaming detector: off, on, or both", func(s *Spec) *string { return &s.Detect },
		func(c *scenario.Config) {
			dcfg := detect.DefaultConfig()
			c.Detector = &dcfg
		}),
	onOff("noremediation", "counterfactual no-remediation world: off, on, or both",
		func(s *Spec) *string { return &s.NoRemediation }, func(c *scenario.Config) { c.NoRemediation = true }),
	list("spoof", "BCP38 spoofer fractions in [0,1] (0 = nobody spoofs)", func(s *Spec) *[]float64 { return &s.Spoof },
		share, func(c *scenario.Config, v float64) {
			if v == 0 {
				v = -1 // Config uses 0 for "default"; 0 in a spec means nobody spoofs
			}
			c.SpooferFraction = v
		}),
	list("hazard", "remediation-hazard multipliers, each positive (e.g. 0.5,1,2)",
		func(s *Spec) *[]float64 { return &s.Hazard },
		func(v float64) string {
			if v > 0 && v <= math.MaxFloat64 {
				return ""
			}
			// Config reads a hazard of 0 or below as the default 1.
			return "multiplier must be positive and finite (noremediation turns patching off)"
		}, func(c *scenario.Config, v float64) { c.RemediationHazard = v }),
	{
		name: "vectors", help: "extra reflector vectors to arm (dns-any,ssdp,chargen)", base: true,
		field: func(s *Spec) any { return &s.Vectors },
		values: func(s Spec) ([]KnobValue, error) {
			for i, name := range s.Vectors {
				if v := reflector.Vector(name); name == "" || v == reflector.Monlist || !reflector.Valid(v) {
					// Vectors() leads with monlist, which is always armed.
					return nil, fmt.Errorf("bad vectors[%d] %q: want one of %v", i, name, reflector.Vectors()[1:])
				}
			}
			if len(s.Vectors) == 0 {
				return nil, nil
			}
			return []KnobValue{{Apply: func(c *scenario.Config) { c.ExtraVectors = s.Vectors }}}, nil
		},
	},
	{
		name: "timesync", help: "disciplined NTP client count (0 keeps the timesync plane off)", base: true,
		field: func(s *Spec) any { return &s.TimeSync },
		values: func(s Spec) ([]KnobValue, error) {
			if s.TimeSync < 0 {
				return nil, fmt.Errorf("bad timesync %d: must be non-negative", s.TimeSync)
			}
			if s.TimeSync == 0 {
				return nil, nil
			}
			return []KnobValue{{Apply: func(c *scenario.Config) { c.TimeSync.Clients = s.TimeSync }}}, nil
		},
	},
	list("timeattack", "time-integrity attack shares in [0,1] (requires timesync)",
		func(s *Spec) *[]float64 { return &s.TimeAttack }, share,
		func(c *scenario.Config, v float64) { c.TimeAttackShare = v }),
	list("pulse", "pulse-wave campaign shares in [0,1] (e.g. 0,0.3)", func(s *Spec) *[]float64 { return &s.Pulse },
		share, func(c *scenario.Config, v float64) { c.PulseWaveShare = v }),
	list("carpet", "carpet-bombing campaign shares in [0,1]", func(s *Spec) *[]float64 { return &s.Carpet },
		share, func(c *scenario.Config, v float64) { c.CarpetBombShare = v }),
	list("multi", "multi-vector campaign shares in [0,1]", func(s *Spec) *[]float64 { return &s.Multi },
		share, func(c *scenario.Config, v float64) { c.MultiVectorShare = v }),
	list("loss", "fabric packet-loss rates in [0,1)", func(s *Spec) *[]float64 { return &s.Loss },
		rate, func(c *scenario.Config, v float64) { c.Faults.Loss = v }),
	list("dup", "fabric duplication rates in [0,1)", func(s *Spec) *[]float64 { return &s.Dup },
		rate, func(c *scenario.Config, v float64) { c.Faults.Dup = v }),
	list("reorder", "fabric reordering rates in [0,1)", func(s *Spec) *[]float64 { return &s.Reorder },
		rate, func(c *scenario.Config, v float64) { c.Faults.Reorder = v }),
	list("flap", "link-flap dark fractions in [0,1)", func(s *Spec) *[]float64 { return &s.Flap },
		rate, func(c *scenario.Config, v float64) { c.Faults.FlapRate = v }),
	list("outage", "NetFlow collector dark fractions in [0,1)", func(s *Spec) *[]float64 { return &s.Outage },
		rate, func(c *scenario.Config, v float64) { c.Faults.CollectorOutage = v }),
	list("blackout", "honeypot sensor blackout fractions in [0,1)", func(s *Spec) *[]float64 { return &s.Blackout },
		rate, func(c *scenario.Config, v float64) { c.Faults.SensorBlackout = v }),
	list("sample", "NetFlow 1-in-N sampling strides (1 = unsampled)", func(s *Spec) *[]int { return &s.Sample },
		func(n int) string {
			if n >= 1 {
				return ""
			}
			return "sampling stride must be at least 1"
		}, func(c *scenario.Config, n int) { c.Faults.FlowSampleN = n }),
}

// onOff is an off/on/both knob. "" and "off" add no grid dimension at all,
// keeping manifest cells clean.
func onOff(name, help string, field func(*Spec) *string, set func(*scenario.Config)) knob {
	return knob{name: name, help: help,
		field: func(s *Spec) any { return field(s) },
		values: func(s Spec) ([]KnobValue, error) {
			switch v := *field(&s); v {
			case "", "off":
				return nil, nil
			case "on":
				return []KnobValue{{Label: "on", Apply: set}}, nil
			case "both":
				return []KnobValue{{Label: "off", Apply: func(*scenario.Config) {}}, {Label: "on", Apply: set}}, nil
			default:
				return nil, fmt.Errorf("bad %s %q: want off, on, or both", name, v)
			}
		}}
}

// list is a grid dimension with one value per list entry, labeled by its
// shortest round-trip formatting. check returns why a value is out of
// range, or "" when it is fine.
func list[T int | float64](name, help string, field func(*Spec) *[]T,
	check func(T) string, set func(*scenario.Config, T)) knob {
	return knob{name: name, help: help,
		field: func(s *Spec) any { return field(s) },
		values: func(s Spec) ([]KnobValue, error) {
			var out []KnobValue
			for i, v := range *field(&s) {
				if why := check(v); why != "" {
					return nil, fmt.Errorf("bad %s[%d] %v: %s", name, i, v, why)
				}
				out = append(out, KnobValue{Label: fmt.Sprint(v), Apply: func(c *scenario.Config) { set(c, v) }})
			}
			return out, nil
		}}
}

func share(v float64) string {
	if v >= 0 && v <= 1 {
		return ""
	}
	return "share must be within [0,1]"
}

func rate(v float64) string {
	if v >= 0 && v < 1 {
		return ""
	}
	return "rate must be within [0,1)"
}

// Flags registers s's fields as flags on fs. A sweep (ntpsweep) gets -name,
// -seeds, -scales and -end plus every knob, each taking comma-separated
// values and on/off knobs taking off, on or both. One world (ntpsim) gets
// the knobs alone, and its on/off knobs are boolean flags whose bare form
// (-detect) means on.
func (s *Spec) Flags(fs *flag.FlagSet, oneWorld bool) {
	if !oneWorld {
		fs.StringVar(&s.Name, "name", s.Name, "experiment-name prefix for manifest cells")
		fs.StringVar(&s.Seeds, "seeds", "1", "replicate seeds: comma list and/or ranges, e.g. 1-16 or 1,5,9-12")
		listFlag(fs, &s.Scales, "scales", "Scale ladder (empty = -scale only)")
		fs.StringVar(&s.End, "end", s.End, "truncate the window at this date (YYYY-MM-DD; empty = full window)")
	}
	for _, k := range knobs {
		switch p := k.field(s).(type) {
		case *string:
			set := func(arg string) error {
				if on, err := strconv.ParseBool(arg); oneWorld && err == nil {
					arg = map[bool]string{false: "off", true: "on"}[on]
				}
				*p = arg
				return nil
			}
			if oneWorld {
				fs.BoolFunc(k.name, k.help, set)
			} else {
				fs.Func(k.name, k.help, set)
			}
		case *int:
			fs.IntVar(p, k.name, *p, k.help)
		case *[]int:
			listFlag(fs, p, k.name, k.help)
		case *[]float64:
			listFlag(fs, p, k.name, k.help)
		case *[]string:
			listFlag(fs, p, k.name, k.help)
		default:
			panic(fmt.Sprintf("sweep: knob %q has no flag for %T", k.name, p))
		}
	}
}

// listFlag registers a comma-separated list flag writing into p; blank
// entries are skipped.
func listFlag[T int | float64 | string](fs *flag.FlagSet, p *[]T, name, help string) {
	fs.Func(name, "comma-separated "+help, func(arg string) error {
		*p = nil
		for _, part := range strings.Split(arg, ",") {
			if part = strings.TrimSpace(part); part == "" {
				continue
			}
			var v T
			var err error
			switch q := any(&v).(type) {
			case *int:
				*q, err = strconv.Atoi(part)
			case *float64:
				*q, err = strconv.ParseFloat(part, 64)
			case *string:
				*q = part
			}
			if err != nil {
				return fmt.Errorf("bad value %q", part)
			}
			*p = append(*p, v)
		}
		return nil
	})
}

// ScaleFlag registers -scale, the population divisor, on the default flag
// set with default def. A value below 1 is a usage error: the command
// exits 2 naming the flag.
func ScaleFlag(def int) *int {
	scale := def
	help := fmt.Sprintf("population divisor, at least 1; smaller = bigger, slower world (default %d)", def)
	flag.Func("scale", help, func(arg string) error {
		n, err := strconv.Atoi(arg)
		if err != nil {
			return err
		}
		if n < 1 {
			// One line and exit 2, like the commands' other usage errors,
			// instead of the flag package's error and full flag listing.
			fmt.Fprintf(flag.CommandLine.Output(), "%s: bad -scale %d: population divisor must be at least 1\n",
				filepath.Base(os.Args[0]), n)
			os.Exit(2)
		}
		scale = n
		return nil
	})
	return &scale
}
