// Command ntpsweep runs parameter sweeps over the simulation: seed
// replicates, Scale ladders, and grids over Config knobs (detector on/off,
// BCP38 spoofer fraction, remediation hazard), fanned across a worker pool.
// It prints the cross-run spread summary and a per-run digest manifest
// whose canonical bytes are independent of -workers — the determinism
// contract the test suite pins.
//
// Usage:
//
//	ntpsweep -seeds 1-16                        # 16 seed replicates
//	ntpsweep -seeds 1-8 -workers 4              # same jobs, 4-way pool
//	ntpsweep -seeds 1-4 -scales 2000,4000       # Scale ladder
//	ntpsweep -seeds 1-4 -spoof 0.1,0.25,0.5     # BCP38 sensitivity grid
//	ntpsweep -seeds 1-4 -detect both            # detector on/off ablation
//	ntpsweep -seeds 1-4 -vectors dns-any,ssdp,chargen -pulse 0.3 \
//	         -carpet 0.2 -multi 0.2 -detect on  # shaped multi-protocol campaigns
//	ntpsweep -seeds 1-4 -loss 0,0.05,0.1,0.2 -detect on \
//	         -sample 1,16                       # detection-degradation grid
//	ntpsweep -seeds 1-4 -end 2014-02-01         # truncated window (fast)
//	ntpsweep -seeds 1-4 -out manifest.json      # manifest to a file
//	ntpsweep -seeds 1-4 -csv                    # per-job CSV on stdout
//	ntpsweep -seeds 1-4 -cpuprofile cpu.pprof   # then: go tool pprof -top cpu.pprof
//
// The group-summary table and per-job timing go to stderr; the manifest
// (canonical JSON, or CSV with -csv) goes to stdout or -out. SIGINT or
// SIGTERM interrupts the sweep cleanly: in-flight jobs finish, unrun jobs
// are recorded as canceled, and the partial manifest is still emitted
// (exit status 1).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ntpddos"
	"ntpddos/internal/buildinfo"
	"ntpddos/internal/metrics"
	"ntpddos/internal/profiling"
	"ntpddos/internal/sweep"
)

func main() {
	var (
		workers     = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		seedSpec    = flag.String("seeds", "1", "replicate seeds: comma list and/or ranges, e.g. 1-16 or 1,5,9-12")
		scaleSpec   = flag.String("scales", "", "comma-separated Scale ladder (empty = -scale only)")
		scale       = flag.Int("scale", 2000, "base population divisor")
		name        = flag.String("name", "", "experiment-name prefix for manifest cells")
		endSpec     = flag.String("end", "", "truncate the window at this date (YYYY-MM-DD; empty = full window)")
		detectSpec  = flag.String("detect", "off", "streaming detector knob: off, on, or both")
		noremSpec   = flag.String("noremediation", "off", "counterfactual no-remediation knob: off, on, or both")
		spoofSpec   = flag.String("spoof", "", "comma-separated BCP38 spoofer fractions (e.g. 0.1,0.25,0.5)")
		hazardSpec  = flag.String("hazard", "", "comma-separated remediation-hazard multipliers (e.g. 0.5,1,2)")
		vectorSpec  = flag.String("vectors", "", "comma-separated extra reflector vectors to arm (dns-any,ssdp,chargen)")
		pulseSpec   = flag.String("pulse", "", "comma-separated pulse-wave campaign shares in [0,1] (e.g. 0,0.3)")
		carpetSpec  = flag.String("carpet", "", "comma-separated carpet-bombing campaign shares in [0,1]")
		multiSpec   = flag.String("multi", "", "comma-separated multi-vector campaign shares in [0,1]")
		lossSpec    = flag.String("loss", "", "comma-separated fabric packet-loss rates in [0,1) (fault grid)")
		dupSpec     = flag.String("dup", "", "comma-separated fabric duplication rates in [0,1)")
		reorderSpec = flag.String("reorder", "", "comma-separated fabric reordering rates in [0,1)")
		flapSpec    = flag.String("flap", "", "comma-separated link-flap dark fractions in [0,1)")
		sampleSpec  = flag.String("sample", "", "comma-separated NetFlow 1-in-N sampling strides (e.g. 1,16,64)")
		outageSpec  = flag.String("outage", "", "comma-separated NetFlow collector dark fractions in [0,1)")
		blackSpec   = flag.String("blackout", "", "comma-separated honeypot sensor blackout fractions in [0,1)")
		tsClients   = flag.Int("timesync", 0, "disciplined NTP client count (0 keeps the timesync plane off)")
		taSpec      = flag.String("timeattack", "", "comma-separated time-integrity attack shares in [0,1] (requires -timesync)")
		csv         = flag.Bool("csv", false, "emit the per-job table as CSV instead of the JSON manifest")
		out         = flag.String("out", "-", "manifest destination (- = stdout)")
		quiet       = flag.Bool("q", false, "suppress per-job progress lines")
		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus /metrics and /healthz on this address during the sweep (e.g. :9091)")
		showVersion = buildinfo.Flag()
		prof        = profiling.Flags()
	)
	flag.Parse()
	buildinfo.Handle("ntpsweep", *showVersion)
	if *scale < 1 {
		fatalf("bad -scale %d: population divisor must be at least 1", *scale)
	}

	spec, err := buildSpec(specFlags{
		name: *name, seeds: *seedSpec, scales: *scaleSpec, end: *endSpec,
		detect: *detectSpec, norem: *noremSpec, spoof: *spoofSpec, hazard: *hazardSpec,
		vectors: *vectorSpec, pulse: *pulseSpec, carpet: *carpetSpec, multi: *multiSpec,
		loss: *lossSpec, dup: *dupSpec, reorder: *reorderSpec, flap: *flapSpec,
		sample: *sampleSpec, outage: *outageSpec, blackout: *blackSpec,
		timesync: *tsClients, timeattack: *taSpec,
	})
	if err != nil {
		fatalf("%v", err)
	}
	base := ntpddos.DefaultConfig()
	base.Scale = *scale
	grid, err := spec.Grid(base)
	if err != nil {
		fatalf("%v", err)
	}
	jobs := grid.Jobs()
	stopProfiles, err := prof.Start()
	if err != nil {
		fatalf("profiling: %v", err)
	}

	opt := sweep.Options{Workers: *workers}
	if !*quiet {
		opt.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "ntpsweep: "+format+"\n", args...)
		}
	}
	if *metricsAddr != "" {
		reg := metrics.NewRegistry()
		metrics.RegisterGoRuntime(reg)
		opt.Metrics = sweep.NewMetrics(reg)
		exp, err := metrics.Serve(*metricsAddr, reg)
		if err != nil {
			fatalf("metrics exporter: %v", err)
		}
		fmt.Fprintf(os.Stderr, "ntpsweep: serving metrics on http://%s/metrics\n", exp.Addr())
		exp.SetReady(true)
	}

	// SIGINT/SIGTERM cancel the sweep: in-flight jobs finish, queued jobs
	// are skipped, and the partial manifest below is still written.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Fprintf(os.Stderr, "ntpsweep: %d jobs (%s)\n", len(jobs), gridShape(grid))
	start := time.Now()
	manifest, err := ntpddos.SweepContext(ctx, jobs, opt)
	stopProfiles()
	canceled := errors.Is(err, ntpddos.ErrSweepCanceled)
	if err != nil && !canceled {
		fatalf("%v", err)
	}
	if canceled {
		fmt.Fprintf(os.Stderr, "ntpsweep: interrupted after %v — emitting partial manifest (%v)\n",
			time.Since(start).Round(time.Second), err)
	} else {
		fmt.Fprintf(os.Stderr, "ntpsweep: done in %v\n\n", time.Since(start).Round(time.Second))
	}

	fmt.Fprintln(os.Stderr, manifest.GroupTable().Render())
	fmt.Fprintln(os.Stderr, manifest.TimingTable().Render())
	fmt.Fprintf(os.Stderr, "ntpsweep: manifest digest %s\n", manifest.Digest())
	if failed := manifest.Failed(); len(failed) > 0 {
		for _, rec := range failed {
			fmt.Fprintf(os.Stderr, "ntpsweep: FAILED %s: %s\n", rec.ID, rec.Err)
		}
	}

	var payload []byte
	if *csv {
		payload = []byte(manifest.JobTable().CSV())
	} else {
		payload = manifest.CanonicalJSON()
	}
	if *out == "-" || *out == "" {
		os.Stdout.Write(payload)
	} else if err := os.WriteFile(*out, payload, 0o644); err != nil {
		fatalf("writing %s: %v", *out, err)
	}
	if canceled || len(manifest.Failed()) > 0 {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ntpsweep: "+format+"\n", args...)
	os.Exit(2)
}

// specFlags carries the raw flag strings the sweep spec compiles from.
type specFlags struct {
	name, seeds, scales, end, detect, norem string
	spoof, hazard, pulse, carpet, multi     string
	vectors                                 string
	loss, dup, reorder, flap                string
	sample, outage, blackout                string
	timesync                                int
	timeattack                              string
}

// buildSpec assembles the declarative sweep spec from the flag strings; the
// same spec, as JSON, is what cmd/ntpserved accepts over HTTP.
func buildSpec(f specFlags) (sweep.Spec, error) {
	s := sweep.Spec{
		Name:          f.name,
		Seeds:         f.seeds,
		End:           f.end,
		Detect:        f.detect,
		NoRemediation: f.norem,
	}
	if f.scales != "" {
		scales, err := parseInts(f.scales)
		if err != nil {
			return s, fmt.Errorf("bad -scales: %w", err)
		}
		s.Scales = scales
	}
	if f.vectors != "" {
		for _, part := range strings.Split(f.vectors, ",") {
			if part = strings.TrimSpace(part); part != "" {
				s.Vectors = append(s.Vectors, part)
			}
		}
	}
	for _, fl := range []struct {
		flag string
		spec string
		dst  *[]float64
	}{
		{"-spoof", f.spoof, &s.Spoof},
		{"-hazard", f.hazard, &s.Hazard},
		{"-pulse", f.pulse, &s.Pulse},
		{"-carpet", f.carpet, &s.Carpet},
		{"-multi", f.multi, &s.Multi},
		{"-loss", f.loss, &s.Loss},
		{"-dup", f.dup, &s.Dup},
		{"-reorder", f.reorder, &s.Reorder},
		{"-flap", f.flap, &s.Flap},
		{"-outage", f.outage, &s.Outage},
		{"-blackout", f.blackout, &s.Blackout},
		{"-timeattack", f.timeattack, &s.TimeAttack},
	} {
		if fl.spec == "" {
			continue
		}
		vals, err := parseFloats(fl.spec)
		if err != nil {
			return s, fmt.Errorf("bad %s: %w", fl.flag, err)
		}
		*fl.dst = vals
	}
	if f.sample != "" {
		strides, err := parseInts(f.sample)
		if err != nil {
			return s, fmt.Errorf("bad -sample: %w", err)
		}
		s.Sample = strides
	}
	s.TimeSync = f.timesync
	return s, nil
}

func gridShape(g sweep.Grid) string {
	parts := []string{fmt.Sprintf("%d seeds", len(g.Seeds))}
	if len(g.Scales) > 1 {
		parts = append(parts, fmt.Sprintf("%d scales", len(g.Scales)))
	}
	for _, k := range g.Knobs {
		parts = append(parts, fmt.Sprintf("%s×%d", k.Name, len(k.Values)))
	}
	return strings.Join(parts, ", ")
}

func parseInts(spec string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad value %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list %q", spec)
	}
	return out, nil
}

func parseFloats(spec string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list %q", spec)
	}
	return out, nil
}
