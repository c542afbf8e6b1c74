// Command ntpsim runs the full NTP-DDoS measurement reproduction and prints
// the paper's tables and figures.
//
// It runs one world: a one-seed sweep spec. It takes every ntpsweep knob
// flag (-detect, -spoof, -hazard, -vectors, -pulse, -loss, -sample,
// -timesync, ...) with one value each; a flag that would expand to more
// than one world is a usage error.
//
// Usage:
//
//	ntpsim                     # run at -scale and print every experiment
//	ntpsim -experiment fig3    # print one experiment
//	ntpsim -list               # list experiment ids
//	ntpsim -csv -experiment table4 > ports.csv
//	ntpsim -scale 2000         # faster, coarser world
//	ntpsim -loss 0.1 -sample 16 -detect   # chaos run: lossy fabric, sampled NetFlow
//	ntpsim -timesync 16 -timeattack 0.5 -detect   # time-integrity attack and its detector
//	ntpsim -quick -cpuprofile cpu.pprof   # then: go tool pprof -top cpu.pprof
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strconv"
	"time"

	"ntpddos"
	"ntpddos/internal/buildinfo"
	"ntpddos/internal/metrics"
	"ntpddos/internal/profiling"
	"ntpddos/internal/sweep"
)

func main() {
	var spec sweep.Spec
	spec.Flags(flag.CommandLine, true)
	var (
		scale       = sweep.ScaleFlag(400)
		seed        = flag.Uint64("seed", 1, "world seed")
		experiment  = flag.String("experiment", "", "print only this experiment id")
		csv         = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		list        = flag.Bool("list", false, "list experiment ids and exit")
		quick       = flag.Bool("quick", false, "use the quick test-scale configuration")
		pcapDir     = flag.String("pcap", "", "directory to persist weekly monlist samples as .pcap files")
		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus /metrics and /healthz on this address while the run progresses (e.g. :9091)")
	)
	showVersion := buildinfo.Flag()
	prof := profiling.Flags()
	flag.Parse()
	buildinfo.Handle("ntpsim", *showVersion)

	base := ntpddos.DefaultConfig()
	if *quick {
		base = ntpddos.QuickConfig()
	}
	base.Scale = *scale
	spec.Seeds = strconv.FormatUint(*seed, 10)
	grid, err := spec.Grid(base)
	if err != nil {
		fatalf("%v", err)
	}
	for _, k := range grid.Knobs {
		if len(k.Values) > 1 {
			fatalf("-%s expands to %d worlds; ntpsim runs one (use ntpsweep for grids)", k.Name, len(k.Values))
		}
	}
	cfg := grid.Jobs()[0].Cfg
	cfg.PCAPDir = *pcapDir
	reports := ntpddos.Reports()
	if *experiment != "" && !slices.ContainsFunc(reports, func(r ntpddos.Report) bool { return r.ID == *experiment }) {
		fatalf("unknown experiment %q (try -list)", *experiment)
	}
	stopProfiles, err := prof.Start()
	if err != nil {
		fatalf("profiling: %v", err)
	}
	defer stopProfiles()

	if *metricsAddr != "" {
		reg := metrics.NewRegistry()
		metrics.RegisterGoRuntime(reg)
		cfg.Metrics = reg
		exp, err := metrics.Serve(*metricsAddr, reg)
		if err != nil {
			log.Fatalf("ntpsim: metrics exporter: %v", err)
		}
		fmt.Fprintf(os.Stderr, "ntpsim: serving metrics on http://%s/metrics\n", exp.Addr())
		exp.SetReady(true)
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			exp.Shutdown(ctx)
		}()
	}

	if *list {
		for _, r := range reports {
			fmt.Println(r.ID)
		}
		return
	}

	fmt.Fprintf(os.Stderr, "ntpsim: running 2013-09 through 2014-05 at scale 1/%d (seed %d)...\n",
		cfg.Scale, cfg.Seed)
	sim := ntpddos.Run(cfg)
	fmt.Fprintf(os.Stderr, "ntpsim: done.\n\n")

	// -experiment prints its report whatever the planes; a full run prints
	// every report the run's planes carry data for.
	for _, r := range reports {
		if r.ID == *experiment || *experiment == "" && r.Attached(sim) {
			if t := r.Build(sim); *csv {
				fmt.Print(t.CSV())
			} else {
				fmt.Println(t.Render())
			}
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ntpsim: "+format+"\n", args...)
	os.Exit(2)
}
