// Command ntpsim runs the full NTP-DDoS measurement reproduction and prints
// the paper's tables and figures.
//
// Usage:
//
//	ntpsim                     # run at -scale and print every experiment
//	ntpsim -experiment fig3    # print one experiment
//	ntpsim -list               # list experiment ids
//	ntpsim -csv -experiment table4 > ports.csv
//	ntpsim -scale 2000         # faster, coarser world
//	ntpsim -loss 0.1 -sample 16 -detect   # chaos run: lossy fabric, sampled NetFlow
//	ntpsim -quick -cpuprofile cpu.pprof   # then: go tool pprof -top cpu.pprof
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"ntpddos"
	"ntpddos/internal/buildinfo"
	"ntpddos/internal/detect"
	"ntpddos/internal/metrics"
	"ntpddos/internal/profiling"
)

func main() {
	var (
		scale       = flag.Int("scale", 400, "population divisor (smaller = bigger, slower world)")
		seed        = flag.Uint64("seed", 1, "world seed")
		experiment  = flag.String("experiment", "", "print only this experiment id")
		csv         = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		list        = flag.Bool("list", false, "list experiment ids and exit")
		quick       = flag.Bool("quick", false, "use the quick test-scale configuration")
		pcapDir     = flag.String("pcap", "", "directory to persist weekly monlist samples as .pcap files")
		detector    = flag.Bool("detect", false, "attach the streaming detection plane and print its report after the run")
		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus /metrics and /healthz on this address while the run progresses (e.g. :9091)")
		loss        = flag.Float64("loss", 0, "fabric packet-loss rate in [0,1) (fault injection)")
		dup         = flag.Float64("dup", 0, "fabric duplication rate in [0,1)")
		reorder     = flag.Float64("reorder", 0, "fabric reordering rate in [0,1)")
		flap        = flag.Float64("flap", 0, "link-flap dark fraction in [0,1)")
		sample      = flag.Int("sample", 1, "NetFlow 1-in-N sampling stride (1 = unsampled)")
		outage      = flag.Float64("outage", 0, "NetFlow collector dark fraction in [0,1)")
		blackout    = flag.Float64("blackout", 0, "honeypot sensor blackout fraction in [0,1)")
		timesync    = flag.Int("timesync", 0, "disciplined NTP client count (0 keeps the timesync plane off)")
		timeattack  = flag.Float64("timeattack", 0, "time-integrity attack share in [0,1] (requires -timesync)")
	)
	showVersion := buildinfo.Flag()
	prof := profiling.Flags()
	flag.Parse()
	buildinfo.Handle("ntpsim", *showVersion)
	if *scale < 1 {
		fmt.Fprintf(os.Stderr, "ntpsim: bad -scale %d: population divisor must be at least 1\n", *scale)
		os.Exit(2)
	}

	cfg := ntpddos.DefaultConfig()
	if *quick {
		cfg = ntpddos.QuickConfig()
	}
	cfg.Scale = *scale
	cfg.Seed = *seed
	cfg.PCAPDir = *pcapDir
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"-loss", *loss}, {"-dup", *dup}, {"-reorder", *reorder},
		{"-flap", *flap}, {"-outage", *outage}, {"-blackout", *blackout},
	} {
		if r.v < 0 || r.v >= 1 {
			log.Fatalf("ntpsim: bad %s %v: rate must be within [0,1)", r.name, r.v)
		}
	}
	if *sample < 1 {
		log.Fatalf("ntpsim: bad -sample %d: sampling stride must be at least 1", *sample)
	}
	cfg.Faults.Loss = *loss
	cfg.Faults.Dup = *dup
	cfg.Faults.Reorder = *reorder
	cfg.Faults.FlapRate = *flap
	cfg.Faults.FlowSampleN = *sample
	cfg.Faults.CollectorOutage = *outage
	cfg.Faults.SensorBlackout = *blackout
	cfg.TimeSync.Clients = *timesync
	cfg.TimeAttackShare = *timeattack
	if *timeattack > 0 && *timesync == 0 {
		fmt.Fprintln(os.Stderr, "ntpsim: -timeattack requires -timesync clients")
		os.Exit(2)
	}
	if *detector {
		dcfg := detect.DefaultConfig()
		cfg.Detector = &dcfg
	}
	stopProfiles, err := prof.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ntpsim: profiling: %v\n", err)
		os.Exit(2)
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
		// A throwaway quick run would be wasteful just to list ids; the ids
		// are fixed, so enumerate them statically.
		for _, id := range []string{
			"fig1", "fig2", "fig3", "fig4a", "fig4b", "fig4c", "table1a",
			"table1v", "table2", "table3", "fig5", "table4", "fig6", "fig7",
			"fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
			"fig15", "fig16", "table5", "table6", "churn", "volume",
			"remediation", "dnsoverlap", "ttl", "mega", "honeypot", "hpconv",
			"detect", "vectors", // outside All(); need -detect to carry data
			"timesync", "timeintegrity", // outside All(); need -timesync to carry data
		} {
			fmt.Println(id)
		}
		return
	}

	fmt.Fprintf(os.Stderr, "ntpsim: running 2013-09 through 2014-05 at scale 1/%d (seed %d)...\n",
		cfg.Scale, cfg.Seed)
	sim := ntpddos.Run(cfg)
	fmt.Fprintf(os.Stderr, "ntpsim: done.\n\n")

	render := func(t *ntpddos.Table) {
		if *csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Println(t.Render())
		}
	}
	if *experiment != "" {
		t := sim.ByID(*experiment)
		// The detect reports live outside All() (they depend on
		// Config.Detector, which All() tables must not).
		switch {
		case t == nil && *experiment == "detect":
			t = sim.DetectReport()
		case t == nil && *experiment == "vectors":
			t = sim.DetectVectorReport()
		case t == nil && *experiment == "timesync":
			t = sim.TimeSyncReport()
		case t == nil && *experiment == "timeintegrity":
			t = sim.TimeIntegrityReport()
		}
		if t == nil {
			fmt.Fprintf(os.Stderr, "ntpsim: unknown experiment %q (try -list)\n", *experiment)
			os.Exit(1)
		}
		render(t)
		return
	}
	for _, t := range sim.All() {
		render(t)
	}
	if *detector {
		render(sim.DetectReport())
		render(sim.DetectVectorReport())
	}
	if *timesync > 0 {
		render(sim.TimeSyncReport())
		if *detector {
			render(sim.TimeIntegrityReport())
		}
	}
}
