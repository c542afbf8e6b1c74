// Command amppot runs the measurement window with the amplification-
// honeypot vantage in focus: it prints the fleet's detected attack events,
// the validation against the launched-campaign ground truth, the sensor
// convergence curve, and the cross-vantage comparison.
//
// Usage:
//
//	amppot                    # quick-scale run, full honeypot report
//	amppot -sensors 10        # smaller fleet
//	amppot -events            # also dump the individual detected events
//	amppot -scale 400 -seed 7
package main

import (
	"flag"
	"fmt"
	"os"

	"ntpddos"
	"ntpddos/internal/buildinfo"
	"ntpddos/internal/sweep"
)

func main() {
	var (
		scale   = sweep.ScaleFlag(2000)
		seed    = flag.Uint64("seed", 1, "world seed")
		sensors = flag.Int("sensors", 0, "fleet size (0 = default 24 sensors)")
		events  = flag.Bool("events", false, "also print each detected event")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned tables")
	)
	showVersion := buildinfo.Flag()
	flag.Parse()
	buildinfo.Handle("amppot", *showVersion)
	if *sensors < 0 {
		fmt.Fprintf(os.Stderr, "amppot: bad -sensors %d: fleet size must be at least 0\n", *sensors)
		os.Exit(2)
	}

	cfg := ntpddos.QuickConfig()
	cfg.Scale = *scale
	cfg.Seed = *seed
	if *sensors > 0 {
		cfg.HoneypotSensors = *sensors
	}

	fmt.Fprintf(os.Stderr, "amppot: running 2013-09 through 2014-05 at scale 1/%d (seed %d, %d sensors)...\n",
		cfg.Scale, cfg.Seed, cfg.HoneypotSensors)
	sim := ntpddos.Run(cfg)
	fmt.Fprintf(os.Stderr, "amppot: done.\n\n")

	for _, tab := range []*ntpddos.Table{sim.HoneypotReport(), sim.HoneypotConvergence()} {
		if *csv {
			fmt.Print(tab.CSV())
		} else {
			fmt.Println(tab.Render())
		}
	}

	hp := sim.Results().Honeypot
	if hp == nil {
		return
	}
	if *events {
		fmt.Println("detected events:")
		for _, e := range hp.Events {
			fmt.Printf("  %s  %s:%d  %7.1f min  %6d pkts  %d sensors  %d bursts\n",
				e.First.Format("2006-01-02 15:04"), e.Victim, e.Port,
				e.Duration().Minutes(), e.Packets, len(e.Sensors), e.Bursts)
		}
	}
}
