// Command darknetwatch demonstrates the §5 early-warning use of a network
// telescope: it runs the simulation through the scanning onset and prints
// the darknet's weekly unique-scanner counts next to the attack-traffic
// level, showing reconnaissance leading attacks by about a week.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ntpddos/internal/buildinfo"
	"ntpddos/internal/scenario"
	"ntpddos/internal/stats"
	"ntpddos/internal/vtime"
)

func main() {
	var (
		scale = flag.Int("scale", 2000, "population divisor")
		seed  = flag.Uint64("seed", 1, "world seed")
	)
	showVersion := buildinfo.Flag()
	flag.Parse()
	buildinfo.Handle("darknetwatch", *showVersion)
	if *scale < 1 {
		fmt.Fprintf(os.Stderr, "darknetwatch: bad -scale %d: population divisor must be at least 1\n", *scale)
		os.Exit(2)
	}

	cfg := scenario.TestConfig()
	cfg.Scale = *scale
	cfg.Seed = *seed
	cfg.End = time.Date(2014, 2, 15, 0, 0, 0, 0, time.UTC)

	fmt.Fprintln(os.Stderr, "darknetwatch: simulating 2013-09 through 2014-02-15...")
	res := scenario.Run(cfg)
	scope := res.World.Telescope
	merit := res.World.Views["Merit"]

	weeklyScanners := stats.NewTimeSeries(vtime.Epoch, 7*24*time.Hour)
	for _, p := range scope.ScannerSeries() {
		weeklyScanners.Add(p.Time, p.Value)
	}
	weeklyEgress := stats.NewTimeSeries(vtime.Epoch, 7*24*time.Hour)
	for _, p := range merit.EgressNTP.Points() {
		weeklyEgress.Add(p.Time, p.Value)
	}

	fmt.Printf("%-12s %18s %20s  %s\n", "week_of", "unique_scanners", "merit_egress_MBps", "alarm")
	var scanOnset, attackOnset time.Time
	for _, p := range weeklyScanners.Points() {
		mbps := weeklyEgress.At(p.Time) / (7 * 86400) / 1e6
		alarm := ""
		if p.Value >= 20 && scanOnset.IsZero() {
			scanOnset = p.Time
			alarm = "<-- scanning surge: EARLY WARNING"
		}
		if mbps >= 1 && attackOnset.IsZero() {
			attackOnset = p.Time
			alarm = "<-- attack traffic arrives"
		}
		fmt.Printf("%-12s %18.0f %20.3f  %s\n", p.Time.Format("2006-01-02"), p.Value, mbps, alarm)
	}
	if !scanOnset.IsZero() && !attackOnset.IsZero() {
		fmt.Printf("\nlead time: scanning surged %.0f days before attack traffic (paper: ~1 week)\n",
			attackOnset.Sub(scanOnset).Hours()/24)
	}
}
