// Quickstart: run the whole reproduction at test scale and print the
// headline results — the rise-and-decline story in four tables.
//
//	go run ./examples/quickstart
//
// Takes about a minute. For the full benchmark-scale world use
// cmd/ntpsim; for a single experiment use cmd/ntpsim -experiment <id>.
package main

import (
	"fmt"
	"os"

	"ntpddos"
)

func main() {
	fmt.Fprintln(os.Stderr, "quickstart: simulating September 2013 through May 2014 at test scale...")
	sim := ntpddos.Run(ntpddos.QuickConfig())

	// The rise: NTP grows three orders of magnitude to ~1% of all traffic.
	fmt.Println(sim.Figure1().Render())

	// The weapon: the monlist amplifier pool and its BAF distribution.
	fmt.Println(sim.Figure4b().Render())

	// The victims: who gets attacked, on which ports.
	fmt.Println(sim.Table4().Render())

	// The decline: remediation drains the pool by >90% in ten weeks.
	fmt.Println(sim.RemediationReport().Render())

	fmt.Println("All 33 experiments: sim.All(), or go run ./cmd/ntpsim")
}
