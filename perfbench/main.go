// Command perfbench is the repository benchmark. It runs one named workload
// through the public pipeline — scenario.Build, (*World).Run,
// ntpddos.NewSimulation, the 33 table builders, report.Digest and the sweep
// pool — checks every world's digest before any number counts, and prints
// the result as one JSON line:
//
//	bash perfbench/run.sh --workload quick-window --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures untraced units for --seconds and prints the end-to-end
// metrics. --trace 1 makes one untraced and one traced pass and prints the
// per-layer ledger: spans around each public call, CPU shares per module
// from a runtime/pprof profile, counts from the metrics registry, and
// runtime/metrics deltas. BENCHMARK.json at the repository root declares
// the workloads and metrics; NOTES.md in this directory explains them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"

	"ntpddos"
	"ntpddos/internal/report"
	"ntpddos/internal/scenario"
)

// maxProcs caps GOMAXPROCS so a run measures the same two-core process on
// any machine; golden-corpus sizes its sweep pool to match.
const maxProcs = 2

// wantTables is the number of tables every world must render.
const wantTables = 33

// setupRounds is how many times each config is built before measuring, so
// setup_s is a median over several builds even when a run fits few units.
const setupRounds = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Int("seconds", 30, "measurement budget of an untraced run, in seconds")
	trace := fs.Int("trace", 0, "0 prints end-to-end metrics, 1 prints the traced per-layer ledger")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := lookupWorkload(*name)
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "perfbench: unexpected arguments %q\n", fs.Args())
		return 2
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n",
			*name, strings.Join(workloadNames(), ", "))
		return 2
	case *seconds < 1:
		fmt.Fprintf(stderr, "perfbench: --seconds %d, want at least 1\n", *seconds)
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "perfbench: --trace %d, want 0 or 1\n", *trace)
		return 2
	}
	runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))

	want, err := wl.want(*seed)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	chk := &checker{want: want, seen: map[string]string{}, log: stderr}
	jobs := wl.jobs(*seed)
	var m map[string]float64
	if *trace == 1 {
		m, err = traceRun(wl, jobs, chk, stderr)
	} else {
		m, err = measure(wl, jobs, float64(*seconds), chk, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	res := result{
		Correct:   chk.failed == 0 && chk.attempted > 0,
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics:   make(map[string]metric, len(m)),
	}
	for k, v := range m {
		res.Metrics[k] = metric{Value: v, Unit: unitOf(k)}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// unitOf derives a metric's unit from its name's suffix.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_frac"):
		return "frac"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	}
	return "count"
}

// checker is the output-check gate: every world must render 33 tables and
// reproduce its pinned digest, or, where none is pinned, the digest of its
// first repetition in this run.
type checker struct {
	want              map[string]string
	seen              map[string]string
	attempted, failed int
	log               io.Writer
}

func (c *checker) check(id, digest string, tables int) {
	c.attempted++
	want, pinned := c.want[id]
	if !pinned {
		want, pinned = c.seen[id]
	}
	switch {
	case tables != wantTables:
		c.miss(id, fmt.Sprintf("rendered %d tables, want %d", tables, wantTables))
	case pinned && digest != want:
		c.miss(id, fmt.Sprintf("digest %s, want %s", digest, want))
	}
	if _, ok := c.seen[id]; !ok {
		c.seen[id] = digest
		fmt.Fprintf(c.log, "digest %s %s\n", id, digest)
	}
}

// fail counts a job that produced no output at all.
func (c *checker) fail(id, reason string) {
	c.attempted++
	c.miss(id, reason)
}

func (c *checker) miss(id, reason string) {
	c.failed++
	fmt.Fprintf(c.log, "check failed: %s: %s\n", id, reason)
}

// measure runs untraced units of the workload — worlds or sweeps — until
// the next one would overrun the budget, and returns the end-to-end
// metrics as medians over the units.
func measure(w workload, jobs []ntpddos.SweepJob, seconds float64, chk *checker, log io.Writer) (map[string]float64, error) {
	setup := setupTimes(jobs)
	minUnits := 2 // a world workload needs two to check an unpinned digest
	if w.sweep {
		minUnits = 1
	}
	var walls, cpus []float64
	start := time.Now()
	for len(walls) < minUnits || time.Since(start).Seconds()+median(walls) <= seconds {
		runtime.GC()
		c0 := cpuSeconds()
		t0 := time.Now()
		if w.sweep {
			if err := runSweep(jobs, chk); err != nil {
				return nil, err
			}
		} else {
			setup = append(setup, runWorld(jobs[0], chk))
		}
		walls = append(walls, time.Since(t0).Seconds())
		cpus = append(cpus, cpuSeconds()-c0)
	}
	summarize(log, "setup_s", setup)
	summarize(log, "wall_s", walls)
	summarize(log, "cpu_s", cpus)
	return map[string]float64{
		"setup_s":     median(setup),
		"wall_s":      median(walls),
		"cpu_s":       median(cpus),
		"peak_rss_mb": peakRSSMB(),
	}, nil
}

// setupTimes builds every config setupRounds times and returns the wall
// time of each scenario.Build.
func setupTimes(jobs []ntpddos.SweepJob) []float64 {
	var out []float64
	for r := 0; r < setupRounds; r++ {
		for _, j := range jobs {
			runtime.GC()
			t0 := time.Now()
			scenario.Build(j.Cfg)
			out = append(out, time.Since(t0).Seconds())
		}
	}
	return out
}

// runWorld runs one world from Config to checked digest through the public
// calls and returns its Build time.
func runWorld(job ntpddos.SweepJob, chk *checker) float64 {
	t0 := time.Now()
	w := scenario.Build(job.Cfg)
	build := time.Since(t0).Seconds()
	sim := ntpddos.NewSimulation(w.Run())
	tables := sim.All()
	chk.check(job.ID, digestOf(sim, tables), len(tables))
	return build
}

// runSweep runs the jobs through ntpddos.Sweep and checks the manifest.
func runSweep(jobs []ntpddos.SweepJob, chk *checker) error {
	m, err := ntpddos.Sweep(jobs, ntpddos.SweepOptions{Workers: maxProcs})
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	for _, rec := range m.Jobs {
		if rec.Err != "" {
			chk.fail(rec.ID, rec.Err)
			continue
		}
		chk.check(rec.ID, rec.Digest, int(rec.Values["tables"]))
	}
	return nil
}

// digestOf digests a world's tables as ntpddos.SweepRunner does: the
// disciplined-client summary joins the digested set when that plane is on.
func digestOf(sim *ntpddos.Simulation, tables []*ntpddos.Table) string {
	if sim.Results().TimeSync != nil {
		tables = append(tables[:len(tables):len(tables)], sim.TimeSyncReport())
	}
	return report.Digest(tables)
}

// summarize logs a sample's median, quartiles and the highest percentile
// its count supports.
func summarize(log io.Writer, name string, xs []float64) {
	line := fmt.Sprintf("%-12s n=%d median=%.4g", name, len(xs), median(xs))
	if q1, _, q3, ok := quartiles(xs); ok {
		line += fmt.Sprintf(" q1=%.4g q3=%.4g", q1, q3)
	}
	if p, ok := supportedPercentile(len(xs)); ok {
		line += fmt.Sprintf(" p%g=%.4g", p, percentile(xs, p))
	} else {
		line += fmt.Sprintf(" max=%.4g", percentile(xs, 100))
	}
	fmt.Fprintln(log, line)
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) fails only for an invalid "who" argument.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuSeconds returns the process's user plus system CPU time, which counts
// work moved onto GC threads too.
func cpuSeconds() float64 {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB returns the process's peak resident set; Linux reports
// ru_maxrss in KiB.
func peakRSSMB() float64 {
	return float64(rusage().Maxrss) / 1024
}
