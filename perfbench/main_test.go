package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"ntpddos"
	"ntpddos/internal/scenario"
)

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.median and
	// statistics.quantiles(xs, n=4).
	cases := []struct {
		in     []float64
		median float64
		q      [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 5.5, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{2, 1}, 1.5, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 3}, 3, [3]float64{1, 3, 5}},
		{[]float64{4, 1, 3, 2, 5}, 3, [3]float64{1.5, 3, 4.5}},
	}
	for _, c := range cases {
		if got := median(c.in); got != c.median {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.median)
		}
		q1, q2, q3, ok := quartiles(c.in)
		if !ok || q1 != c.q[0] || q2 != c.q[1] || q3 != c.q[2] {
			t.Errorf("quartiles(%v) = %v %v %v %v, want %v", c.in, q1, q2, q3, ok, c.q)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value reported ok")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no values is not NaN")
	}
}

func TestPercentileWithCount(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10, 0, false}, {39, 0, false}, {40, 75, true}, {100, 90, true},
		{200, 95, true}, {1000, 99, true}, {10000, 99.9, true},
	} {
		p, ok := supportedPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("supportedPercentile(%d) = %v %v, want %v %v", c.n, p, ok, c.want, c.ok)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	for p, want := range map[float64]float64{90: 90, 99: 99, 100: 100, 1: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", p, got, want)
		}
	}
}

func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		frames []string // innermost first
		want   string
	}{
		// The copy under the fabric's datagram pool counts as netsim.
		{[]string{"runtime.memmove", "ntpddos/internal/netsim.(*Network).getDatagram",
			"ntpddos/internal/netsim.(*Network).SendFrom", "main.main"}, "netsim"},
		// Closures belong to their package.
		{[]string{"ntpddos/internal/scenario.(*World).scheduleSweep.func1",
			"ntpddos/internal/vtime.(*Scheduler).RunUntil"}, "scenario"},
		// An inlined runtime helper under a repository frame is charged to it.
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc",
			"ntpddos/internal/packet.(*Datagram).Clone", "ntpddos/internal/ntpd.(*Server).HandlePacket"}, "packet"},
		{[]string{"ntpddos/internal/sketch.(*SpaceSaving[go.shape.uint32]).Add"}, "sketch"},
		{[]string{"ntpddos/internal/vtime/schedtest.Run"}, "vtime"},
		{[]string{"ntpddos.(*Simulation).Figure14", "main.runWorld"}, "ntpddos"},
		// No repository frame: background GC, or anything else.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2",
			"runtime.systemstack", "runtime.gcBgMarkWorker"}, bucketGC},
		{[]string{"runtime.(*mheap).reclaim", "runtime.bgsweep"}, bucketGC},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.mstart"}, bucketOther},
		{[]string{"runtime.mallocgc", "main.setupTimes", "main.main"}, bucketOther},
		{nil, bucketOther},
	} {
		if got := bucketOf(c.frames); got != c.want {
			t.Errorf("bucketOf(%q) = %q, want %q", c.frames, got, c.want)
		}
	}
}

var sink int

//go:noinline
func spinForProfile(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		n++
	}
	return n
}

func TestParseProfileReadsRuntimePprof(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	sink = spinForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	found := false
	for _, s := range p.samples {
		total += s.weight
		for _, f := range s.frames {
			found = found || strings.HasSuffix(f, ".spinForProfile")
		}
	}
	if total == 0 || !found {
		t.Fatalf("profile of a 300ms spin: %d samples, spin frame found %v", total, found)
	}
	if _, err := parseProfile([]byte{0x12, 0x05, 0x01}); err == nil {
		t.Error("truncated protobuf parsed without error")
	}
}

func TestCheckerCountsEveryMiss(t *testing.T) {
	c := &checker{want: map[string]string{"a": "good"}, seen: map[string]string{}, log: io.Discard}
	c.check("a", "good", wantTables)
	c.check("a", "tampered", wantTables) // pinned digest missed
	c.check("b", "x", wantTables)        // first repetition sets the digest
	c.check("b", "y", wantTables)        // a repetition disagrees
	c.check("c", "z", wantTables-1)      // a table missing
	c.fail("d", "panic")
	if c.attempted != 6 || c.failed != 4 {
		t.Fatalf("attempted %d failed %d, want 6 and 4", c.attempted, c.failed)
	}
}

// tiny shrinks a workload's worlds to a few hundred hosts and a window that
// still holds the first monlist survey, and drops pinning, so a smoke run
// takes seconds.
func tiny(w workload) workload {
	jobs := w.jobs
	w.jobs = func(seed uint64) []ntpddos.SweepJob {
		js := jobs(seed)
		if w.sweep {
			js = js[len(js)-2:] // two short jobs through the same pool
		}
		for i := range js {
			js[i].Cfg.Scale = max(js[i].Cfg.Scale, 8000)
			js[i].Cfg.End = scenario.ONPStart.AddDate(0, 0, 1)
		}
		return js
	}
	w.want = func(uint64) (map[string]string, error) { return nil, nil }
	return w
}

// benchmarkUnits reads the metric names and units BENCHMARK.json declares.
func benchmarkUnits(t *testing.T) (e2e, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	e2e, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return e2e, perLayer
}

// runTiny runs the command line against the tiny workloads and returns the
// exit code and the decoded last line of standard output.
func runTiny(t *testing.T, args ...string) (int, result) {
	t.Helper()
	var out, errs bytes.Buffer
	code := run(args, &out, &errs)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: exit %d, last stdout line not a result: %v\nstderr:\n%s", args, code, err, errs.String())
	}
	return code, res
}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation skipped in -short mode")
	}
	saved := workloads
	t.Cleanup(func() { workloads = saved })
	workloads = nil
	for _, w := range saved {
		workloads = append(workloads, tiny(w))
	}
	e2e, perLayer := benchmarkUnits(t)

	for _, w := range workloads {
		for trace, declared := range map[string]map[string]string{"0": e2e, "1": perLayer} {
			code, res := runTiny(t, "--workload", w.name, "--seed", "5", "--seconds", "1", "--trace", trace)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Errorf("%s trace %s: exit %d, correct %v, %d of %d failed",
					w.name, trace, code, res.Correct, res.Failed, res.Attempted)
			}
			for name, unit := range declared {
				if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
					t.Errorf("%s trace %s: metric %s = %+v, BENCHMARK.json says unit %q", w.name, trace, name, m, unit)
				}
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s trace %s: %d metrics printed, %d declared", w.name, trace, len(res.Metrics), len(declared))
			}
		}
	}
}

func TestTamperedDigestFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation skipped in -short mode")
	}
	saved := workloads
	t.Cleanup(func() { workloads = saved })
	w := tiny(saved[0])
	w.want = func(seed uint64) (map[string]string, error) {
		return map[string]string{w.jobs(seed)[0].ID: strings.Repeat("0", 64)}, nil
	}
	workloads = []workload{w}
	code, res := runTiny(t, "--workload", w.name, "--seed", "1", "--seconds", "1", "--trace", "0")
	if code == 0 || res.Correct || res.Failed == 0 || res.Failed != res.Attempted {
		t.Fatalf("tampered digest: exit %d, correct %v, %d of %d failed", code, res.Correct, res.Failed, res.Attempted)
	}
}

func TestPinsCoverEveryWorkload(t *testing.T) {
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		p, ok := pins[w.name]
		if !ok || p.HeldOutSeed == 0 || p.HeldOutSeed == p.DefaultSeed {
			t.Errorf("%s: pin %+v lacks a distinct held-out seed", w.name, p)
		}
		if !w.sweep && p.Digest == "" {
			t.Errorf("%s: no digest pinned for the default seed", w.name)
		}
	}
}
