package ntpddos

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ntpddos/internal/detect"
	"ntpddos/internal/report"
	"ntpddos/internal/scenario"
	"ntpddos/internal/sweep"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_digests.json and testdata/golden_plane_digests.json from the current code")

const (
	goldenPath      = "testdata/golden_digests.json"
	goldenPlanePath = "testdata/golden_plane_digests.json"
)

// goldenJobs defines the pinned corpus: nine small configurations chosen to
// cover distinct code paths (baseline, resized honeypot fleet, the
// counterfactual knobs added for sweeps, the three shaped campaign
// schedules over the multi-protocol reflector plane, the fault-injection
// plane with every impairment armed at once, and the disciplined-client
// plane both benign and under time-integrity attack). Each runs a truncated
// window — one monlist survey, a live honeypot event stream, and all 33
// tables — in a few seconds, so the corpus is cheap enough for every CI run.
func goldenJobs() []SweepJob {
	base := QuickConfig()
	base.Scale = 4000
	base.End = time.Date(2014, 1, 17, 0, 0, 0, 0, time.UTC)
	base.Seed = 1

	sensors := base
	sensors.Seed = 7
	sensors.HoneypotSensors = 24

	knobs := base
	knobs.Seed = 3
	knobs.NoRemediation = true
	knobs.SpooferFraction = 0.5
	dcfg := detect.DefaultConfig()
	knobs.Detector = &dcfg

	pulse := base
	pulse.Seed = 11
	pulse.ExtraVectors = []string{"dns-any", "ssdp", "chargen"}
	pulse.PulseWaveShare = 0.35

	carpet := base
	carpet.Seed = 13
	carpet.ExtraVectors = []string{"dns-any", "chargen"}
	carpet.CarpetBombShare = 0.4

	multi := base
	multi.Seed = 17
	multi.ExtraVectors = []string{"dns-any", "ssdp", "chargen"}
	multi.MultiVectorShare = 0.4

	// Every fault class armed at once, with the detector and a pulse-wave
	// share attached so degraded vantages are exercised against real alarms.
	// Runs at half the base scale: this config pays for duplication and the
	// detector on top of the usual pipeline, and the corpus must stay cheap.
	faults := base
	faults.Scale = 8000
	faults.Seed = 19
	faults.PulseWaveShare = 0.3
	fcfg := detect.DefaultConfig()
	faults.Detector = &fcfg
	faults.Faults = scenario.FaultConfig{
		Loss: 0.08, Dup: 0.04, Reorder: 0.05, FlapRate: 0.05,
		FlowSampleN: 4, CollectorOutage: 0.2, SensorBlackout: 0.2,
	}

	// The disciplined-client plane, benign and under attack: these two
	// digests include the discipline summary (SweepRunner appends it when
	// the plane is enabled), pinning the sync state machine, the attacker
	// models, and the integrity lane's inputs alongside the classic tables.
	timesyncJob := base
	timesyncJob.Seed = 23
	timesyncJob.TimeSync.Clients = 16

	timeattackJob := timesyncJob
	timeattackJob.Seed = 29
	timeattackJob.TimeAttackShare = 0.5
	tacfg := detect.DefaultConfig()
	timeattackJob.Detector = &tacfg

	return []SweepJob{
		{ID: "base/seed=1", Experiment: "base", Cfg: base},
		{ID: "sensors24/seed=7", Experiment: "sensors24", Cfg: sensors},
		{ID: "knobs/seed=3", Experiment: "knobs", Cfg: knobs},
		{ID: "pulse/seed=11", Experiment: "pulse", Cfg: pulse},
		{ID: "carpet/seed=13", Experiment: "carpet", Cfg: carpet},
		{ID: "multivector/seed=17", Experiment: "multivector", Cfg: multi},
		{ID: "faults/seed=19", Experiment: "faults", Cfg: faults},
		{ID: "timesync/seed=23", Experiment: "timesync", Cfg: timesyncJob},
		{ID: "timeattack/seed=29", Experiment: "timeattack", Cfg: timeattackJob},
	}
}

func readDigests(t *testing.T, path string) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s (run `go test -run TestGoldenDigests -update` to create it): %v", path, err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("corrupt %s: %v", path, err)
	}
	return want
}

// TestGoldenDigests replays the pinned corpus through the sweep engine at
// full parallelism and compares every run's report digest against
// testdata/golden_digests.json. A mismatch means some code change altered
// simulation output — intended changes regenerate the corpus with -update;
// unintended ones get a per-config diff naming exactly which worlds moved.
//
// The same worlds pin the planes the report digest leaves out on purpose
// (attaching a detector must not change it): every config that attaches
// the detector has a plane digest in testdata/golden_plane_digests.json.
func TestGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation skipped in -short mode")
	}
	var mu sync.Mutex
	planes := map[string]string{}
	run := func(j SweepJob) (sweep.Result, error) {
		s := Run(j.Cfg)
		if j.Cfg.Detector != nil {
			d := planeDigest(s)
			mu.Lock()
			planes[j.ID] = d
			mu.Unlock()
		}
		return sweepResult(s), nil
	}
	m, err := sweep.Run(goldenJobs(), run, SweepOptions{Workers: runtime.NumCPU()})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, rec := range m.Jobs {
		if rec.Err != "" {
			t.Fatalf("golden job %s failed: %s", rec.ID, rec.Err)
		}
		got[rec.ID] = rec.Digest
		if rec.Values["tables"] != 33 {
			t.Errorf("golden job %s rendered %v tables, want 33", rec.ID, rec.Values["tables"])
		}
	}
	if len(planes) != 3 {
		t.Errorf("%d golden configs attach the detector, want 3", len(planes))
	}
	checkDigests(t, goldenPath, got)
	checkDigests(t, goldenPlanePath, planes)
}

// checkDigests compares got against the digests stored at path, naming
// every config that drifted, or rewrites the file under -update.
func checkDigests(t *testing.T, path string, got map[string]string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d digests", path, len(got))
		return
	}

	want := readDigests(t, path)
	var names []string
	for name := range want {
		names = append(names, name)
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		w, inWant := want[name]
		g, inGot := got[name]
		switch {
		case !inWant:
			t.Errorf("%s: new config not in %s (run with -update)", name, path)
		case !inGot:
			t.Errorf("%s: config in %s no longer produced by goldenJobs (run with -update)", name, path)
		case g != w:
			t.Errorf("%s: %s digest drift\n  want %s\n  got  %s\n(simulation output changed; if intended, run `go test -run TestGoldenDigests -update`)",
				name, path, w, g)
		}
	}
}

// planeDigest hashes what a world's detector planes report: the full
// detect.Summary (alarm log, per-lane tallies, rankings, scanner
// estimate), the time-integrity summary and its evaluation, each dumped
// field by field with every float as its bits, then the detect, vector and
// time-integrity tables.
func planeDigest(s *Simulation) string {
	h := sha256.New()
	for _, v := range []any{s.Detection(), s.TimeIntegrity(), s.TimeIntegrityEval()} {
		dumpValue(h, reflect.ValueOf(v))
		h.Write([]byte{'\n'})
	}
	io.WriteString(h, report.Digest([]*Table{s.DetectReport(), s.DetectVectorReport(), s.TimeIntegrityReport()}))
	return hex.EncodeToString(h.Sum(nil))
}

// dumpValue writes v to w canonically: struct fields by name, slices with
// their length, map entries sorted by their dumped keys, floats as their
// IEEE bits and times as Unix seconds and nanoseconds.
func dumpValue(w io.Writer, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			io.WriteString(w, "nil;")
			return
		}
		dumpValue(w, v.Elem())
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(time.Time{}) {
			t := v.Interface().(time.Time)
			fmt.Fprintf(w, "%d.%09d;", t.Unix(), t.Nanosecond())
			return
		}
		io.WriteString(w, "{")
		for i := 0; i < v.NumField(); i++ {
			io.WriteString(w, v.Type().Field(i).Name+":")
			dumpValue(w, v.Field(i))
		}
		io.WriteString(w, "}")
	case reflect.Slice, reflect.Array:
		fmt.Fprintf(w, "[%d:", v.Len())
		for i := 0; i < v.Len(); i++ {
			dumpValue(w, v.Index(i))
		}
		io.WriteString(w, "]")
	case reflect.Map:
		entries := make([]string, 0, v.Len())
		for it := v.MapRange(); it.Next(); {
			var b strings.Builder
			dumpValue(&b, it.Key())
			b.WriteString("=")
			dumpValue(&b, it.Value())
			entries = append(entries, b.String())
		}
		sort.Strings(entries)
		fmt.Fprintf(w, "map[%d:%s]", len(entries), strings.Join(entries, ""))
	case reflect.Float32, reflect.Float64:
		fmt.Fprintf(w, "%x;", math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprintf(w, "%d;", v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		fmt.Fprintf(w, "%d;", v.Uint())
	case reflect.Bool:
		fmt.Fprintf(w, "%t;", v.Bool())
	case reflect.String:
		fmt.Fprintf(w, "%q;", v.String())
	default:
		panic(fmt.Sprintf("planeDigest: cannot dump a %s", v.Type()))
	}
}

// TestGoldenDigestGOMAXPROCSInvariant pins that a single scenario run's
// digest does not depend on GOMAXPROCS: the baseline corpus entry, executed
// on one processor, must reproduce the digest committed by (parallel) corpus
// runs. A world that raced on scheduler interleaving would diverge here.
func TestGoldenDigestGOMAXPROCSInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation skipped in -short mode")
	}
	want := readDigests(t, goldenPath)
	job := goldenJobs()[0]
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	res, err := SweepRunner(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Digest != want[job.ID] {
		t.Fatalf("GOMAXPROCS=1 digest for %s\n  want %s\n  got  %s", job.ID, want[job.ID], res.Digest)
	}
}
