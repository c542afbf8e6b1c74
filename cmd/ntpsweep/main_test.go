package main

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ntpddos/internal/clitest"
	"ntpddos/internal/scenario"
	"ntpddos/internal/sweep"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

func TestRejectsBadScale(t *testing.T) {
	for _, scale := range []string{"0", "-3"} {
		clitest.ExpectUsageError(t, "-scale", "-q", "-scale", scale)
	}
}

// parseSpec parses args through the knob table's ntpsweep flags.
func parseSpec(args ...string) (sweep.Spec, error) {
	fs := flag.NewFlagSet("ntpsweep", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var spec sweep.Spec
	spec.Flags(fs, false)
	return spec, fs.Parse(args)
}

// rejectsAtCompile checks that each argv parses but its spec fails Grid
// compilation, the check shared with the daemon path.
func rejectsAtCompile(t *testing.T, argvs ...[]string) {
	t.Helper()
	base := scenario.TestConfig()
	for _, args := range argvs {
		spec, err := parseSpec(args...)
		if err != nil {
			t.Fatalf("flags %v: %v", args, err)
		}
		if _, err := spec.Grid(base); err == nil {
			t.Errorf("spec from %v accepted at compile, want error", args)
		}
	}
}

// rejectsAtParse checks that each argv is a flag parse error.
func rejectsAtParse(t *testing.T, argvs ...[]string) {
	t.Helper()
	for _, args := range argvs {
		if _, err := parseSpec(args...); err == nil {
			t.Errorf("flags %v parsed, want error", args)
		}
	}
}

// TestParseInts pins the integer list flags: comma lists with blanks
// trimmed parse in order, garbage is a parse error, and non-positive
// scales and strides are rejected at compile.
func TestParseInts(t *testing.T) {
	spec, err := parseSpec("-scales", "2000, 4000", "-sample", "1,,16", "-timesync", "8")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Scales, []int{2000, 4000}) || !reflect.DeepEqual(spec.Sample, []int{1, 16}) ||
		spec.TimeSync != 8 {
		t.Fatalf("int flags = scales %v sample %v timesync %d", spec.Scales, spec.Sample, spec.TimeSync)
	}
	rejectsAtParse(t, []string{"-scales", "x"}, []string{"-scales", "2000,x"},
		[]string{"-sample", "1.5"}, []string{"-timesync", "x"})
	rejectsAtCompile(t, []string{"-scales", "-1"}, []string{"-scales", "0"}, []string{"-sample", "0"})
}

// TestParseFloats pins the float list flags: comma lists with blanks
// trimmed parse in order, and garbage anywhere in a list is a parse error.
func TestParseFloats(t *testing.T) {
	spec, err := parseSpec("-hazard", "0.1, 0.5,2", "-spoof", "0.25,")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Hazard, []float64{0.1, 0.5, 2}) || !reflect.DeepEqual(spec.Spoof, []float64{0.25}) {
		t.Fatalf("float flags = hazard %v spoof %v", spec.Hazard, spec.Spoof)
	}
	rejectsAtParse(t, []string{"-spoof", "zz"}, []string{"-hazard", "zz"}, []string{"-pulse", "zz"},
		[]string{"-carpet", "zz"}, []string{"-multi", "0.1,zz"}, []string{"-loss", "zz"})
}

// TestBuildSpecMatchesFlags pins the flags → Spec → jobs path: argv parsed
// through the knob table's flags must expand exactly the job list the same
// spec decoded from JSON yields, since that is what makes daemon-run sweeps
// comparable to CLI runs.
func TestBuildSpecMatchesFlags(t *testing.T) {
	base := scenario.TestConfig()
	base.Scale = 2000
	for _, c := range []struct {
		args []string
		json string
	}{
		{[]string{"-name", "sens", "-seeds", "1-3", "-scales", "2000,4000", "-detect", "both",
			"-noremediation", "off", "-spoof", "0.25,0.5"},
			`{"name":"sens","seeds":"1-3","scales":[2000,4000],"detect":"both","noremediation":"off","spoof":[0.25,0.5]}`},
		{[]string{"-vectors", "dns-any, ssdp", "-pulse", "0,0.3", "-carpet", "0.2", "-multi", "0.1",
			"-hazard", "0.5,2", "-noremediation", "both", "-end", "2014-01-17"},
			`{"seeds":"1","vectors":["dns-any","ssdp"],"pulse":[0,0.3],"carpet":[0.2],"multi":[0.1],` +
				`"hazard":[0.5,2],"noremediation":"both","end":"2014-01-17"}`},
		{[]string{"-seeds", "2", "-loss", "0,0.1", "-dup", "0.05", "-reorder", "0.02", "-flap", "0.25",
			"-sample", "1,16", "-outage", "0.5", "-blackout", "0.3", "-timesync", "8", "-timeattack", "0,0.5"},
			`{"seeds":"2","loss":[0,0.1],"dup":[0.05],"reorder":[0.02],"flap":[0.25],"sample":[1,16],` +
				`"outage":[0.5],"blackout":[0.3],"timesync":8,"timeattack":[0,0.5]}`},
	} {
		fromFlags, err := parseSpec(c.args...)
		if err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		var fromJSON sweep.Spec
		if err := json.Unmarshal([]byte(c.json), &fromJSON); err != nil {
			t.Fatal(err)
		}
		a, err := fromFlags.Jobs(base)
		if err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		b, err := fromJSON.Jobs(base)
		if err != nil {
			t.Fatalf("%s: %v", c.json, err)
		}
		if len(a) != len(b) || len(a) < 2 {
			t.Fatalf("%v: %d jobs from flags, %d from JSON", c.args, len(a), len(b))
		}
		for i := range a {
			if a[i].ID != b[i].ID || !reflect.DeepEqual(a[i].Params, b[i].Params) ||
				!reflect.DeepEqual(a[i].Cfg, b[i].Cfg) {
				t.Fatalf("%v: job %d differs:\nflags %s %v %+v\njson  %s %v %+v", c.args, i,
					a[i].ID, a[i].Params, a[i].Cfg, b[i].ID, b[i].Params, b[i].Cfg)
			}
		}
	}
	// 3 seeds x 2 scales x detect{off,on} x spoof{0.25,0.5} = 24 jobs.
	spec, _ := parseSpec("-name", "sens", "-seeds", "1-3", "-scales", "2000,4000", "-detect", "both",
		"-spoof", "0.25,0.5")
	jobs, err := spec.Jobs(base)
	if err != nil || len(jobs) != 24 {
		t.Fatalf("grid expanded %d jobs, %v; want 24", len(jobs), err)
	}
	if jobs[0].ID != "sens/scale=2000/detect=off/spoof=0.25/seed=1" {
		t.Fatalf("first job ID = %q", jobs[0].ID)
	}
	// Bad seeds, knob words, vectors and share ranges are caught at Grid
	// compile time.
	rejectsAtCompile(t, []string{"-seeds", "zz"}, []string{"-detect", "sometimes"},
		[]string{"-vectors", "smurf"}, []string{"-pulse", "1.5"})
}

func TestProfileFlagsWriteProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	code, out := clitest.Run(t, "-q", "-seeds", "1", "-scale", "4000", "-end", "2014-01-17",
		"-out", filepath.Join(dir, "manifest.json"), "-cpuprofile", cpu, "-memprofile", mem)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, out)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: %v, want a non-empty profile", path, err)
		}
	}
}
