package main

import (
	"os"
	"path/filepath"
	"testing"

	"ntpddos/internal/clitest"
	"ntpddos/internal/scenario"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

func TestRejectsBadScale(t *testing.T) {
	for _, scale := range []string{"0", "-3"} {
		clitest.ExpectUsageError(t, "-scale", "-q", "-scale", scale)
	}
}

func TestParseInts(t *testing.T) {
	got, err := parseInts("2000, 4000")
	if err != nil || len(got) != 2 || got[0] != 2000 || got[1] != 4000 {
		t.Fatalf("parseInts = %v, %v", got, err)
	}
	for _, bad := range []string{"", "x", "-1", "0"} {
		if _, err := parseInts(bad); err == nil {
			t.Errorf("parseInts(%q) accepted, want error", bad)
		}
	}
}

func TestParseFloats(t *testing.T) {
	got, err := parseFloats("0.1, 0.5,2")
	if err != nil || len(got) != 3 || got[0] != 0.1 || got[2] != 2 {
		t.Fatalf("parseFloats = %v, %v", got, err)
	}
	for _, bad := range []string{"", "zz", "0.1,zz"} {
		if _, err := parseFloats(bad); err == nil {
			t.Errorf("parseFloats(%q) accepted, want error", bad)
		}
	}
}

// TestBuildSpecMatchesFlags pins the flags → Spec → Grid path: the CLI must
// expand exactly the same job list a JSON job spec with the same fields
// yields, since that is what makes daemon-run sweeps comparable to CLI runs.
func TestBuildSpecMatchesFlags(t *testing.T) {
	spec, err := buildSpec(specFlags{name: "sens", seeds: "1-3", scales: "2000,4000",
		detect: "both", norem: "off", spoof: "0.25,0.5"})
	if err != nil {
		t.Fatal(err)
	}
	base := scenario.TestConfig()
	base.Scale = 2000
	g, err := spec.Grid(base)
	if err != nil {
		t.Fatal(err)
	}
	jobs := g.Jobs()
	// 3 seeds x 2 scales x detect{off,on} x spoof{0.25,0.5} = 24 jobs.
	if len(jobs) != 24 {
		t.Fatalf("grid expanded %d jobs, want 24", len(jobs))
	}
	if jobs[0].ID != "sens/scale=2000/detect=off/spoof=0.25/seed=1" {
		t.Fatalf("first job ID = %q", jobs[0].ID)
	}

	// Campaign flags land on the spec and survive Grid compilation.
	spec, err = buildSpec(specFlags{seeds: "1", vectors: "dns-any, ssdp",
		pulse: "0,0.3", carpet: "0.2", multi: "0.1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Vectors) != 2 || spec.Vectors[1] != "ssdp" ||
		len(spec.Pulse) != 2 || len(spec.Carpet) != 1 || len(spec.Multi) != 1 {
		t.Fatalf("campaign flags not compiled: %+v", spec)
	}
	g, err = spec.Grid(base)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Jobs()[1].Cfg; got.PulseWaveShare != 0.3 || len(got.ExtraVectors) != 2 {
		t.Fatalf("campaign grid config: %+v", got)
	}

	// Errors surface with the flag name attached.
	for _, bad := range []specFlags{
		{seeds: "1", scales: "x"},
		{seeds: "1", spoof: "zz"},
		{seeds: "1", hazard: "zz"},
		{seeds: "1", pulse: "zz"},
		{seeds: "1", carpet: "zz"},
		{seeds: "1", multi: "zz"},
	} {
		if _, err := buildSpec(bad); err == nil {
			t.Fatalf("flags %+v accepted, want error", bad)
		}
	}
	// Bad seeds, knob specs, vectors, and share ranges are caught at Grid
	// compile time (shared with the daemon path).
	for _, bad := range []specFlags{
		{seeds: "zz"},
		{seeds: "1", detect: "sometimes"},
		{seeds: "1", vectors: "smurf"},
		{seeds: "1", pulse: "1.5"},
	} {
		spec, err := buildSpec(bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := spec.Grid(base); err == nil {
			t.Fatalf("spec from %+v accepted at compile, want error", bad)
		}
	}
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
