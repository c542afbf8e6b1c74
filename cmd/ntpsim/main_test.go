package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ntpddos/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

func TestRejectsBadScale(t *testing.T) {
	for _, scale := range []string{"0", "-4"} {
		clitest.ExpectUsageError(t, "-scale", "-scale", scale)
	}
}

// TestRejectsBadKnobs checks that knob values the world cannot run are
// usage errors naming the knob and value, before any world is built. The
// -pcap rows run a quick world, so a missed check still ends in seconds.
func TestRejectsBadKnobs(t *testing.T) {
	file := filepath.Join(t.TempDir(), "capture.pcap")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	quick := []string{"-quick", "-scale", "4000", "-pcap"}
	for _, c := range []struct {
		want string
		args []string
	}{
		{"timeattack[0] 1.5", []string{"-timesync", "8", "-timeattack", "1.5"}},
		{"timeattack[0] -0.5", []string{"-timesync", "8", "-timeattack", "-0.5"}},
		{"timesync -4", []string{"-timesync", "-4"}},
		{"loss[0] 1", []string{"-loss", "1"}},
		{"sample[0] 0", []string{"-sample", "0"}},
		{"-loss expands to 2 worlds", []string{"-loss", "0.1,0.2"}},
		{"-pcap", append(quick, filepath.Join(t.TempDir(), "missing"))},
		{"-pcap", append(quick, file)},
	} {
		clitest.ExpectUsageError(t, c.want, c.args...)
	}
}

func TestRejectsUnknownExperimentBeforeRun(t *testing.T) {
	code, out := clitest.Run(t, "-quick", "-scale", "4000", "-experiment", "nope")
	if code != 2 || !strings.Contains(out, `"nope"`) || strings.Contains(out, "running") {
		t.Errorf("exit %d, output %q; want exit 2 naming the experiment before any run", code, out)
	}
}

func TestProfileFlagsWriteProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	if code, out := clitest.Run(t, "-list", "-cpuprofile", cpu, "-memprofile", mem); code != 0 {
		t.Fatalf("exit %d: %s", code, out)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: %v, want a non-empty profile", path, err)
		}
	}
}
