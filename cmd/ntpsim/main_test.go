package main

import (
	"os"
	"path/filepath"
	"testing"

	"ntpddos/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

func TestRejectsBadScale(t *testing.T) {
	for _, scale := range []string{"0", "-4"} {
		clitest.ExpectUsageError(t, "-scale", "-scale", scale)
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
