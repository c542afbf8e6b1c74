package profiling

import (
	"os"
	"path/filepath"
	"testing"
)

func TestStartWritesBothProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	p := Profiles{cpu: &cpu, mem: &mem}
	stop, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	stop()
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: %v, want a non-empty profile", path, err)
		}
	}
}

func TestStartWithoutFlagsIsNoop(t *testing.T) {
	var none string
	stop, err := Profiles{cpu: &none, mem: &none}.Start()
	if err != nil {
		t.Fatal(err)
	}
	stop()
}

func TestStartReportsUnwritableCPUProfile(t *testing.T) {
	bad, none := filepath.Join(t.TempDir(), "missing", "cpu.pprof"), ""
	if _, err := (Profiles{cpu: &bad, mem: &none}).Start(); err == nil {
		t.Fatal("Start accepted an uncreatable CPU profile path")
	}
}
