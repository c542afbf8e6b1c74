// Package profiling gives the simulation commands the same -cpuprofile and
// -memprofile flags (stdlib runtime/pprof), so where a run's time and memory
// go can be read with `go tool pprof -top` outside any benchmark harness.
// Usage in a main:
//
//	prof := profiling.Flags()
//	flag.Parse()
//	stop, err := prof.Start()
//	if err != nil { ... }
//	defer stop()
package profiling

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profiles holds the profile destinations the flags name.
type Profiles struct {
	cpu, mem *string
}

// Flags registers -cpuprofile and -memprofile on the default flag set. Call
// before flag.Parse.
func Flags() Profiles {
	return Profiles{
		cpu: flag.String("cpuprofile", "", "write a CPU profile of the run to this file"),
		mem: flag.String("memprofile", "", "write a heap profile to this file when the run ends"),
	}
}

// Start begins the CPU profile, if one was asked for. The returned stop
// ends it and writes the heap profile; it reports failures on stderr, since
// the run's own output is already complete by then.
func (p Profiles) Start() (stop func(), err error) {
	var cpu *os.File
	if *p.cpu != "" {
		if cpu, err = os.Create(*p.cpu); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			report(cpu.Close())
		}
		if *p.mem != "" {
			report(writeHeap(*p.mem))
		}
	}, nil
}

// writeHeap writes a heap profile as of the last completed GC cycle, after
// forcing one so the profile is current.
func writeHeap(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func report(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "profiling: %v\n", err)
	}
}
