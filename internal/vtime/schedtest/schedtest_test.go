package schedtest

import (
	"math/rand"
	"testing"

	"ntpddos/internal/vtime"
)

// compare replays program against both scheduler implementations and fails
// at the first trace divergence.
func compare(t *testing.T, program []byte) {
	t.Helper()
	cal := Replay(vtime.NewScheduler, program)
	ref := Replay(vtime.NewHeapScheduler, program)
	if i := Diff(cal, ref); i >= 0 {
		calLine, refLine := "<missing>", "<missing>"
		if i < len(cal) {
			calLine = cal[i]
		}
		if i < len(ref) {
			refLine = ref[i]
		}
		t.Fatalf("trace diverges at %d (of %d/%d):\n  calendar: %s\n  heap:     %s\nprogram: %x",
			i, len(cal), len(ref), calLine, refLine, program)
	}
}

// TestSchedulerEquivalenceSeeded property-tests the calendar queue against
// the reference heap on generated workloads. Seeds are fixed so a failure
// reproduces; the fuzz target below explores beyond them.
func TestSchedulerEquivalenceSeeded(t *testing.T) {
	rounds, size := 200, 512
	if testing.Short() {
		rounds = 40
	}
	for seed := 0; seed < rounds; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		program := make([]byte, size)
		r.Read(program)
		compare(t, program)
	}
}

// TestSchedulerEquivalenceTies hammers the tie-breaking path: op 7 bursts
// with zero deltas put every event at the same instant, where only the
// sequence number separates them.
func TestSchedulerEquivalenceTies(t *testing.T) {
	var program []byte
	for i := 0; i < 64; i++ {
		// op 7 (same-instant burst), delta bytes 0,0, burst-size byte.
		program = append(program, 7, 0, 0, byte(i))
		if i%8 == 0 {
			program = append(program, 5, 1, 20) // RunUntil to interleave
		}
	}
	program = append(program, 6) // Drain
	compare(t, program)
}

// TestSchedulerEquivalenceOverflow forces events past the calendar wheel's
// ~69s window so the overflow heap and window rebase are on the compared
// path.
func TestSchedulerEquivalenceOverflow(t *testing.T) {
	var program []byte
	for i := 0; i < 32; i++ {
		program = append(program, 0, byte(i+1), 32) // delta = (i+1)<<32 ns, beyond the window
		program = append(program, 0, byte(i), byte(i%33))
	}
	program = append(program, 6)
	compare(t, program)
}

func FuzzSchedulerEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 0, 0, 3, 6})                   // same-instant burst, then drain
	f.Add([]byte{3, 0, 0, 10, 3, 6})               // periodic timer
	f.Add([]byte{4, 0, 0, 0, 0, 0, 4, 0, 0, 6})    // same-instant After ties with an interleaved At
	f.Add([]byte{0, 255, 32, 0, 0, 0, 5, 255, 32}) // overflow + rebase
	f.Fuzz(func(t *testing.T, program []byte) {
		if len(program) > 4096 {
			program = program[:4096]
		}
		compare(t, program)
	})
}
