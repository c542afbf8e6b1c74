package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ntpddos/internal/metrics"
	"ntpddos/internal/scenario"
	"ntpddos/internal/sweep"
)

// TestCheckpointLifecycle pins the file's span: created with a header at
// admission, one record line per landed sub-job, removed once the job is
// terminal.
func TestCheckpointLifecycle(t *testing.T) {
	dir := t.TempDir()
	e, gate := newGatedEnv(t, Config{CheckpointDir: dir})
	st := e.submitOK(t, `{"seeds":"1-3"}`)
	path := filepath.Join(dir, st.ID+".ckpt")

	<-gate.entered
	h, recs, _, err := loadCheckpoint(path)
	if err != nil {
		t.Fatalf("checkpoint missing while running: %v", err)
	}
	if h.ID != st.ID || h.Spec.Seeds != "1-3" || len(recs) != 0 {
		t.Fatalf("header %+v / %d records, want submitted spec and no records yet", h, len(recs))
	}
	gate.open()
	e.waitState(t, st.ID, StateDone)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("checkpoint file survived job completion")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRecoveryResumesFromCheckpoint is the kill-and-resume contract at the
// package level: a checkpoint holding a subset of a job's records is
// re-admitted at startup, only the missing sub-jobs execute, and the
// recovered manifest is byte-identical to an uninterrupted run.
func TestRecoveryResumesFromCheckpoint(t *testing.T) {
	base := scenario.Config{Scale: 1000}
	spec := JobSpec{Spec: sweep.Spec{Seeds: "1-4"}}
	jobs, err := spec.Jobs(base)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := sweep.Run(jobs, syntheticRunner, sweep.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	// A previous process completed sub-jobs 0 and 2, then died — torn final
	// line included, as a SIGKILL mid-write would leave it.
	dir := t.TempDir()
	ck, err := newCheckpoint(filepath.Join(dir, "j000007.ckpt"), ckptHeader{
		ID: "j000007", Client: "addr:test", Spec: spec,
		Submitted: time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC),
	})
	if err != nil {
		t.Fatal(err)
	}
	ck.append(clean.Jobs[0])
	ck.append(clean.Jobs[2])
	ck.close()
	f, err := os.OpenFile(filepath.Join(dir, "j000007.ckpt"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"index":3,"id":"se`) // torn mid-record
	f.Close()

	var mu sync.Mutex
	ran := map[string]bool{}
	counting := func(j sweep.Job) (sweep.Result, error) {
		mu.Lock()
		ran[j.ID] = true
		mu.Unlock()
		return syntheticRunner(j)
	}
	e := newEnv(t, Config{Base: base, Runner: counting, CheckpointDir: dir})
	st := e.waitState(t, "j000007", StateDone)
	if !st.Recovered {
		t.Fatalf("status = %+v, want Recovered", st)
	}
	if st.Digest != clean.Digest() {
		t.Fatalf("recovered digest %s != uninterrupted %s", st.Digest, clean.Digest())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ran) != 2 || ran[jobs[0].ID] || ran[jobs[2].ID] {
		t.Fatalf("ran %v, want only the two missing sub-jobs", ran)
	}
	// New submissions continue past the recovered sequence number.
	st2 := e.submitOK(t, `{"seeds":"1"}`)
	if seqOf(st2.ID) <= 7 {
		t.Fatalf("new job %s did not advance past recovered j000007", st2.ID)
	}
}

// TestRetriesSurfaceInStatus pins the self-healing accounting: a sub-job
// that fails twice then heals reports its retries in the job-status API and
// on the sweep retry counter.
func TestRetriesSurfaceInStatus(t *testing.T) {
	var mu sync.Mutex
	attempts := map[string]int{}
	flaky := func(j sweep.Job) (sweep.Result, error) {
		mu.Lock()
		attempts[j.ID]++
		n := attempts[j.ID]
		mu.Unlock()
		if strings.HasSuffix(j.ID, "seed=2") && n < 3 {
			return sweep.Result{}, fmt.Errorf("injected fault %d", n)
		}
		return syntheticRunner(j)
	}
	reg := metrics.NewRegistry()
	e := newEnv(t, Config{Runner: flaky, MaxRetries: 3, Registry: reg})
	st := e.submitOK(t, `{"seeds":"1-3"}`)
	final := e.waitState(t, st.ID, StateDone)
	if final.Retries != 2 {
		t.Fatalf("status retries = %d, want 2", final.Retries)
	}
	if final.Error != "" {
		t.Fatalf("healed job kept error %q", final.Error)
	}
	if got := e.d.swMet.JobsRetried.Value(); got != 2 {
		t.Fatalf("ntpsweep_jobs_retried_total = %d, want 2", got)
	}
}

// TestDrainKeepsCheckpoints pins the restart handshake: files of jobs
// interrupted by a drain (queued or running) survive for the next process.
func TestDrainKeepsCheckpoints(t *testing.T) {
	dir := t.TempDir()
	e, gate := newGatedEnv(t, Config{CheckpointDir: dir, QueueDepth: 4})
	running := e.submitOK(t, `{"seeds":"1-2"}`)
	<-gate.entered
	queued := e.submitOK(t, `{"seeds":"3-4"}`)

	// Sub-jobs unblock only after the drain deadline cancels the running
	// job's context; then the sweep unwinds with its partial manifest.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	go func() {
		<-ctx.Done()
		time.Sleep(10 * time.Millisecond)
		gate.open()
	}()
	if err := e.d.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Drain = %v, want context.DeadlineExceeded", err)
	}
	e.waitFor(t, running.ID, "terminal", func(st JobStatus) bool { return st.State.Terminal() })

	for _, id := range []string{running.ID, queued.ID} {
		if _, err := os.Stat(filepath.Join(dir, id+".ckpt")); err != nil {
			t.Fatalf("checkpoint for %s gone after drain: %v", id, err)
		}
	}
}
