package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"ntpddos"
	"ntpddos/internal/clitest"
	"ntpddos/internal/serve"
	"ntpddos/internal/sweep"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

func TestRejectsBadScale(t *testing.T) {
	for _, scale := range []string{"0", "-3"} {
		clitest.ExpectUsageError(t, "-scale", "-q", "-addr", "127.0.0.1:0", "-scale", scale)
	}
}

// binPath is the daemon binary built once per test run.
var (
	buildOnce sync.Once
	binPath   string
	buildErr  error
)

func daemonBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "ntpserved-test")
		if err != nil {
			buildErr = err
			return
		}
		binPath = filepath.Join(dir, "ntpserved")
		out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return binPath
}

// startDaemon launches the binary and waits for its address line.
func startDaemon(t *testing.T, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(daemonBinary(t), args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if _, addr, ok := strings.Cut(sc.Text(), "listening on "); ok {
			go io.Copy(io.Discard, stdout) // keep the pipe drained
			return cmd, strings.TrimSpace(addr)
		}
	}
	cmd.Process.Kill()
	cmd.Wait()
	t.Fatalf("daemon exited without an address line (scan err: %v)", sc.Err())
	return nil, ""
}

func getStatus(t *testing.T, base, id string) (serve.JobStatus, error) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		return serve.JobStatus{}, err
	}
	defer resp.Body.Close()
	var st serve.JobStatus
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return st, fmt.Errorf("status %d: %s", resp.StatusCode, b)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

func waitTerminal(t *testing.T, base, id string, timeout time.Duration) serve.JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, err := getStatus(t, base, id)
		if err == nil && st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s not terminal after %v (last: %+v, err %v)", id, timeout, st, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// TestEndToEnd is the daemon determinism proof on a real socket: a tiny
// two-seed job submitted over HTTP must produce a manifest byte-identical
// to the same spec executed in-process on the sweep engine.
func TestEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation skipped in -short mode")
	}
	_, base := startDaemon(t, "-addr", "127.0.0.1:0", "-q")

	specJSON := `{"seeds":"1-2","scale":4000,"end":"2014-01-17"}`
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	var st serve.JobStatus
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}

	fin := waitTerminal(t, base, st.ID, 3*time.Minute)
	if fin.State != serve.StateDone {
		t.Fatalf("job ended %s: %s", fin.State, fin.Error)
	}

	// The same spec, straight on the engine.
	var spec sweep.Spec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		t.Fatal(err)
	}
	jobs, err := spec.Jobs(ntpddos.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := ntpddos.Sweep(jobs, ntpddos.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fin.Digest != want.Digest() {
		t.Errorf("daemon digest %s != in-process %s", fin.Digest, want.Digest())
	}

	rresp, err := http.Get(base + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(rresp.Body)
	rresp.Body.Close()
	if !bytes.Equal(got, want.CanonicalJSON()) {
		t.Error("HTTP manifest bytes differ from in-process canonical JSON")
	}
}

// TestGracefulDrain sends SIGTERM mid-job and requires the documented
// sequence: /healthz flips to 503 while status still answers, the running
// job finishes, and the process exits 0.
func TestGracefulDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation skipped in -short mode")
	}
	cmd, base := startDaemon(t, "-addr", "127.0.0.1:0", "-q")

	resp, err := http.Post(base+"/v1/jobs", "application/json",
		strings.NewReader(`{"seeds":"1","scale":4000,"end":"2014-01-17"}`))
	if err != nil {
		t.Fatal(err)
	}
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Wait until the job is actually executing, then signal.
	deadline := time.Now().Add(time.Minute)
	for {
		cur, err := getStatus(t, base, st.ID)
		if err == nil && cur.State == serve.StateRunning {
			break
		}
		if err == nil && cur.State.Terminal() {
			t.Fatalf("job finished before SIGTERM could interrupt: %+v", cur)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started (last err %v)", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Open the progress stream before signaling: it rides out the drain and
	// delivers the job's terminal state even as the listener closes behind it.
	wresp, err := http.Get(base + "/v1/jobs/" + st.ID + "/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer wresp.Body.Close()

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	// Readiness flips to 503 while the API keeps answering.
	deadline = time.Now().Add(10 * time.Second)
	for {
		hresp, err := http.Get(base + "/healthz")
		if err == nil {
			hresp.Body.Close()
			if hresp.StatusCode == http.StatusServiceUnavailable {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("/healthz never flipped to 503 after SIGTERM")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if cur, err := getStatus(t, base, st.ID); err != nil {
		t.Fatalf("status endpoint stopped answering during drain: %v", err)
	} else if cur.State != serve.StateRunning && !cur.State.Terminal() {
		t.Fatalf("unexpected state during drain: %+v", cur)
	}

	// Completion-then-exit: the stream's final update is the job landing.
	var fin serve.JobStatus
	sc := bufio.NewScanner(wresp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &fin); err != nil {
			t.Fatalf("bad watch line %q: %v", sc.Text(), err)
		}
	}
	if fin.State != serve.StateDone {
		t.Fatalf("job ended %s after drain: %s (scan err %v)", fin.State, fin.Error, sc.Err())
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exited non-zero after drain: %v", err)
	}
}

// TestKillAndResume is the crash-safety acceptance check: a daemon
// SIGKILLed mid-job leaves a checkpoint from which a fresh process resumes
// the job, and the recovered manifest digest matches an uninterrupted
// in-process run of the same spec.
func TestKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation skipped in -short mode")
	}
	dir := t.TempDir()
	specJSON := `{"seeds":"1-3","scale":4000,"end":"2014-01-17"}`

	cmd, base := startDaemon(t, "-addr", "127.0.0.1:0", "-q",
		"-checkpoint-dir", dir, "-workers", "1")
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Wait for at least one landed sub-job (checkpointed), then pull the plug
	// with the job still in flight.
	deadline := time.Now().Add(3 * time.Minute)
	for {
		cur, err := getStatus(t, base, st.ID)
		if err == nil && cur.Progress.Completed >= 1 && !cur.State.Terminal() {
			break
		}
		if err == nil && cur.State.Terminal() {
			t.Fatalf("job finished before SIGKILL could interrupt: %+v", cur)
		}
		if time.Now().After(deadline) {
			t.Fatalf("no sub-job landed in time (last %+v, err %v)", cur, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	if _, err := os.Stat(filepath.Join(dir, st.ID+".ckpt")); err != nil {
		t.Fatalf("no checkpoint survived the kill: %v", err)
	}

	// A fresh process on the same checkpoint dir resumes and finishes the job.
	_, base2 := startDaemon(t, "-addr", "127.0.0.1:0", "-q",
		"-checkpoint-dir", dir, "-workers", "1")
	fin := waitTerminal(t, base2, st.ID, 3*time.Minute)
	if fin.State != serve.StateDone || !fin.Recovered {
		t.Fatalf("resumed job = %+v, want recovered done", fin)
	}

	var spec sweep.Spec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		t.Fatal(err)
	}
	jobs, err := spec.Jobs(ntpddos.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := ntpddos.Sweep(jobs, ntpddos.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fin.Digest != want.Digest() {
		t.Errorf("resumed digest %s != uninterrupted %s", fin.Digest, want.Digest())
	}
	// The finished job's checkpoint is gone.
	if _, err := os.Stat(filepath.Join(dir, st.ID+".ckpt")); !os.IsNotExist(err) {
		t.Errorf("checkpoint survived completion: %v", err)
	}
}

func TestVersionFlag(t *testing.T) {
	out, err := exec.Command(daemonBinary(t), "-version").CombinedOutput()
	if err != nil {
		t.Fatalf("-version: %v\n%s", err, out)
	}
	if !strings.HasPrefix(string(out), "ntpserved ") || !strings.Contains(string(out), "go1") {
		t.Fatalf("-version output = %q", out)
	}
}
