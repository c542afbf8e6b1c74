package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ntpddos/internal/metrics"
	"ntpddos/internal/scenario"
	"ntpddos/internal/sweep"
)

// syntheticRunner is deterministic per job ID and instant — the daemon's
// lifecycle machinery can be exercised without simulating any worlds.
func syntheticRunner(j sweep.Job) (sweep.Result, error) {
	return sweep.Result{
		Digest: "digest:" + j.ID,
		Values: map[string]float64{"len": float64(len(j.ID)), "seed": float64(j.Cfg.Seed)},
	}, nil
}

// gateRunner blocks every sub-job until the gate opens, and reports entry
// on entered — the lever for queued/running/drain tests.
type gateRunner struct {
	entered chan string
	release chan struct{}
	once    sync.Once
}

func (g *gateRunner) run(j sweep.Job) (sweep.Result, error) {
	g.entered <- j.ID
	<-g.release
	return sweep.Result{Digest: "digest:" + j.ID}, nil
}

// open lets every blocked and future sub-job finish; later calls are no-ops.
func (g *gateRunner) open() { g.once.Do(func() { close(g.release) }) }

// newGatedEnv is newEnv with cfg.Runner blocked on a fresh gate. The gate
// opens at cleanup before newEnv's drain runs (cleanups run last-registered
// first), so a test that fails with sub-jobs still blocked cannot leave
// Drain waiting on them and hang the package.
func newGatedEnv(t *testing.T, cfg Config) (*env, *gateRunner) {
	t.Helper()
	// entered holds more entries than any test has sub-jobs, so reporting
	// entry never blocks a sub-job a test does not wait for.
	g := &gateRunner{entered: make(chan string, 64), release: make(chan struct{})}
	cfg.Runner = g.run
	e := newEnv(t, cfg)
	t.Cleanup(g.open)
	return e, g
}

type env struct {
	d   *Daemon
	srv *httptest.Server
}

func newEnv(t *testing.T, cfg Config) *env {
	t.Helper()
	if cfg.Runner == nil {
		cfg.Runner = syntheticRunner
	}
	if cfg.WatchInterval == 0 {
		cfg.WatchInterval = 10 * time.Millisecond
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	d.Start()
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		d.Drain(ctx) // idempotent enough: already-draining is fine here
	})
	return &env{d: d, srv: srv}
}

func (e *env) submit(t *testing.T, body string, hdr ...string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", e.srv.URL+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	resp, err := e.srv.Client().Do(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp, b
}

func (e *env) submitOK(t *testing.T, body string) JobStatus {
	t.Helper()
	resp, b := e.submit(t, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202; body: %s", resp.StatusCode, b)
	}
	var st JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatalf("decode submit response: %v", err)
	}
	if st.ID == "" || st.State != StateQueued {
		t.Fatalf("submit response = %+v, want queued with ID", st)
	}
	return st
}

func (e *env) status(t *testing.T, id string) JobStatus {
	t.Helper()
	resp, err := e.srv.Client().Get(e.srv.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %s = %d: %s", id, resp.StatusCode, b)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	return st
}

// waitFor polls a job's status until pred holds.
func (e *env) waitFor(t *testing.T, id string, what string, pred func(JobStatus) bool) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := e.status(t, id)
		if pred(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached %s; last status: %+v", id, what, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (e *env) waitState(t *testing.T, id string, want State) JobStatus {
	t.Helper()
	return e.waitFor(t, id, string(want), func(st JobStatus) bool {
		if st.State.Terminal() && st.State != want {
			t.Fatalf("job %s reached terminal %s (err=%q), want %s", id, st.State, st.Error, want)
		}
		return st.State == want
	})
}

// TestSubmitToResultDigestParity is the tentpole acceptance check at the
// package level: the manifest fetched over HTTP is byte-identical to the
// same spec run directly on the sweep engine, regardless of the daemon's
// worker count.
func TestSubmitToResultDigestParity(t *testing.T) {
	base := scenario.Config{Scale: 1000}
	spec := sweep.Spec{
		Name:   "parity",
		Seeds:  "1-3",
		Scales: []int{100, 200},
		Spoof:  []float64{0.1, 0.25},
	}
	jobs, err := spec.Jobs(base)
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	want, err := sweep.Run(jobs, syntheticRunner, sweep.Options{Workers: 2})
	if err != nil {
		t.Fatalf("in-process sweep: %v", err)
	}

	for _, workers := range []int{1, 4} {
		e := newEnv(t, Config{Base: base, Workers: workers})
		body, _ := json.Marshal(JobSpec{Spec: spec})
		st := e.submitOK(t, string(body))
		fin := e.waitState(t, st.ID, StateDone)
		if fin.Digest != want.Digest() {
			t.Errorf("workers=%d: digest %s != in-process %s", workers, fin.Digest, want.Digest())
		}
		if fin.Progress.Completed != len(jobs) || fin.Progress.Total != len(jobs) {
			t.Errorf("workers=%d: progress %+v, want %d/%d", workers, fin.Progress, len(jobs), len(jobs))
		}

		resp, err := e.srv.Client().Get(e.srv.URL + "/v1/jobs/" + st.ID + "/result")
		if err != nil {
			t.Fatalf("result: %v", err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !bytes.Equal(got, want.CanonicalJSON()) {
			t.Errorf("workers=%d: HTTP manifest bytes differ from in-process canonical JSON", workers)
		}

		resp, err = e.srv.Client().Get(e.srv.URL + "/v1/jobs/" + st.ID + "/result?format=csv")
		if err != nil {
			t.Fatalf("result csv: %v", err)
		}
		csv, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
			t.Errorf("csv content type = %q", ct)
		}
		if string(csv) != want.JobTable().CSV() {
			t.Errorf("workers=%d: CSV differs from in-process JobTable", workers)
		}
	}
}

func TestListAndStatusLifecycle(t *testing.T) {
	e := newEnv(t, Config{})
	a := e.submitOK(t, `{"seeds":"1,2"}`)
	b := e.submitOK(t, `{"seeds":"3"}`)
	e.waitState(t, a.ID, StateDone)
	e.waitState(t, b.ID, StateDone)

	resp, err := e.srv.Client().Get(e.srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	defer resp.Body.Close()
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatalf("decode list: %v", err)
	}
	if len(list.Jobs) != 2 || list.Jobs[0].ID != a.ID || list.Jobs[1].ID != b.ID {
		t.Fatalf("list = %+v, want [%s %s] oldest first", list.Jobs, a.ID, b.ID)
	}
	for _, st := range list.Jobs {
		if st.State != StateDone || st.Digest == "" || st.Started == nil || st.Finished == nil {
			t.Errorf("listed job %s incomplete: %+v", st.ID, st)
		}
	}
}

// TestAdmissionSaturatedQueue is the acceptance admission check: past the
// bounded queue, submissions get 429 with a Retry-After estimate, and the
// refused job leaves no residue in the store.
func TestAdmissionSaturatedQueue(t *testing.T) {
	e, g := newGatedEnv(t, Config{Concurrency: 1, QueueDepth: 1, Registry: metrics.NewRegistry()})

	running := e.submitOK(t, `{"seeds":"1"}`)
	e.waitState(t, running.ID, StateRunning)
	<-g.entered

	queued := e.submitOK(t, `{"seeds":"2"}`)

	resp, body := e.submit(t, `{"seeds":"3"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit = %d, want 429; body: %s", resp.StatusCode, body)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatalf("429 without Retry-After header")
	}
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want integer seconds >= 1", ra)
	}
	if !strings.Contains(string(body), "saturated") {
		t.Errorf("429 body missing reason: %s", body)
	}

	// The refused job must not appear in the list.
	resp2, err := e.srv.Client().Get(e.srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	json.NewDecoder(resp2.Body).Decode(&list)
	resp2.Body.Close()
	if len(list.Jobs) != 2 {
		t.Fatalf("store holds %d jobs after refusal, want 2", len(list.Jobs))
	}

	g.open()
	e.waitState(t, running.ID, StateDone)
	e.waitState(t, queued.ID, StateDone)

	if text := e.d.cfg.Registry.RenderText(); !strings.Contains(text,
		`ntpserved_admission_rejected_total{reason="saturated"} 1`) {
		t.Error("saturated rejection not counted in /metrics")
	}
}

func TestRateLimitPerClient(t *testing.T) {
	e := newEnv(t, Config{Rate: 0.001, Burst: 1})

	resp, body := e.submit(t, `{"seeds":"1"}`, "X-API-Key", "tenant-a")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d: %s", resp.StatusCode, body)
	}
	resp, body = e.submit(t, `{"seeds":"2"}`, "X-API-Key", "tenant-a")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit = %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("rate-limit 429 without Retry-After")
	}
	if !strings.Contains(string(body), "ratelimit") {
		t.Errorf("429 body missing reason: %s", body)
	}
	// A different tenant has its own bucket.
	resp, body = e.submit(t, `{"seeds":"3"}`, "Authorization", "Bearer tenant-b")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other tenant submit = %d, want 202: %s", resp.StatusCode, body)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	e, g := newGatedEnv(t, Config{Concurrency: 1, QueueDepth: 2})

	running := e.submitOK(t, `{"seeds":"1"}`)
	e.waitState(t, running.ID, StateRunning)
	<-g.entered
	queued := e.submitOK(t, `{"seeds":"2"}`)

	cresp, err := e.srv.Client().Post(e.srv.URL+"/v1/jobs/"+queued.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatalf("cancel: %v", err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel queued = %d, want 202", cresp.StatusCode)
	}
	st := e.status(t, queued.ID)
	if st.State != StateCanceled || !strings.Contains(st.Error, "queued") {
		t.Fatalf("canceled queued job status = %+v", st)
	}

	g.open()
	e.waitState(t, running.ID, StateDone)
	// The worker must skip the canceled job, not resurrect it.
	if st := e.status(t, queued.ID); st.State != StateCanceled {
		t.Fatalf("canceled job resurrected: %+v", st)
	}
}

func TestCancelRunningJobYieldsPartialManifest(t *testing.T) {
	e, g := newGatedEnv(t, Config{Concurrency: 1})

	// workers=1 so exactly one sub-job is in flight when we cancel.
	st := e.submitOK(t, `{"seeds":"1-4","workers":1}`)
	e.waitState(t, st.ID, StateRunning)
	<-g.entered // sub-job 1 executing; dispatcher blocked on sub-job 2

	cresp, err := e.srv.Client().Post(e.srv.URL+"/v1/jobs/"+st.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatalf("cancel: %v", err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel running = %d, want 202", cresp.StatusCode)
	}
	g.open()

	fin := e.waitState(t, st.ID, StateCanceled)
	if fin.Digest == "" {
		t.Error("canceled job has no partial-manifest digest")
	}
	if fin.Error != "canceled" {
		t.Errorf("canceled job error = %q", fin.Error)
	}

	// The partial manifest downloads, and records the skipped sub-jobs.
	resp, err := e.srv.Client().Get(e.srv.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial result = %d: %s", resp.StatusCode, b)
	}
	if !strings.Contains(string(b), "canceled before start") {
		t.Errorf("partial manifest does not record skipped sub-jobs: %s", b)
	}
}

// TestDrain is the acceptance drain check: readiness flips to 503 while
// status still answers, submissions are refused, queued jobs are canceled
// with a reason, and the running job finishes before Drain returns.
func TestDrain(t *testing.T) {
	reg := metrics.NewRegistry()
	e, g := newGatedEnv(t, Config{Concurrency: 1, QueueDepth: 4, Registry: reg})

	running := e.submitOK(t, `{"seeds":"1"}`)
	e.waitState(t, running.ID, StateRunning)
	<-g.entered
	queued := e.submitOK(t, `{"seeds":"2"}`)

	drained := make(chan error, 1)
	go func() { drained <- e.d.Drain(context.Background()) }()

	// Readiness flips immediately, before any job completes.
	deadline := time.Now().Add(5 * time.Second)
	for e.d.Ready() {
		if time.Now().After(deadline) {
			t.Fatal("readiness never flipped during drain")
		}
		time.Sleep(time.Millisecond)
	}
	resp, err := e.srv.Client().Get(e.srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain = %d, want 503", resp.StatusCode)
	}

	// Status endpoints keep answering while draining.
	if st := e.status(t, running.ID); st.State != StateRunning {
		t.Fatalf("running job state during drain = %s", st.State)
	}
	// The queued job was canceled with a reason.
	qst := e.waitFor(t, queued.ID, "canceled", func(st JobStatus) bool { return st.State == StateCanceled })
	if !strings.Contains(qst.Error, "draining") {
		t.Errorf("drained queued job error = %q", qst.Error)
	}
	// New submissions are refused with 503.
	sresp, sbody := e.submit(t, `{"seeds":"3"}`)
	if sresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain = %d, want 503: %s", sresp.StatusCode, sbody)
	}

	// Release the running job; Drain completes cleanly.
	g.open()
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if st := e.status(t, running.ID); st.State != StateDone {
		t.Fatalf("running job after drain = %s, want done", st.State)
	}
	if text := reg.RenderText(); !strings.Contains(text,
		`ntpserved_admission_rejected_total{reason="draining"} 1`) {
		t.Error("draining rejection not counted in /metrics")
	}
}

// TestDrainDeadlineCheckpointsRunning: when the drain context expires, the
// running job's context is canceled so it lands a partial manifest instead
// of holding exit hostage.
func TestDrainDeadlineCheckpointsRunning(t *testing.T) {
	e, g := newGatedEnv(t, Config{Concurrency: 1})

	st := e.submitOK(t, `{"seeds":"1-3","workers":1}`)
	e.waitState(t, st.ID, StateRunning)
	<-g.entered

	// Sub-jobs unblock only after drain cancels the job's context: free the
	// gate from a goroutine once the drain deadline has certainly passed.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	go func() {
		<-ctx.Done()
		time.Sleep(10 * time.Millisecond)
		g.open()
	}()
	if err := e.d.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Drain = %v, want context.DeadlineExceeded", err)
	}
	fin := e.status(t, st.ID)
	if !fin.State.Terminal() {
		t.Fatalf("job not terminal after deadline drain: %+v", fin)
	}
	if fin.Digest == "" {
		t.Error("checkpointed job has no partial-manifest digest")
	}
}

func TestPanickingSubJobIsIsolated(t *testing.T) {
	runner := func(j sweep.Job) (sweep.Result, error) {
		if j.Cfg.Seed == 2 {
			panic("poisoned world")
		}
		return syntheticRunner(j)
	}
	e := newEnv(t, Config{Runner: runner})
	st := e.submitOK(t, `{"seeds":"1-3"}`)
	fin := e.waitState(t, st.ID, StateDone)
	if !strings.Contains(fin.Error, "1 of 3 sub-jobs failed") {
		t.Errorf("job error = %q, want failed sub-job note", fin.Error)
	}
	// The daemon survives: a fresh submission still completes.
	st2 := e.submitOK(t, `{"seeds":"5"}`)
	e.waitState(t, st2.ID, StateDone)
}

func TestPerJobTimeout(t *testing.T) {
	runner := func(j sweep.Job) (sweep.Result, error) {
		time.Sleep(200 * time.Millisecond)
		return syntheticRunner(j)
	}
	e := newEnv(t, Config{Runner: runner, Concurrency: 1})
	st := e.submitOK(t, `{"seeds":"1-3","workers":1,"timeout_s":0.05}`)
	fin := e.waitState(t, st.ID, StateFailed)
	if !strings.Contains(fin.Error, "timeout") {
		t.Errorf("timed-out job error = %q", fin.Error)
	}
	if fin.Digest == "" {
		t.Error("timed-out job has no partial-manifest digest")
	}
}

func TestWatchStreamsProgressToTerminal(t *testing.T) {
	e, g := newGatedEnv(t, Config{Concurrency: 1, WatchInterval: 5 * time.Millisecond})
	st := e.submitOK(t, `{"seeds":"1-2","workers":1}`)

	resp, err := e.srv.Client().Get(e.srv.URL + "/v1/jobs/" + st.ID + "/watch")
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/x-ndjson") {
		t.Errorf("watch content type = %q", ct)
	}
	go func() {
		<-g.entered
		g.open()
	}()
	var lines []JobStatus
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var u JobStatus
		if err := json.Unmarshal(sc.Bytes(), &u); err != nil {
			t.Fatalf("bad ndjson line %q: %v", sc.Text(), err)
		}
		lines = append(lines, u)
	}
	if len(lines) == 0 {
		t.Fatal("watch streamed no updates")
	}
	last := lines[len(lines)-1]
	if last.State != StateDone || last.Progress.Completed != 2 {
		t.Fatalf("final watch update = %+v, want done 2/2", last)
	}
}

func TestSubmitValidation(t *testing.T) {
	e := newEnv(t, Config{MaxJobsPerSweep: 4})
	cases := []struct {
		name, body string
		wantStatus int
		wantReason string
	}{
		{"malformed json", `{"seeds":`, 400, "invalid"},
		{"unknown field", `{"seeds":"1","bogus":true}`, 400, "invalid"},
		{"missing seeds", `{"name":"x"}`, 400, "invalid"},
		{"bad knob", `{"seeds":"1","detect":"maybe"}`, 400, "invalid"},
		{"too large", `{"seeds":"1-8"}`, 400, "toolarge"},
		{"negative timeout", `{"seeds":"1","timeout_s":-1}`, 400, "invalid"},
		{"bad vector", `{"seeds":"1","vectors":["smurf"]}`, 400, "invalid"},
		{"bad pulse share", `{"seeds":"1","pulse":[1.5]}`, 400, "invalid"},
		{"bad timeattack share", `{"seeds":"1","timesync":8,"timeattack":[1.5]}`, 400, "invalid"},
		{"timeattack without timesync", `{"seeds":"1","timeattack":[0.5]}`, 400, "invalid"},
	}
	for _, tc := range cases {
		resp, body := e.submit(t, tc.body)
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s: status = %d, want %d (%s)", tc.name, resp.StatusCode, tc.wantStatus, body)
			continue
		}
		var eb struct {
			Reason string `json:"reason"`
		}
		if err := json.Unmarshal(body, &eb); err != nil || eb.Reason != tc.wantReason {
			t.Errorf("%s: reason = %q (err %v), want %q", tc.name, eb.Reason, err, tc.wantReason)
		}
	}

	// Campaign fields flow through the embedded sweep.Spec: the daemon
	// accepts them and expands the same grid the CLI would.
	st := e.submitOK(t, `{"seeds":"1","vectors":["dns-any","ssdp"],"pulse":[0,0.3],"multi":[0.2]}`)
	fin := e.waitState(t, st.ID, StateDone)
	if fin.Progress.Total != 2 {
		t.Fatalf("campaign spec expanded %d jobs, want 2", fin.Progress.Total)
	}

	// The timesync plane rides the same embedded spec: clients as a base
	// setting, attack shares as a grid dimension.
	st = e.submitOK(t, `{"seeds":"1","timesync":16,"timeattack":[0,0.5]}`)
	fin = e.waitState(t, st.ID, StateDone)
	if fin.Progress.Total != 2 {
		t.Fatalf("timesync spec expanded %d jobs, want 2", fin.Progress.Total)
	}
}

func TestNotFoundAndNotReady(t *testing.T) {
	e, g := newGatedEnv(t, Config{Concurrency: 1})

	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/result", "/v1/jobs/nope/watch"} {
		resp, err := e.srv.Client().Get(e.srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}

	st := e.submitOK(t, `{"seeds":"1"}`)
	e.waitState(t, st.ID, StateRunning)
	<-g.entered
	resp, err := e.srv.Client().Get(e.srv.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("result while running = %d, want 409", resp.StatusCode)
	}
	resp, err = e.srv.Client().Get(e.srv.URL + "/v1/jobs/" + st.ID + "/result?format=xml")
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad format = %d, want 400", resp.StatusCode)
	}
	g.open()
	e.waitState(t, st.ID, StateDone)

	cresp, err := e.srv.Client().Post(e.srv.URL+"/v1/jobs/"+st.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatalf("cancel: %v", err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusConflict {
		t.Errorf("cancel terminal job = %d, want 409", cresp.StatusCode)
	}
}

func TestTerminalJobEviction(t *testing.T) {
	e := newEnv(t, Config{RetainJobs: 2})
	var ids []string
	for i := 1; i <= 4; i++ {
		st := e.submitOK(t, fmt.Sprintf(`{"seeds":"%d"}`, i))
		e.waitState(t, st.ID, StateDone)
		ids = append(ids, st.ID)
	}
	// The two oldest terminal jobs are gone; the two newest remain.
	for _, id := range ids[:2] {
		resp, err := e.srv.Client().Get(e.srv.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("evicted job %s = %d, want 404", id, resp.StatusCode)
		}
	}
	for _, id := range ids[2:] {
		if st := e.status(t, id); st.State != StateDone {
			t.Errorf("retained job %s = %s", id, st.State)
		}
	}
}

func TestMetricsEndpointOnAPIMux(t *testing.T) {
	reg := metrics.NewRegistry()
	e := newEnv(t, Config{Registry: reg})
	st := e.submitOK(t, `{"seeds":"1-2"}`)
	e.waitState(t, st.ID, StateDone)

	resp, err := e.srv.Client().Get(e.srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	text := string(b)
	for _, want := range []string{
		"ntpserved_jobs_submitted_total 1",
		`ntpserved_jobs{state="done"} 1`,
		"ntpserved_queue_depth 0",
		"sweep_jobs_completed_total 2",
		`ntpserved_http_request_seconds_count{endpoint="submit"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	for _, clientLine := range []string{"ntpserved_client_requests_total{client="} {
		if !strings.Contains(text, clientLine) {
			t.Errorf("/metrics missing per-client counters")
		}
	}
}
