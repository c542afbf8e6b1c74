// Package serve is the simulation-as-a-service layer: a long-running,
// multi-tenant daemon that accepts sweep job specs over HTTP, admits them
// through per-client rate limiting and a bounded FIFO queue, drains the
// queue with a worker pool built on internal/sweep, and serves the job
// lifecycle — submit, status, list, result manifest, cancel, streamed
// progress — plus /metrics and /healthz on the same mux.
//
// The robustness contract, in order of defense:
//
//  1. per-client token buckets (bounded cardinality) throttle request
//     floods before any work is attempted;
//  2. a queue-depth admission controller rejects submissions with 429 and
//     a Retry-After estimate once the bounded queue is full — the daemon
//     sheds load instead of queueing unboundedly;
//  3. per-job timeouts and the cancel endpoint thread context cancellation
//     into sweep.RunContext, so a stuck or oversized job releases its
//     worker at the next sub-job boundary with a partial manifest;
//  4. panics inside a job are isolated twice (per sub-job by the sweep
//     engine, per job by the worker), so one poisoned world cannot take
//     the daemon down;
//  5. graceful drain: readiness flips to 503 first, submissions are
//     refused, running jobs finish (or are checkpointed at the drain
//     deadline), and only then does the daemon exit.
//
// Determinism is inherited, not re-proven: the daemon executes exactly the
// job lists a Spec compiles to and returns the sweep engine's canonical
// manifest bytes, so a job submitted over HTTP is byte-identical to the
// same spec run in-process at any worker count.
package serve

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"ntpddos/internal/metrics"
	"ntpddos/internal/scenario"
	"ntpddos/internal/sweep"
)

// JobSpec is the submission payload: a declarative sweep spec plus
// service-level knobs.
type JobSpec struct {
	sweep.Spec
	// TimeoutS bounds the job's wall-clock execution in seconds (0 = the
	// daemon's default). On expiry, running sub-jobs finish, queued
	// sub-jobs are skipped, and the job fails with a partial manifest.
	TimeoutS float64 `json:"timeout_s,omitempty"`
	// Workers requests a per-job sweep pool size, clamped to the daemon's
	// configured maximum. 0 means the daemon default. Worker count never
	// changes manifest bytes — only wall time.
	Workers int `json:"workers,omitempty"`
}

// Config tunes a Daemon. The zero value of every field has a usable
// default; only Runner is required.
type Config struct {
	// Base is the configuration job specs compile against (their Scale/End
	// overrides apply on top of it).
	Base scenario.Config
	// Runner executes one sub-job (ntpddos.SweepRunner in production;
	// synthetic runners in tests and benchmarks). Required.
	Runner sweep.Runner
	// Workers is the per-job sweep pool size and its cap (0 = GOMAXPROCS).
	Workers int
	// Concurrency is how many jobs execute at once (default 1: sweeps are
	// internally parallel, so one job already saturates the machine).
	Concurrency int
	// QueueDepth bounds the FIFO of admitted-but-not-started jobs
	// (default 16). Beyond it, submissions get 429 + Retry-After.
	QueueDepth int
	// MaxJobsPerSweep caps how many sub-jobs one submission may expand to
	// (default 1024).
	MaxJobsPerSweep int
	// RetainJobs bounds how many terminal jobs are kept for result
	// download (default 64).
	RetainJobs int
	// Rate and Burst configure the per-client token bucket (tokens/second
	// and bucket size). Rate <= 0 disables rate limiting; Burst defaults
	// to 10 when limiting is on.
	Rate  float64
	Burst float64
	// MaxClients bounds limiter and per-client-metric cardinality
	// (default 256).
	MaxClients int
	// JobTimeout is the default per-job timeout (0 = none).
	JobTimeout time.Duration
	// CheckpointDir, when set, enables crash-safe job checkpoints: every
	// admitted job gets an ndjson file recording its spec and each landed
	// sub-job, and a restarted daemon re-admits interrupted jobs with the
	// completed sub-jobs precompleted — the resumed manifest is
	// byte-identical to an uninterrupted run. Empty disables persistence.
	CheckpointDir string
	// MaxRetries re-executes a failed sub-job (runner error, panic, or
	// injected fault) up to this many times before its error lands in the
	// manifest; RetryDelay is the first backoff, doubling per attempt and
	// capped at 30s (0 retries immediately).
	MaxRetries int
	RetryDelay time.Duration
	// WatchInterval is the progress-stream poll period (default 500ms).
	WatchInterval time.Duration
	// Registry, when non-nil, attaches instrumentation and mounts
	// /metrics on the daemon's mux.
	Registry *metrics.Registry
	// Log, when non-nil, receives one line per lifecycle event.
	Log func(format string, args ...any)
	// now is the clock (tests inject a fake one).
	now func() time.Time
}

// Daemon is a running simulation service.
type Daemon struct {
	cfg     Config
	store   *store
	limiter *Limiter
	queue   chan *job
	ready   metrics.Readiness
	mux     *http.ServeMux
	met     *daemonMetrics
	swMet   *sweep.Metrics

	mu       sync.Mutex // guards draining and queue close
	draining bool
	wg       sync.WaitGroup

	// avgJobSeconds is an EWMA of job wall time feeding Retry-After
	// estimates; guarded by mu.
	avgJobSeconds float64
}

// New builds a daemon. Call Start to launch its workers, Handler for its
// HTTP surface, and Drain before exit.
func New(cfg Config) (*Daemon, error) {
	if cfg.Runner == nil {
		return nil, fmt.Errorf("serve: Config.Runner is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.MaxJobsPerSweep <= 0 {
		cfg.MaxJobsPerSweep = 1024
	}
	if cfg.RetainJobs <= 0 {
		cfg.RetainJobs = 64
	}
	if cfg.Rate > 0 && cfg.Burst <= 0 {
		cfg.Burst = 10
	}
	if cfg.MaxClients <= 0 {
		cfg.MaxClients = 256
	}
	if cfg.WatchInterval <= 0 {
		cfg.WatchInterval = 500 * time.Millisecond
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	if cfg.CheckpointDir != "" {
		if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: checkpoint dir: %w", err)
		}
	}
	d := &Daemon{
		cfg:     cfg,
		store:   newStore(cfg.RetainJobs),
		limiter: NewLimiter(cfg.Rate, cfg.Burst, cfg.MaxClients),
		queue:   make(chan *job, cfg.QueueDepth),
	}
	d.met = newDaemonMetrics(cfg.Registry, d)
	d.swMet = sweep.NewMetrics(cfg.Registry)
	d.store.onState = d.met.observeState
	d.mux = d.buildMux()
	return d, nil
}

// Start recovers checkpointed jobs from a previous process, launches the
// job workers, and flips readiness to healthy.
func (d *Daemon) Start() {
	if d.cfg.CheckpointDir != "" {
		d.recoverJobs()
	}
	for w := 0; w < d.cfg.Concurrency; w++ {
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			for j := range d.queue {
				d.runJob(j)
			}
		}()
	}
	d.ready.Set(true)
	d.logf("serving: %d job workers, %d-deep queue, %d sweep workers/job",
		d.cfg.Concurrency, d.cfg.QueueDepth, d.cfg.Workers)
}

// Handler returns the daemon's full HTTP surface: the job API plus
// /healthz and (when a Registry is configured) /metrics.
func (d *Daemon) Handler() http.Handler { return d.mux }

// Ready reports the /healthz readiness state.
func (d *Daemon) Ready() bool { return d.ready.Ready() }

// Drain performs the graceful-shutdown sequence: readiness flips to 503
// immediately (load balancers stop routing; status endpoints keep
// answering), new submissions are refused, still-queued jobs are canceled,
// and running jobs finish. If ctx expires first, running jobs are
// checkpointed: their contexts are canceled so they unwind with partial
// manifests at the next sub-job boundary, and Drain waits for that unwind.
func (d *Daemon) Drain(ctx context.Context) error {
	d.ready.Set(false)
	d.mu.Lock()
	if d.draining {
		d.mu.Unlock()
		return fmt.Errorf("serve: already draining")
	}
	d.draining = true
	// Flush the admitted-but-not-started queue: those jobs are canceled,
	// not silently dropped — their status records say why.
	flushed := 0
	for {
		select {
		case j := <-d.queue:
			d.store.cancelQueued(j, "canceled: daemon draining", d.cfg.now())
			flushed++
			continue
		default:
		}
		break
	}
	close(d.queue)
	d.mu.Unlock()
	d.logf("draining: %d queued jobs canceled, waiting for running jobs", flushed)

	done := make(chan struct{})
	go func() {
		d.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		d.logf("drained: all jobs finished")
		return nil
	case <-ctx.Done():
		// Deadline: checkpoint running jobs by canceling their contexts,
		// then wait for the partial manifests to land.
		d.cancelRunning()
		<-done
		d.logf("drained: running jobs checkpointed at deadline")
		return ctx.Err()
	}
}

// cancelRunning cancels every running job's context.
func (d *Daemon) cancelRunning() {
	s := d.store
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.order {
		if j.state == StateRunning && j.cancel != nil {
			j.cancel()
		}
	}
}

// submit admits a compiled job. It returns the admitted job's status, or an
// admissionError describing the refusal. The status is snapshotted before
// the job reaches the queue, where a worker may start it at once, so it
// always reports the admitted (queued) state.
func (d *Daemon) submit(client string, spec JobSpec, jobs []sweep.Job) (JobStatus, *admissionError) {
	workers := spec.Workers
	if workers <= 0 || workers > d.cfg.Workers {
		workers = d.cfg.Workers
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.draining {
		return JobStatus{}, &admissionError{
			status: http.StatusServiceUnavailable,
			reason: "draining",
			msg:    "daemon is draining; resubmit elsewhere",
		}
	}
	j := d.store.add(client, spec, jobs, workers, d.cfg.now())
	d.openJobCheckpoint(j)
	st := d.store.status(j)
	select {
	case d.queue <- j:
		d.met.jobsSubmitted.Inc()
		d.logf("job %s admitted: client=%s jobs=%d workers=%d", j.id, client, len(jobs), workers)
		return st, nil
	default:
		// Queue saturated: undo the store registration and shed load.
		if j.ckpt != nil {
			j.ckpt.close()
			os.Remove(d.checkpointPath(j.id))
		}
		d.store.drop(j)
		retry := d.retryAfterLocked()
		return JobStatus{}, &admissionError{
			status:     http.StatusTooManyRequests,
			reason:     "saturated",
			msg:        fmt.Sprintf("job queue full (%d deep)", d.cfg.QueueDepth),
			retryAfter: retry,
		}
	}
}

// retryAfterLocked estimates when queue space will free up: the average
// job wall time scaled by queue occupancy per worker. Caller holds d.mu.
func (d *Daemon) retryAfterLocked() time.Duration {
	avg := d.avgJobSeconds
	if avg <= 0 {
		avg = 1
	}
	est := avg * float64(len(d.queue)) / float64(d.cfg.Concurrency)
	if est < 1 {
		est = 1
	}
	if est > 600 {
		est = 600
	}
	return time.Duration(est * float64(time.Second))
}

// observeJobWall folds a completed job's wall time into the EWMA.
func (d *Daemon) observeJobWall(wall time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := wall.Seconds()
	if d.avgJobSeconds == 0 {
		d.avgJobSeconds = s
		return
	}
	d.avgJobSeconds = 0.7*d.avgJobSeconds + 0.3*s
}

// runJob executes one admitted job end to end with panic isolation.
func (d *Daemon) runJob(j *job) {
	defer func() {
		if r := recover(); r != nil {
			d.store.finish(j, StateFailed, nil, fmt.Sprintf("panic: %v", r), d.cfg.now())
			d.releaseCheckpoint(j)
			d.logf("job %s PANIC: %v", j.id, r)
		}
	}()

	parent := context.Background()
	timeout := d.cfg.JobTimeout
	if j.spec.TimeoutS > 0 {
		timeout = time.Duration(j.spec.TimeoutS * float64(time.Second))
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(parent, timeout)
	} else {
		ctx, cancel = context.WithCancel(parent)
	}
	defer cancel()

	if !d.store.begin(j, cancel, d.cfg.now()) {
		d.releaseCheckpoint(j) // canceled while queued
		return
	}
	d.logf("job %s running: %d sub-jobs (%d precompleted)", j.id, len(j.jobs), len(j.pre))
	start := time.Now()
	m, err := sweep.RunContext(ctx, j.jobs, d.cfg.Runner, sweep.Options{
		Workers:      j.workers,
		Metrics:      d.swMet,
		MaxRetries:   d.cfg.MaxRetries,
		RetryDelay:   d.cfg.RetryDelay,
		Precompleted: j.pre,
		Progress:     func(completed, total int) { d.store.progress(j, completed) },
		OnResult: func(idx int, rec sweep.JobRecord) {
			d.store.addRetries(j, rec.Retries)
			j.ckpt.append(rec)
		},
	})
	wall := time.Since(start)
	d.observeJobWall(wall)
	d.met.jobSeconds.Observe(wall.Seconds())

	now := d.cfg.now()
	switch {
	case err == nil && m != nil && len(m.Failed()) == 0:
		d.store.finish(j, StateDone, m, "", now)
		d.logf("job %s done in %v: digest %s", j.id, wall.Round(time.Millisecond), m.Digest())
	case err == nil:
		d.store.finish(j, StateDone, m,
			fmt.Sprintf("%d of %d sub-jobs failed", len(m.Failed()), len(m.Jobs)), now)
		d.logf("job %s done with %d failed sub-jobs in %v", j.id, len(m.Failed()), wall.Round(time.Millisecond))
	case d.store.userStopped(j):
		d.store.finish(j, StateCanceled, m, "canceled", now)
		d.logf("job %s canceled after %v", j.id, wall.Round(time.Millisecond))
	case ctx.Err() == context.DeadlineExceeded:
		d.store.finish(j, StateFailed, m, fmt.Sprintf("timeout after %v: %v", timeout, err), now)
		d.logf("job %s timed out after %v", j.id, timeout)
	default:
		d.store.finish(j, StateFailed, m, err.Error(), now)
		d.logf("job %s failed: %v", j.id, err)
	}
	d.releaseCheckpoint(j)
}

func (d *Daemon) logf(format string, args ...any) {
	if d.cfg.Log != nil {
		d.cfg.Log(format, args...)
	}
}
