// Command ntpserved is the simulation-as-a-service daemon: a long-running
// multi-tenant HTTP server that accepts sweep job specs (the same JSON
// shape cmd/ntpsweep's flags compile to), admits them through per-client
// rate limiting and a bounded queue, executes them on the sweep engine,
// and serves the job lifecycle plus /metrics and /healthz on one mux.
//
// Usage:
//
//	ntpserved -addr :8080                        # serve on :8080
//	ntpserved -addr 127.0.0.1:0                  # ephemeral port (printed)
//	ntpserved -queue 32 -concurrency 2           # deeper queue, 2 jobs at once
//	ntpserved -rate 1 -burst 5                   # 1 submit/s per client
//	ntpserved -job-timeout 10m                   # default per-job deadline
//	ntpserved -checkpoint-dir state -retries 2   # crash-safe resume + sub-job retries
//
// API walkthrough:
//
//	curl -s localhost:8080/v1/jobs -d '{"seeds":"1-4","scale":4000,"end":"2014-01-17"}'
//	curl -s localhost:8080/v1/jobs/j000001            # poll status
//	curl -s localhost:8080/v1/jobs/j000001/watch      # stream progress (ndjson)
//	curl -s localhost:8080/v1/jobs/j000001/result     # manifest (canonical JSON)
//	curl -s 'localhost:8080/v1/jobs/j000001/result?format=csv'
//	curl -s -XPOST localhost:8080/v1/jobs/j000001/cancel
//
// On SIGINT/SIGTERM the daemon drains gracefully: /healthz flips to 503,
// new submissions are refused, queued jobs are canceled, and running jobs
// finish (or are checkpointed with partial manifests at -drain-timeout)
// before the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ntpddos"
	"ntpddos/internal/buildinfo"
	"ntpddos/internal/metrics"
	"ntpddos/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address (host:0 picks an ephemeral port)")
		scale        = flag.Int("scale", 2000, "base population divisor job specs compile against")
		workers      = flag.Int("workers", 0, "sweep workers per job and per-job cap (0 = GOMAXPROCS)")
		concurrency  = flag.Int("concurrency", 1, "jobs executing at once")
		queueDepth   = flag.Int("queue", 16, "bounded job-queue depth; beyond it submissions get 429")
		maxJobs      = flag.Int("max-jobs", 1024, "cap on sub-jobs one submission may expand to")
		retain       = flag.Int("retain", 64, "terminal jobs kept for result download")
		rate         = flag.Float64("rate", 0, "per-client submissions per second (0 = no rate limit)")
		burst        = flag.Float64("burst", 10, "per-client burst size when -rate is set")
		jobTimeout   = flag.Duration("job-timeout", 0, "default per-job deadline (0 = none)")
		drainTimeout = flag.Duration("drain-timeout", 5*time.Minute, "how long shutdown waits for running jobs before checkpointing them")
		ckptDir      = flag.String("checkpoint-dir", "", "directory for crash-safe job checkpoints; a restarted daemon resumes interrupted jobs from it (empty = no persistence)")
		maxRetries   = flag.Int("retries", 0, "re-executions of a failed sub-job before its error lands in the manifest")
		retryDelay   = flag.Duration("retry-delay", time.Second, "backoff before the first sub-job retry (doubles per attempt, capped at 30s)")
		quiet        = flag.Bool("q", false, "suppress lifecycle log lines")
		showVersion  = buildinfo.Flag()
	)
	flag.Parse()
	buildinfo.Handle("ntpserved", *showVersion)
	if *scale < 1 {
		fatalf("bad -scale %d: population divisor must be at least 1", *scale)
	}

	base := ntpddos.DefaultConfig()
	base.Scale = *scale

	reg := metrics.NewRegistry()
	metrics.RegisterGoRuntime(reg)

	cfg := serve.Config{
		Base:            base,
		Runner:          ntpddos.SweepRunner,
		Workers:         *workers,
		Concurrency:     *concurrency,
		QueueDepth:      *queueDepth,
		MaxJobsPerSweep: *maxJobs,
		RetainJobs:      *retain,
		Rate:            *rate,
		Burst:           *burst,
		JobTimeout:      *jobTimeout,
		CheckpointDir:   *ckptDir,
		MaxRetries:      *maxRetries,
		RetryDelay:      *retryDelay,
		Registry:        reg,
	}
	if !*quiet {
		cfg.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "ntpserved: "+format+"\n", args...)
		}
	}
	d, err := serve.New(cfg)
	if err != nil {
		fatalf("%v", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("listen %s: %v", *addr, err)
	}
	srv := &http.Server{Handler: d.Handler()}
	d.Start()
	// The resolved address line is the startup handshake: tests and scripts
	// parse it to find an ephemeral port.
	fmt.Printf("ntpserved: listening on http://%s\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		fatalf("serve: %v", err)
	case <-ctx.Done():
	}
	stop()

	// Drain first — /healthz flips to 503 but status endpoints keep
	// answering — and only then stop the HTTP listener.
	fmt.Fprintln(os.Stderr, "ntpserved: shutdown signal; draining")
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := d.Drain(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fatalf("drain: %v", err)
	}
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	srv.Shutdown(sctx)
	fmt.Fprintln(os.Stderr, "ntpserved: drained; exiting")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ntpserved: "+format+"\n", args...)
	os.Exit(2)
}
