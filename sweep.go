package ntpddos

import (
	"context"
	"fmt"

	"ntpddos/internal/detect"
	"ntpddos/internal/report"
	"ntpddos/internal/sweep"
)

// Re-exports so sweep callers need only the facade package.
type (
	// SweepJob is one independent scenario execution in a sweep.
	SweepJob = sweep.Job
	// SweepOptions tunes the worker pool (size, instrumentation, progress).
	SweepOptions = sweep.Options
	// SweepManifest is a completed sweep: per-job digests plus cross-run
	// spread summaries, with a parallelism-independent canonical form.
	SweepManifest = sweep.Manifest
	// SweepGrid expands seed replicates × Scale ladders × Config knobs into
	// a deterministic job list.
	SweepGrid = sweep.Grid
	// SweepKnob is one parameter-grid dimension of a SweepGrid.
	SweepKnob = sweep.Knob
	// SweepKnobValue is one setting of a SweepKnob.
	SweepKnobValue = sweep.KnobValue
	// SweepSpec is the declarative sweep description (seed ranges, Scale
	// ladders, grid knobs) shared by cmd/ntpsweep's flags and the JSON job
	// specs cmd/ntpserved accepts over HTTP.
	SweepSpec = sweep.Spec
)

// ErrSweepCanceled wraps the error SweepContext returns alongside a partial
// manifest when its context is canceled before every job ran.
var ErrSweepCanceled = sweep.ErrCanceled

// SweepReplicates builds the common job list: one config, many seeds.
func SweepReplicates(name string, base Config, seeds ...uint64) []SweepJob {
	return sweep.Replicates(name, base, seeds...)
}

// Sweep fans the jobs across a worker pool, running the full pipeline
// (scenario + every experiment table) for each and aggregating cross-run
// statistics. Each job's World is fully isolated — own RNG root, own
// virtual clock — so a job's report digest is identical whether it ran
// serially, in parallel, or in any interleaving; the manifest's canonical
// bytes are likewise independent of SweepOptions.Workers.
func Sweep(jobs []SweepJob, opt SweepOptions) (*SweepManifest, error) {
	return sweep.Run(jobs, SweepRunner, opt)
}

// SweepContext is Sweep with cancellation: when ctx is canceled, jobs
// already executing finish (their worlds stay deterministic) and land in
// the manifest, never-started jobs are recorded with a canceled error, and
// the partial manifest is returned together with an error wrapping
// ErrSweepCanceled — the interrupted-sweep contract cmd/ntpsweep and the
// ntpserved job timeouts both build on.
func SweepContext(ctx context.Context, jobs []SweepJob, opt SweepOptions) (*SweepManifest, error) {
	return sweep.RunContext(ctx, jobs, SweepRunner, opt)
}

// SweepRunner executes one sweep job end to end: full timeline, every
// table and figure, digest, and the scalar outcomes the manifest
// aggregates. It is the Runner ntpddos.Sweep installs; it is exported so
// callers composing their own sweep.Run invocations (custom engines,
// partial job sets) use the exact same per-job semantics.
func SweepRunner(j SweepJob) (sweep.Result, error) {
	return sweepResult(Run(j.Cfg)), nil
}

// sweepResult is one finished world's sweep result: the digest of every
// table and the scalar outcomes.
func sweepResult(s *Simulation) sweep.Result {
	tables := s.All()
	numTables := len(tables)
	for _, r := range reports {
		if r.needs != 0 && r.digest && r.Attached(s) {
			tables = append(tables, r.Build(s))
		}
	}
	return sweep.Result{
		Digest: report.Digest(tables),
		Values: sweepValues(s, numTables),
	}
}

// sweepValues extracts the scalar outcomes a sweep aggregates across runs.
// Non-finite values are dropped downstream, but everything produced here is
// already finite by construction.
func sweepValues(s *Simulation, numTables int) map[string]float64 {
	res := s.Results()
	v := map[string]float64{
		"tables":           float64(numTables),
		"attacks_launched": float64(len(res.World.Launched)),
	}
	// Per-sample monlist pool sizes: the Figure 3 decline, one metric per
	// weekly sample so replicate groups summarize into an envelope.
	for i, pool := range res.MonlistPools {
		v[fmt.Sprintf("pool_s%02d", i)] = float64(pool.Len())
	}
	if n := len(res.MonlistPools); n > 0 {
		first := float64(res.MonlistPools[0].Len())
		last := float64(res.MonlistPools[n-1].Len())
		v["pool_first"] = first
		v["pool_last"] = last
		if first > 0 {
			v["pool_decline_pct"] = 100 * (1 - last/first)
		}
	}
	if hp := res.Honeypot; hp != nil {
		v["hp_events"] = float64(len(hp.Events))
		v["hp_recall"] = hp.Validation.DetectionRate()
		if n := len(hp.Events); n > 0 {
			v["hp_precision"] = float64(n-len(hp.Validation.UnmatchedEvents)) / float64(n)
		}
	}
	if det := res.Detection; det != nil {
		e := detect.Evaluate(det.VictimSet(), s.LaunchedVictimSet())
		v["det_precision"] = e.Precision
		v["det_recall"] = e.Recall
	}
	if ts := res.TimeSync; ts != nil {
		v["ts_clients"] = float64(ts.Clients)
		v["ts_synced"] = float64(ts.Synced)
		v["ts_max_err_ms"] = float64(ts.MaxAbsErr.Milliseconds())
		v["ts_steps"] = float64(ts.Steps)
	}
	if at := res.TimeAttack; at != nil {
		v["ts_targets"] = float64(at.Targets)
	}
	if e := res.TimeIntegrityEval; e != nil {
		v["ts_det_precision"] = e.Precision
		v["ts_det_recall"] = e.Recall
	}
	return v
}
