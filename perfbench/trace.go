package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	rtm "runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"ntpddos"
	"ntpddos/internal/metrics"
	"ntpddos/internal/metrics/metricstest"
	"ntpddos/internal/scenario"
	"ntpddos/internal/sweep"
)

// builders are the 33 table builders in (*Simulation).All order, timed one
// by one in the traced pass. The traced digest must equal the untraced one,
// so a drift between this list and All fails the check.
var builders = []struct {
	name  string
	build func(*ntpddos.Simulation) *ntpddos.Table
}{
	{"Figure1", (*ntpddos.Simulation).Figure1}, {"Figure2", (*ntpddos.Simulation).Figure2},
	{"Figure3", (*ntpddos.Simulation).Figure3}, {"Figure4a", (*ntpddos.Simulation).Figure4a},
	{"Figure4b", (*ntpddos.Simulation).Figure4b}, {"Figure4c", (*ntpddos.Simulation).Figure4c},
	{"Table1Amplifiers", (*ntpddos.Simulation).Table1Amplifiers},
	{"Table1Victims", (*ntpddos.Simulation).Table1Victims},
	{"Table2", (*ntpddos.Simulation).Table2}, {"Table3", (*ntpddos.Simulation).Table3},
	{"Figure5", (*ntpddos.Simulation).Figure5}, {"Table4", (*ntpddos.Simulation).Table4},
	{"Figure6", (*ntpddos.Simulation).Figure6}, {"Figure7", (*ntpddos.Simulation).Figure7},
	{"Figure8", (*ntpddos.Simulation).Figure8}, {"Figure9", (*ntpddos.Simulation).Figure9},
	{"Figure10", (*ntpddos.Simulation).Figure10}, {"Figure11", (*ntpddos.Simulation).Figure11},
	{"Figure12", (*ntpddos.Simulation).Figure12}, {"Figure13", (*ntpddos.Simulation).Figure13},
	{"Figure14", (*ntpddos.Simulation).Figure14}, {"Figure15", (*ntpddos.Simulation).Figure15},
	{"Figure16", (*ntpddos.Simulation).Figure16}, {"Table5", (*ntpddos.Simulation).Table5},
	{"Table6", (*ntpddos.Simulation).Table6}, {"ChurnReport", (*ntpddos.Simulation).ChurnReport},
	{"VolumeReport", (*ntpddos.Simulation).VolumeReport},
	{"RemediationReport", (*ntpddos.Simulation).RemediationReport},
	{"DNSOverlapReport", (*ntpddos.Simulation).DNSOverlapReport},
	{"TTLReport", (*ntpddos.Simulation).TTLReport}, {"MegaReport", (*ntpddos.Simulation).MegaReport},
	{"HoneypotReport", (*ntpddos.Simulation).HoneypotReport},
	{"HoneypotConvergence", (*ntpddos.Simulation).HoneypotConvergence},
}

// registryCounts maps ledger names to metrics-registry families, summed
// over every label set unless one label value is named.
var registryCounts = []struct{ name, family, label, value string }{
	{"vtime.events_fired", "ntpsim_sched_events_fired_total", "", ""},
	{"vtime.events_scheduled", "ntpsim_sched_events_scheduled_total", "", ""},
	{"netsim.sent", "ntpsim_fabric_packets_sent_total", "", ""},
	{"netsim.delivered", "ntpsim_fabric_packets_delivered_total", "", ""},
	{"netsim.dark", "ntpsim_fabric_packets_dark_total", "", ""},
	{"netsim.tap_observations", "ntpsim_fabric_tap_observations_total", "", ""},
	{"netsim.duplicated", "ntpsim_fabric_packets_duplicated_total", "", ""},
	{"netsim.dropped.spoof", "ntpsim_fabric_packets_dropped_total", "cause", "spoof"},
	{"netsim.dropped.ttl", "ntpsim_fabric_packets_dropped_total", "cause", "ttl"},
	{"netsim.dropped.loss", "ntpsim_fabric_packets_dropped_total", "cause", "loss"},
	{"netsim.dropped.flap", "ntpsim_fabric_packets_dropped_total", "cause", "flap"},
	{"ntpd.queries", "ntpsim_ntpd_queries_total", "", ""},
	{"ntpd.monlist_packets", "ntpsim_ntpd_monlist_packets_total", "", ""},
	{"ntpd.response_bytes", "ntpsim_ntpd_response_bytes_total", "", ""},
	{"attack.campaigns", "ntpsim_attack_campaigns_total", "", ""},
	{"attack.triggers_sent", "ntpsim_attack_triggers_sent_total", "", ""},
	{"scan.probes_sent", "ntpsim_scan_probes_sent_total", "", ""},
	{"scan.response_packets", "ntpsim_scan_response_packets_total", "", ""},
	{"ispview.packets", "ntpsim_ispview_packets_total", "", ""},
	{"honeypot.requests", "ntpsim_honeypot_requests_total", "", ""},
	{"honeypot.events_opened", "ntpsim_honeypot_events_opened_total", "", ""},
	{"detect.packets", "ntpsim_detect_packets_total", "", ""},
	{"detect.onset_alarms", "ntpsim_detect_onset_alarms_total", "", ""},
	{"timesync.polls", "ntpsync_polls_total", "", ""},
	{"timeattack.forged_replies", "ntpattack_forged_replies_total", "", ""},
	{"sweep.jobs_failed", "ntpsweep_jobs_failed_total", "", ""},
	{"sweep.jobs_retried", "ntpsweep_jobs_retried_total", "", ""},
}

// readCounts scrapes a registry and adds its ledger counts into into.
func readCounts(reg *metrics.Registry, into map[string]float64) error {
	fams, err := metricstest.Parse(reg.RenderText())
	if err != nil {
		return fmt.Errorf("parsing registry: %w", err)
	}
	for _, c := range registryCounts {
		total := 0.0 // a family the world never registered counts as 0
		if f := fams[c.family]; f != nil {
			for _, s := range f.Samples {
				if c.label == "" || s.Labels[c.label] == c.value {
					total += s.Value
				}
			}
		}
		into[c.name] += total
	}
	return nil
}

// ledger accumulates the traced pass. The sweep pool calls into it from
// several workers at once, so it is locked.
type ledger struct {
	mu          sync.Mutex
	log         io.Writer
	chk         *checker
	spans       map[string]float64 // span name → seconds summed over worlds
	tables      map[string]float64 // builder → seconds summed over worlds
	counts      map[string]float64
	peakPending int
	jobs        []jobSpan // sweep workloads only
	sweepWall   float64
}

type jobSpan struct {
	id         string
	wait, busy float64
}

// world runs one world with a fresh registry attached and spans around
// every public call. profile, when non-nil, receives a CPU profile of
// (*World).Run alone.
func (l *ledger) world(job ntpddos.SweepJob, profile io.Writer) error {
	reg := metrics.NewRegistry()
	cfg := job.Cfg
	cfg.Metrics = reg
	t0 := time.Now()
	w := scenario.Build(cfg)
	t1 := time.Now()
	if profile != nil {
		if err := pprof.StartCPUProfile(profile); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
	}
	res := w.Run()
	if profile != nil {
		pprof.StopCPUProfile()
	}
	t2 := time.Now()
	sim := ntpddos.NewSimulation(res)
	t3 := time.Now()
	tables := make([]*ntpddos.Table, 0, len(builders))
	tableTimes := make(map[string]float64, len(builders))
	for _, b := range builders {
		ts := time.Now()
		tables = append(tables, b.build(sim))
		tableTimes[b.name] = time.Since(ts).Seconds()
	}
	t4 := time.Now()
	digest := digestOf(sim, tables)
	t5 := time.Now()
	counts := map[string]float64{}
	if err := readCounts(reg, counts); err != nil {
		return err
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	l.chk.check(job.ID, digest, len(tables))
	fmt.Fprintf(l.log, "world %s: hosts=%d build_s=%.3f run_s=%.3f events_fired=%.0f "+
		"netsim.tap_observations=%.0f ispview.packets=%.0f ntpd.monlist_packets=%.0f attack.campaigns=%.0f\n",
		job.ID, w.Net.NumHosts(), t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(),
		counts["vtime.events_fired"], counts["netsim.tap_observations"], counts["ispview.packets"],
		counts["ntpd.monlist_packets"], counts["attack.campaigns"])
	l.spans["scenario.build_s"] += t1.Sub(t0).Seconds()
	l.spans["scenario.run_s"] += t2.Sub(t1).Seconds()
	l.spans["analysis.newsim_s"] += t3.Sub(t2).Seconds()
	l.spans["analysis.tables_s"] += t4.Sub(t3).Seconds()
	l.spans["report.digest_s"] += t5.Sub(t4).Seconds()
	for k, v := range tableTimes {
		l.tables[k] += v
	}
	for k, v := range counts {
		l.counts[k] += v
	}
	l.peakPending = max(l.peakPending, w.Sched.PeakPending())
	return nil
}

// sweep runs the jobs through sweep.Run with the sweep metrics attached, a
// runner that traces each world, and a CPU profile of the whole sweep.
func (l *ledger) sweep(jobs []ntpddos.SweepJob, profile io.Writer) error {
	reg := metrics.NewRegistry()
	start := time.Now()
	runner := func(j sweep.Job) (sweep.Result, error) {
		begin := time.Now()
		err := l.world(j, nil)
		l.mu.Lock()
		l.jobs = append(l.jobs, jobSpan{id: j.ID, wait: begin.Sub(start).Seconds(), busy: time.Since(begin).Seconds()})
		l.mu.Unlock()
		return sweep.Result{}, err
	}
	if err := pprof.StartCPUProfile(profile); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	m, err := sweep.Run(jobs, runner, sweep.Options{Workers: maxProcs, Metrics: sweep.NewMetrics(reg)})
	pprof.StopCPUProfile()
	l.sweepWall = time.Since(start).Seconds()
	if err != nil {
		return fmt.Errorf("traced sweep: %w", err)
	}
	for _, rec := range m.Jobs {
		if rec.Err != "" {
			l.chk.fail(rec.ID, rec.Err)
		}
	}
	return readCounts(reg, l.counts)
}

// metrics returns the span, sweep and count part of the ledger.
func (l *ledger) metrics() map[string]float64 {
	m := map[string]float64{}
	for k, v := range l.spans {
		m[k] = v
	}
	for k, v := range l.counts {
		m[k] = v
	}
	m["vtime.peak_pending"] = float64(l.peakPending)
	m["vtime.events_per_s"] = ratio(l.counts["vtime.events_fired"], l.spans["scenario.run_s"])
	m["netsim.delivered_frac"] = ratio(l.counts["netsim.delivered"], l.counts["netsim.sent"])

	names := make([]string, 0, len(l.tables))
	for k := range l.tables {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return l.tables[names[i]] > l.tables[names[j]] })
	if len(names) > 0 {
		m["analysis.slowest_table_s"] = l.tables[names[0]]
		fmt.Fprintf(l.log, "slowest table builder: %s (%.4fs of %.4fs)\n",
			names[0], l.tables[names[0]], l.spans["analysis.tables_s"])
	}

	var wait, busy, maxBusy float64
	var maxID string
	for _, j := range l.jobs {
		wait += j.wait
		busy += j.busy
		if j.busy > maxBusy {
			maxBusy, maxID = j.busy, j.id
		}
	}
	m["sweep.queue_wait_s"] = ratio(wait, float64(len(l.jobs)))
	m["sweep.busy_frac"] = ratio(busy, maxProcs*l.sweepWall)
	m["sweep.job_max_s"] = maxBusy
	if maxID != "" {
		fmt.Fprintf(l.log, "longest sweep job: %s (%.3fs of a %.3fs sweep)\n", maxID, maxBusy, l.sweepWall)
	}
	return m
}

// runtimeNames are the runtime/metrics read around the untraced pass.
var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() []float64 {
	s := make([]rtm.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	rtm.Read(s)
	out := make([]float64, len(s))
	for i, x := range s {
		switch x.Value.Kind() {
		case rtm.KindUint64:
			out[i] = float64(x.Value.Uint64())
		case rtm.KindFloat64:
			out[i] = x.Value.Float64()
		}
	}
	return out
}

// sampleHeapPeak polls the live heap every interval until the returned
// function is called; that function stops the poller, waits for it to
// exit, and returns the highest value seen in MB.
func sampleHeapPeak(every time.Duration) func() float64 {
	quit := make(chan struct{})
	peak := make(chan uint64)
	go func() {
		s := []rtm.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(every)
		defer t.Stop()
		var hi uint64
		for {
			rtm.Read(s)
			hi = max(hi, s[0].Value.Uint64())
			select {
			case <-quit:
				peak <- hi
				return
			case <-t.C:
			}
		}
	}()
	return func() float64 {
		close(quit)
		return float64(<-peak) / (1 << 20)
	}
}

// traceRun makes one untraced pass, which gives the runtime/metrics deltas
// and the baseline for the tracing overhead, then one traced pass, and
// returns the per-layer ledger.
func traceRun(w workload, jobs []ntpddos.SweepJob, chk *checker, log io.Writer) (map[string]float64, error) {
	// One throwaway Build per config grows the heap first, so neither pass
	// pays the process's cold start and the overhead compares like with like.
	for _, j := range jobs {
		scenario.Build(j.Cfg)
	}
	runtime.GC()
	before := readRuntime()
	stopHeap := sampleHeapPeak(10 * time.Millisecond)
	t0 := time.Now()
	if w.sweep {
		if err := runSweep(jobs, chk); err != nil {
			stopHeap()
			return nil, err
		}
	} else {
		runWorld(jobs[0], chk)
	}
	untraced := time.Since(t0).Seconds()
	heapPeak := stopHeap()
	after := readRuntime()

	runtime.GC()
	l := &ledger{log: log, chk: chk, spans: map[string]float64{},
		tables: map[string]float64{}, counts: map[string]float64{}}
	var prof bytes.Buffer
	t1 := time.Now()
	var err error
	if w.sweep {
		err = l.sweep(jobs, &prof)
	} else {
		err = l.world(jobs[0], &prof)
	}
	if err != nil {
		return nil, err
	}
	traced := time.Since(t1).Seconds()

	p, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	shares, samples := cpuShares(p)
	m := l.metrics()
	for _, mod := range append(append([]string(nil), modules...), bucketGC, bucketOther) {
		m[mod+".cpu_frac"] = shares[mod]
	}
	m["profile.unlisted_frac"] = 0 // repository packages missing from modules
	for b, s := range shares {
		if _, listed := m[b+".cpu_frac"]; !listed {
			m["profile.unlisted_frac"] += s
		}
	}
	m["profile.samples"] = float64(samples)

	d := make([]float64, len(before))
	for i := range d {
		d[i] = after[i] - before[i]
	}
	m["runtime.alloc_mb"] = d[0] / (1 << 20)
	m["runtime.allocs"] = d[1]
	m["runtime.gc_cycles"] = d[2]
	m["runtime.gc_cpu_frac"] = ratio(d[3], d[5]-d[4])
	m["runtime.heap_peak_mb"] = heapPeak
	m["trace.overhead_frac"] = ratio(traced, untraced) - 1
	m["check.failed_frac"] = ratio(float64(chk.failed), float64(chk.attempted))
	fmt.Fprintf(log, "untraced %.3fs, traced %.3fs, %d profile samples\n", untraced, traced, samples)
	return m, nil
}
