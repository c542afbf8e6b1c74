package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"ntpddos"
	"ntpddos/internal/detect"
	"ntpddos/internal/scenario"
)

// workload is one named set of inputs. Every workload is a closed loop in
// one process: the next unit starts when the previous one has been checked.
type workload struct {
	name string
	// sweep marks a workload whose unit of work is one sweep over all its
	// jobs through the sweep pool; otherwise its single job is one world,
	// run alone from Config to checked digest.
	sweep bool
	// jobs makes the workload's inputs from the seed.
	jobs func(seed uint64) []ntpddos.SweepJob
	// want returns the pinned digest per job ID for this seed, or nil when
	// none is pinned; the checker then requires every repetition of a job
	// to repeat its first digest.
	want func(seed uint64) (map[string]string, error)
}

var workloads = []workload{
	{
		// The quick-start user path: almost all of it is attack traffic
		// through vtime/netsim/ntpd/ntp/ispview.
		name: "quick-window",
		jobs: func(seed uint64) []ntpddos.SweepJob {
			cfg := ntpddos.QuickConfig()
			cfg.Seed = seed
			return []ntpddos.SweepJob{{ID: fmt.Sprintf("quick-window/seed=%d", seed), Cfg: cfg}}
		},
		want: pinnedWorld("quick-window"),
	},
	{
		// The BenchmarkScaleWorld hosts=100k rung (~75k registered hosts):
		// work that grows with population — Build, MRU refresh, survey
		// fan-out, GC — dominates here and barely shows in quick-window.
		name: "hosts-100k",
		jobs: func(seed uint64) []ntpddos.SweepJob {
			cfg := ntpddos.DefaultConfig()
			cfg.Scale = 54
			cfg.End = time.Date(2014, 1, 17, 0, 0, 0, 0, time.UTC)
			cfg.FabricAttackDivisor = 4
			cfg.Seed = seed
			return []ntpddos.SweepJob{{ID: fmt.Sprintf("hosts-100k/seed=%d", seed), Cfg: cfg}}
		},
		want: pinnedWorld("hosts-100k"),
	},
	{
		// The only workload that exercises the sweep pool and the detect,
		// timesync, timeattack, reflector and impairment planes.
		name:  "golden-corpus",
		sweep: true,
		jobs:  goldenJobs,
		want:  func(uint64) (map[string]string, error) { return readGolden() },
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// pins.json records, per workload, the default seed, the digest of the
// world that seed makes, and a held-out seed for re-checking a claimed gain
// on inputs no change was tuned on.
//
//go:embed pins.json
var pinsJSON []byte

type pin struct {
	DefaultSeed uint64 `json:"default_seed"`
	HeldOutSeed uint64 `json:"held_out_seed"`
	Digest      string `json:"digest,omitempty"`
}

func loadPins() (map[string]pin, error) {
	var pins map[string]pin
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return pins, nil
}

// pinnedWorld pins a world workload's digest at its default seed.
func pinnedWorld(name string) func(uint64) (map[string]string, error) {
	return func(seed uint64) (map[string]string, error) {
		pins, err := loadPins()
		if err != nil {
			return nil, err
		}
		p, ok := pins[name]
		if !ok {
			return nil, fmt.Errorf("pins.json: no entry for %s", name)
		}
		if seed != p.DefaultSeed || p.Digest == "" {
			return nil, nil
		}
		return map[string]string{fmt.Sprintf("%s/seed=%d", name, seed): p.Digest}, nil
	}
}

// goldenPath is the corpus the root package's golden test pins, read in
// place from the repository root the benchmark runs in.
const goldenPath = "testdata/golden_digests.json"

func readGolden() (map[string]string, error) {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, fmt.Errorf("reading golden corpus: %w", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath, err)
	}
	for _, j := range goldenJobs(0) {
		if want[j.ID] == "" {
			return nil, fmt.Errorf("%s: no digest for %s", goldenPath, j.ID)
		}
	}
	return want, nil
}

// goldenJobs rebuilds the nine configurations of the root package's golden
// corpus (goldenJobs in golden_test.go). Their digests are checked against
// the pinned file, so the two lists cannot drift apart unnoticed. The three
// long jobs (faults ~17 s, timeattack ~11 s, timesync ~5 s alone) always
// reach the pool first, longest first, so the two workers finish close
// together whatever the seed; the seed only rotates the order of the six
// short ones, which barely moves the makespan.
func goldenJobs(seed uint64) []ntpddos.SweepJob {
	base := ntpddos.QuickConfig()
	base.Scale = 4000
	base.End = time.Date(2014, 1, 17, 0, 0, 0, 0, time.UTC)
	base.Seed = 1

	sensors := base
	sensors.Seed = 7
	sensors.HoneypotSensors = 24

	knobs := base
	knobs.Seed = 3
	knobs.NoRemediation = true
	knobs.SpooferFraction = 0.5
	dcfg := detect.DefaultConfig()
	knobs.Detector = &dcfg

	pulse := base
	pulse.Seed = 11
	pulse.ExtraVectors = []string{"dns-any", "ssdp", "chargen"}
	pulse.PulseWaveShare = 0.35

	carpet := base
	carpet.Seed = 13
	carpet.ExtraVectors = []string{"dns-any", "chargen"}
	carpet.CarpetBombShare = 0.4

	multi := base
	multi.Seed = 17
	multi.ExtraVectors = []string{"dns-any", "ssdp", "chargen"}
	multi.MultiVectorShare = 0.4

	faults := base
	faults.Scale = 8000
	faults.Seed = 19
	faults.PulseWaveShare = 0.3
	fcfg := detect.DefaultConfig()
	faults.Detector = &fcfg
	faults.Faults = scenario.FaultConfig{
		Loss: 0.08, Dup: 0.04, Reorder: 0.05, FlapRate: 0.05,
		FlowSampleN: 4, CollectorOutage: 0.2, SensorBlackout: 0.2,
	}

	timesyncJob := base
	timesyncJob.Seed = 23
	timesyncJob.TimeSync.Clients = 16

	timeattackJob := timesyncJob
	timeattackJob.Seed = 29
	timeattackJob.TimeAttackShare = 0.5
	tacfg := detect.DefaultConfig()
	timeattackJob.Detector = &tacfg

	short := []ntpddos.SweepJob{
		{ID: "base/seed=1", Experiment: "base", Cfg: base},
		{ID: "sensors24/seed=7", Experiment: "sensors24", Cfg: sensors},
		{ID: "knobs/seed=3", Experiment: "knobs", Cfg: knobs},
		{ID: "pulse/seed=11", Experiment: "pulse", Cfg: pulse},
		{ID: "carpet/seed=13", Experiment: "carpet", Cfg: carpet},
		{ID: "multivector/seed=17", Experiment: "multivector", Cfg: multi},
	}
	r := int(seed % uint64(len(short)))
	jobs := []ntpddos.SweepJob{
		{ID: "faults/seed=19", Experiment: "faults", Cfg: faults},
		{ID: "timeattack/seed=29", Experiment: "timeattack", Cfg: timeattackJob},
		{ID: "timesync/seed=23", Experiment: "timesync", Cfg: timesyncJob},
	}
	jobs = append(jobs, short[r:]...)
	return append(jobs, short[:r]...)
}
