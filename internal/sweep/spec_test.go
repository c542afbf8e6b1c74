package sweep

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"ntpddos/internal/scenario"
)

func TestParseSeeds(t *testing.T) {
	cases := []struct {
		spec string
		want []uint64
		err  bool
	}{
		{spec: "1", want: []uint64{1}},
		{spec: "1-4", want: []uint64{1, 2, 3, 4}},
		{spec: "1,5,9-11", want: []uint64{1, 5, 9, 10, 11}},
		{spec: " 2 , 3 ", want: []uint64{2, 3}},
		{spec: "", err: true},
		{spec: "x", err: true},
		{spec: "5-2", err: true},
		{spec: "1-999999", err: true},
	}
	for _, c := range cases {
		got, err := ParseSeeds(c.spec)
		if c.err {
			if err == nil {
				t.Errorf("ParseSeeds(%q) accepted, want error", c.spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSeeds(%q): %v", c.spec, err)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("ParseSeeds(%q) = %v, want %v", c.spec, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("ParseSeeds(%q) = %v, want %v", c.spec, got, c.want)
				break
			}
		}
	}
}

func TestSpecGridShapes(t *testing.T) {
	base := scenario.TestConfig()
	base.Scale = 2000

	spec := Spec{
		Name:   "sens",
		Seeds:  "1-3",
		Scales: []int{2000, 4000},
		Detect: "both",
		Spoof:  []float64{0.25, 0.5},
	}
	g, err := spec.Grid(base)
	if err != nil {
		t.Fatal(err)
	}
	jobs := g.Jobs()
	// 3 seeds x 2 scales x detect{off,on} x spoof{0.25,0.5} = 24 jobs.
	if len(jobs) != 24 {
		t.Fatalf("grid expanded %d jobs, want 24", len(jobs))
	}
	if n, err := spec.NumJobs(); err != nil || n != 24 {
		t.Fatalf("NumJobs = %d, %v, want 24", n, err)
	}
	if jobs[0].ID != "sens/scale=2000/detect=off/spoof=0.25/seed=1" {
		t.Fatalf("first job ID = %q", jobs[0].ID)
	}
	for _, j := range jobs {
		switch j.Params["spoof"] {
		case "0.25":
			if j.Cfg.SpooferFraction != 0.25 {
				t.Fatalf("job %s spoof = %v", j.ID, j.Cfg.SpooferFraction)
			}
		case "0.5":
			if j.Cfg.SpooferFraction != 0.5 {
				t.Fatalf("job %s spoof = %v", j.ID, j.Cfg.SpooferFraction)
			}
		default:
			t.Fatalf("job %s missing spoof param", j.ID)
		}
		if (j.Params["detect"] == "on") != (j.Cfg.Detector != nil) {
			t.Fatalf("job %s detector mismatch: %v", j.ID, j.Cfg.Detector)
		}
	}

	// TimeSync is a base setting; TimeAttack expands as a grid dimension.
	g, err = Spec{Seeds: "1", TimeSync: 16, TimeAttack: []float64{0, 0.5}}.Grid(base)
	if err != nil {
		t.Fatal(err)
	}
	tsJobs := g.Jobs()
	if len(tsJobs) != 2 {
		t.Fatalf("timeattack grid expanded %d jobs, want 2", len(tsJobs))
	}
	for _, j := range tsJobs {
		if j.Cfg.TimeSync.Clients != 16 {
			t.Fatalf("job %s timesync clients = %d", j.ID, j.Cfg.TimeSync.Clients)
		}
	}
	if tsJobs[0].Cfg.TimeAttackShare != 0 || tsJobs[1].Cfg.TimeAttackShare != 0.5 {
		t.Fatalf("timeattack shares: %v / %v",
			tsJobs[0].Cfg.TimeAttackShare, tsJobs[1].Cfg.TimeAttackShare)
	}

	// Spoof 0 means "nobody spoofs", and Config reads it as given.
	g, err = Spec{Seeds: "1", Spoof: []float64{0}}.Grid(base)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Jobs()[0].Cfg.SpooferFraction; got != 0 {
		t.Fatalf("spoof=0 mapped to %v, want 0 (nobody spoofs)", got)
	}

	// Hazard knob lands on RemediationHazard.
	g, err = Spec{Seeds: "1", Hazard: []float64{0.5, 2}}.Grid(base)
	if err != nil {
		t.Fatal(err)
	}
	jobs = g.Jobs()
	if len(jobs) != 2 || jobs[0].Cfg.RemediationHazard != 0.5 || jobs[1].Cfg.RemediationHazard != 2 {
		t.Fatalf("hazard jobs: %+v", jobs)
	}

	// Scale override and End truncation land on the base config.
	g, err = Spec{Seeds: "1", Scale: 4000, End: "2014-01-17"}.Grid(base)
	if err != nil {
		t.Fatal(err)
	}
	j := g.Jobs()[0]
	if j.Cfg.Scale != 4000 {
		t.Fatalf("scale override: %d", j.Cfg.Scale)
	}
	if want := time.Date(2014, 1, 17, 0, 0, 0, 0, time.UTC); !j.Cfg.End.Equal(want) {
		t.Fatalf("end truncation: %v", j.Cfg.End)
	}

	// Campaign-shape knobs expand the grid and land on the config.
	g, err = Spec{
		Seeds:   "1",
		Vectors: []string{"dns-any", "ssdp"},
		Pulse:   []float64{0, 0.3},
		Carpet:  []float64{0.2},
		Multi:   []float64{0.1},
	}.Grid(base)
	if err != nil {
		t.Fatal(err)
	}
	jobs = g.Jobs()
	if len(jobs) != 2 {
		t.Fatalf("campaign grid expanded %d jobs, want 2", len(jobs))
	}
	j = jobs[1]
	if j.ID != "pulse=0.3/carpet=0.2/multi=0.1/seed=1" {
		t.Fatalf("campaign job ID = %q", j.ID)
	}
	if len(j.Cfg.ExtraVectors) != 2 || j.Cfg.ExtraVectors[0] != "dns-any" {
		t.Fatalf("vectors not applied: %v", j.Cfg.ExtraVectors)
	}
	if j.Cfg.PulseWaveShare != 0.3 || j.Cfg.CarpetBombShare != 0.2 || j.Cfg.MultiVectorShare != 0.1 {
		t.Fatalf("shares not applied: %+v", j.Cfg)
	}
	if jobs[0].Cfg.PulseWaveShare != 0 {
		t.Fatalf("pulse=0 cell leaked a share: %v", jobs[0].Cfg.PulseWaveShare)
	}

	// Fault knobs expand the grid and land on Config.Faults.
	g, err = Spec{
		Seeds:    "1",
		Loss:     []float64{0, 0.1},
		Dup:      []float64{0.05},
		Reorder:  []float64{0.02},
		Flap:     []float64{0.25},
		Sample:   []int{1, 16},
		Outage:   []float64{0.5},
		Blackout: []float64{0.3},
	}.Grid(base)
	if err != nil {
		t.Fatal(err)
	}
	jobs = g.Jobs()
	if len(jobs) != 4 { // loss{0,0.1} x sample{1,16}
		t.Fatalf("fault grid expanded %d jobs, want 4", len(jobs))
	}
	j = jobs[3]
	if j.ID != "loss=0.1/dup=0.05/reorder=0.02/flap=0.25/outage=0.5/blackout=0.3/sample=16/seed=1" {
		t.Fatalf("fault job ID = %q", j.ID)
	}
	f := j.Cfg.Faults
	if f.Loss != 0.1 || f.Dup != 0.05 || f.Reorder != 0.02 || f.FlapRate != 0.25 ||
		f.FlowSampleN != 16 || f.CollectorOutage != 0.5 || f.SensorBlackout != 0.3 {
		t.Fatalf("fault knobs not applied: %+v", f)
	}
	if fz := jobs[0].Cfg.Faults; fz.Loss != 0 || fz.FlowSampleN != 1 {
		t.Fatalf("zero-fault cell leaked: %+v", fz)
	}

	// Largest campaign shares summing to 1 pass despite float rounding.
	g, err = Spec{Seeds: "1", Pulse: []float64{0.1}, Carpet: []float64{0.2}, Multi: []float64{0.7}}.Grid(base)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(g.Jobs()); got != 1 {
		t.Fatalf("shares summing to 1 expanded %d jobs, want 1", got)
	}

	// A spec with no fault knobs leaves Faults zero — the provably-inert path.
	g, err = Spec{Seeds: "1"}.Grid(base)
	if err != nil {
		t.Fatal(err)
	}
	if f := g.Jobs()[0].Cfg.Faults; f != (scenario.FaultConfig{}) {
		t.Fatalf("fault-free spec armed the fault plane: %+v", f)
	}
}

// TestSpecRejectsBadFieldsWithValue walks every validation branch in
// Spec.Grid and ParseSeeds and checks the error names the offending value —
// the contract that makes a rejected daemon job self-explanatory without
// re-reading the submitted spec.
func TestSpecRejectsBadFieldsWithValue(t *testing.T) {
	base := scenario.TestConfig()
	cases := []struct {
		name string
		spec Spec
		want string // offending value, must appear in the error
	}{
		{"seeds empty", Spec{Seeds: ""}, `""`},
		{"seeds garbage", Spec{Seeds: "zz"}, `"zz"`},
		{"seeds inverted range", Spec{Seeds: "5-2"}, `"5-2"`},
		{"seeds huge range", Spec{Seeds: "1-999999"}, `"1-999999"`},
		{"scale negative", Spec{Seeds: "1", Scale: -5}, "-5"},
		{"scales zero entry", Spec{Seeds: "1", Scales: []int{2000, 0}}, "scales[1] 0"},
		{"end not a date", Spec{Seeds: "1", End: "not-a-date"}, `"not-a-date"`},
		{"detect bad word", Spec{Seeds: "1", Detect: "sometimes"}, `"sometimes"`},
		{"noremediation bad word", Spec{Seeds: "1", NoRemediation: "maybe"}, `"maybe"`},
		{"vector unknown", Spec{Seeds: "1", Vectors: []string{"smurf"}}, `"smurf"`},
		{"vector empty", Spec{Seeds: "1", Vectors: []string{""}}, `vectors[0] ""`},
		{"vector monlist redundant", Spec{Seeds: "1", Vectors: []string{"monlist"}}, `"monlist"`},
		{"pulse negative", Spec{Seeds: "1", Pulse: []float64{-0.1}}, "pulse[0] -0.1"},
		{"pulse above one", Spec{Seeds: "1", Pulse: []float64{0.5, 1.5}}, "pulse[1] 1.5"},
		{"carpet negative", Spec{Seeds: "1", Carpet: []float64{-1}}, "carpet[0] -1"},
		{"carpet above one", Spec{Seeds: "1", Carpet: []float64{2}}, "carpet[0] 2"},
		{"multi negative", Spec{Seeds: "1", Multi: []float64{-0.01}}, "multi[0] -0.01"},
		{"multi above one", Spec{Seeds: "1", Multi: []float64{1.01}}, "multi[0] 1.01"},
		{"loss negative", Spec{Seeds: "1", Loss: []float64{-0.1}}, "loss[0] -0.1"},
		{"loss at one", Spec{Seeds: "1", Loss: []float64{0.1, 1}}, "loss[1] 1"},
		{"dup negative", Spec{Seeds: "1", Dup: []float64{-0.5}}, "dup[0] -0.5"},
		{"dup above one", Spec{Seeds: "1", Dup: []float64{1.5}}, "dup[0] 1.5"},
		{"reorder negative", Spec{Seeds: "1", Reorder: []float64{-0.01}}, "reorder[0] -0.01"},
		{"reorder at one", Spec{Seeds: "1", Reorder: []float64{1}}, "reorder[0] 1"},
		{"flap negative", Spec{Seeds: "1", Flap: []float64{-1}}, "flap[0] -1"},
		{"flap at one", Spec{Seeds: "1", Flap: []float64{1}}, "flap[0] 1"},
		{"sample zero", Spec{Seeds: "1", Sample: []int{4, 0}}, "sample[1] 0"},
		{"sample negative", Spec{Seeds: "1", Sample: []int{-2}}, "sample[0] -2"},
		{"outage negative", Spec{Seeds: "1", Outage: []float64{-0.25}}, "outage[0] -0.25"},
		{"outage at one", Spec{Seeds: "1", Outage: []float64{1}}, "outage[0] 1"},
		{"blackout negative", Spec{Seeds: "1", Blackout: []float64{-0.3}}, "blackout[0] -0.3"},
		{"blackout at one", Spec{Seeds: "1", Blackout: []float64{1}}, "blackout[0] 1"},
		{"timesync negative", Spec{Seeds: "1", TimeSync: -4}, "-4"},
		{"timeattack negative", Spec{Seeds: "1", TimeSync: 8, TimeAttack: []float64{-0.5}}, "timeattack[0] -0.5"},
		{"timeattack above one", Spec{Seeds: "1", TimeSync: 8, TimeAttack: []float64{0.5, 1.5}}, "timeattack[1] 1.5"},
		{"timeattack without timesync", Spec{Seeds: "1", TimeAttack: []float64{0.5}}, "timesync"},
		{"spoof above one", Spec{Seeds: "1", Spoof: []float64{0.5, 1.7}}, "spoof[1] 1.7"},
		{"spoof negative", Spec{Seeds: "1", Spoof: []float64{-0.3}}, "spoof[0] -0.3"},
		{"hazard zero", Spec{Seeds: "1", Hazard: []float64{0}}, "hazard[0] 0"},
		{"hazard negative", Spec{Seeds: "1", Hazard: []float64{1, -2}}, "hazard[1] -2"},
		{"hazard zero points to noremediation", Spec{Seeds: "1", Hazard: []float64{0}}, "noremediation"},
		{"campaign shares above one", Spec{Seeds: "1", Pulse: []float64{0, 0.6}, Carpet: []float64{0.6}, Multi: []float64{0.5}},
			"pulse+carpet+multi 0.6+0.6+0.5"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := c.spec.Grid(base)
			if err == nil {
				t.Fatalf("spec %+v accepted, want error", c.spec)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not name the offending value %q", err, c.want)
			}
		})
	}
}

// TestSpecJSONRoundTrip pins the wire format the daemon accepts: the same
// struct the CLI builds marshals to the documented JSON field names.
func TestSpecJSONRoundTrip(t *testing.T) {
	in := `{"name":"fig3","seeds":"1-4","scale":4000,"end":"2014-01-17","detect":"both","spoof":[0,0.25],"hazard":[0.5,2]}`
	var s Spec
	if err := json.Unmarshal([]byte(in), &s); err != nil {
		t.Fatal(err)
	}
	if s.Name != "fig3" || s.Seeds != "1-4" || s.Scale != 4000 ||
		s.Detect != "both" || len(s.Spoof) != 2 || len(s.Hazard) != 2 {
		t.Fatalf("decoded spec: %+v", s)
	}
	n, err := s.NumJobs()
	if err != nil || n != 4*2*2*2 {
		t.Fatalf("NumJobs = %d, %v, want 32", n, err)
	}
	out, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatal(err)
	}
	if back.Seeds != s.Seeds || back.Name != s.Name || back.Scale != s.Scale ||
		len(back.Spoof) != len(s.Spoof) || len(back.Hazard) != len(s.Hazard) {
		t.Fatalf("round trip drift: %+v vs %+v", back, s)
	}
}

// TestKnobTableCoversSpec pins the knob table to the Spec struct: every
// JSON field is one of the basics or the table entry named by its JSON key,
// pointing at that field, so the JSON key, flag name and manifest knob name
// cannot drift apart.
func TestKnobTableCoversSpec(t *testing.T) {
	basics := map[string]bool{"name": true, "seeds": true, "scale": true, "scales": true, "end": true}
	byName := map[string]knob{}
	for _, k := range knobs {
		if _, dup := byName[k.name]; dup {
			t.Fatalf("knob %q listed twice", k.name)
		}
		byName[k.name] = k
	}
	var s Spec
	sv := reflect.ValueOf(&s).Elem()
	for i := 0; i < sv.NumField(); i++ {
		key, _, _ := strings.Cut(sv.Type().Field(i).Tag.Get("json"), ",")
		if basics[key] {
			continue
		}
		k, ok := byName[key]
		if !ok {
			t.Errorf("Spec field %s (json %q) has no knob table entry", sv.Type().Field(i).Name, key)
			continue
		}
		delete(byName, key)
		if got := reflect.ValueOf(k.field(&s)); got.Pointer() != sv.Field(i).Addr().Pointer() ||
			got.Type() != sv.Field(i).Addr().Type() {
			t.Errorf("knob %q points at another field than json %q", k.name, key)
		}
	}
	for name := range byName {
		t.Errorf("knob %q matches no Spec JSON key", name)
	}
}
