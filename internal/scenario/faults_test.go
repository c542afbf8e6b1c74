package scenario

import (
	"testing"
	"time"

	"ntpddos/internal/detect"
)

// TestFaultConfigGates pins which fault surface each knob arms: the fabric
// stage runs only if the impairment is Enabled and the detector's vantage
// changes only if it is Degraded. Sensor blackouts arm neither; the
// honeypot fleet gates them itself.
func TestFaultConfigGates(t *testing.T) {
	for _, tc := range []struct {
		f               FaultConfig
		fabric, vantage bool
	}{
		{f: FaultConfig{}},
		{f: FaultConfig{FlowSampleN: 1}}, // 1-in-1 sampling is a perfect vantage
		{f: FaultConfig{Loss: 0.1}, fabric: true},
		{f: FaultConfig{Dup: 0.1}, fabric: true},
		{f: FaultConfig{Reorder: 0.1}, fabric: true},
		{f: FaultConfig{FlapRate: 0.1}, fabric: true},
		{f: FaultConfig{FlowSampleN: 4}, vantage: true},
		{f: FaultConfig{CollectorOutage: 0.2}, vantage: true},
		{f: FaultConfig{SensorBlackout: 0.2}},
	} {
		if got := tc.f.impairment().Enabled(); got != tc.fabric {
			t.Errorf("%+v: fabric armed %v, want %v", tc.f, got, tc.fabric)
		}
		if got := tc.f.vantage().Degraded(); got != tc.vantage {
			t.Errorf("%+v: vantage degraded %v, want %v", tc.f, got, tc.vantage)
		}
	}
}

// TestFaultPlaneEndToEnd runs a short window with every fault surface armed
// and checks each one left its fingerprint: fabric loss/dup/flap accounting,
// honeypot blackout drops, and detector alarms degraded below full
// confidence — while the run itself stays deterministic.
func TestFaultPlaneEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-plane run skipped in -short mode")
	}
	cfg := TestConfig()
	cfg.End = time.Date(2014, 1, 20, 0, 0, 0, 0, time.UTC)
	dcfg := detect.DefaultConfig()
	cfg.Detector = &dcfg
	cfg.Faults = FaultConfig{
		Loss: 0.08, Dup: 0.05, Reorder: 0.05, FlapRate: 0.05,
		FlowSampleN: 4, CollectorOutage: 0.25, SensorBlackout: 0.25,
	}
	res := Run(cfg)

	st := res.World.Net.Stats()
	if st.DroppedLoss == 0 || st.Duplicated == 0 || st.DroppedFlap == 0 {
		t.Fatalf("fabric faults left no trace: %+v", st)
	}
	if st.Reordered == 0 {
		t.Fatalf("no batches reordered: %+v", st)
	}
	if res.World.Honeypots.BlackoutDropped() == 0 {
		t.Fatal("sensor blackouts dropped nothing")
	}
	alarms := res.World.Detect.Alarms()
	if len(alarms) == 0 {
		t.Fatal("degraded detector raised no alarms over the attack wave")
	}
	for _, a := range alarms {
		// 1-in-4 sampling caps confidence at 0.25 before the outage factor.
		if a.Confidence <= 0 || a.Confidence > 0.25 {
			t.Fatalf("alarm confidence %.3f under SampleN=4, want (0, 0.25]", a.Confidence)
		}
	}
	// Same faulty config, same world: the impairment stream is seeded.
	twin := Run(cfg)
	if twin.World.Net.Stats() != st {
		t.Fatalf("faulty run is nondeterministic:\n%+v\n%+v", twin.World.Net.Stats(), st)
	}
}
