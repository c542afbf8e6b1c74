package scenario

import "testing"

func TestBuildCountsAtScales(t *testing.T) {
	for _, scale := range []int{400, 1000, 2000} {
		cfg := DefaultConfig()
		cfg.Scale = scale
		w := Build(cfg)
		want := int(float64(cfg.scaled(initialAmplifiers)) / (1 - oldImplFraction))
		got := w.NumAmplifiers()
		if got < want || got > want+200 {
			t.Fatalf("scale %d: built %d amplifiers, want >= %d", scale, got, want)
		}
	}
}
