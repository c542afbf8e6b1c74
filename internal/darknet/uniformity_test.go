package darknet

import "testing"

func TestUniformityScoreExtremes(t *testing.T) {
	uniform := []float64{5, 5, 5, 5, 5, 5, 5, 5}
	if got := UniformityScore(uniform); got < 0.999 {
		t.Fatalf("uniform profile scored %.3f, want ~1", got)
	}
	single := []float64{0, 0, 40, 0, 0, 0, 0, 0}
	if got := UniformityScore(single); got != 0 {
		t.Fatalf("single-target profile scored %.3f, want 0", got)
	}
	// Even coverage of a quarter of the targets is penalized by the
	// full-set normalizer.
	partial := []float64{10, 10, 0, 0, 0, 0, 0, 0}
	if got := UniformityScore(partial); got < 0.3 || got > 0.4 {
		t.Fatalf("2-of-8 profile scored %.3f, want log2/log8≈0.33", got)
	}
	if UniformityScore(nil) != 0 || UniformityScore([]float64{3}) != 0 {
		t.Fatal("degenerate profiles must score 0")
	}
}

func TestScannerLike(t *testing.T) {
	sweep := make([]float64, 16)
	for i := range sweep {
		sweep[i] = 3 + float64(i%2) // near-uniform
	}
	if !ScannerLike(sweep, 8, DefaultScannerScore) {
		t.Fatal("full sweep not classified scanner-like")
	}
	burst := make([]float64, 16)
	burst[3], burst[7] = 500, 480
	if ScannerLike(burst, 8, DefaultScannerScore) {
		t.Fatal("2-bucket burst classified scanner-like")
	}
}
