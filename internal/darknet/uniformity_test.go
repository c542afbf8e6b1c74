package darknet

import (
	"testing"
	"time"

	"ntpddos/internal/netaddr"
	"ntpddos/internal/ntp"
	"ntpddos/internal/packet"
	"ntpddos/internal/vtime"
)

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

func TestTelescopeScannerLikeSources(t *testing.T) {
	prefix := netaddr.MustParsePrefix("35.0.0.0/8")
	tel := New(prefix, 1.0)
	probe := ntp.NewMonlistRequest(ntp.ImplXNTPD, ntp.ReqMonGetList1)
	now := vtime.Epoch

	// A sweeping scanner touches dark space broadly and evenly.
	scanner := netaddr.MustParseAddr("198.51.100.7")
	step := prefix.NumAddrs() / 64
	for i := 0; i < 64; i++ {
		dst := prefix.Nth(uint64(i) * step)
		dg := packet.NewDatagram(scanner, 40000, dst, ntp.Port, probe)
		observeOne(tel, dg, now.Add(time.Duration(i)*time.Second))
	}
	// A targeted burst hammers one dark /24.
	burster := netaddr.MustParseAddr("203.0.113.9")
	for i := 0; i < 64; i++ {
		dg := packet.NewDatagram(burster, 40000, prefix.Nth(uint64(i%4)), ntp.Port, probe)
		observeOne(tel, dg, now.Add(time.Duration(i)*time.Second))
	}

	if n := tel.ScannerLikeSources(DefaultScannerScore); n != 1 {
		t.Fatalf("ScannerLikeSources = %d, want 1 (the sweep, not the burst)", n)
	}
	spread, ok := tel.SourceSpread(scanner)
	if !ok || len(spread) != scanBins {
		t.Fatalf("SourceSpread missing for scanner (ok=%v len=%d)", ok, len(spread))
	}
	if _, ok := tel.SourceSpread(netaddr.MustParseAddr("192.0.2.1")); ok {
		t.Fatal("SourceSpread reported a never-seen source")
	}
}
