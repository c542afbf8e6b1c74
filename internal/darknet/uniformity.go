package darknet

import "math"

// Scanner-uniformity heuristic, used by the honeypot fleet's scanner
// disambiguation (internal/honeypot): an Internet-wide scanner spreads its
// probes evenly across whatever target set a vantage point exposes (dark /24
// blocks of a telescope, individual sensors of a fleet), while attack traffic
// concentrates on the subset of targets an attacker's harvested list happens
// to contain.

// UniformityScore measures how evenly traffic is spread across a fixed set
// of targets as the normalized Shannon entropy of the per-target hit counts,
// in [0, 1]. A source touching every target equally scores 1; one hammering
// a single target scores 0. The normalizer is log(len(counts)) — the full
// target set, not just the touched subset — so partial coverage is penalized
// even when the touched targets are hit evenly. Fewer than two targets, or
// fewer than two non-zero counts, score 0.
func UniformityScore(counts []float64) float64 {
	if len(counts) < 2 {
		return 0
	}
	total, nonzero := 0.0, 0
	for _, c := range counts {
		if c > 0 {
			total += c
			nonzero++
		}
	}
	if nonzero < 2 || total <= 0 {
		return 0
	}
	h := 0.0
	for _, c := range counts {
		if c <= 0 {
			continue
		}
		p := c / total
		h -= p * math.Log(p)
	}
	return h / math.Log(float64(len(counts)))
}

// ScannerLike reports whether a per-target hit profile looks like broad,
// even reconnaissance: at least minTargets distinct targets touched, with a
// uniformity score of at least minScore.
func ScannerLike(counts []float64, minTargets int, minScore float64) bool {
	nonzero := 0
	for _, c := range counts {
		if c > 0 {
			nonzero++
		}
	}
	return nonzero >= minTargets && UniformityScore(counts) >= minScore
}

// DefaultScannerScore is the honeypot fleet's uniformity threshold: broad
// sweeps score near 1, while attack bursts confined to a harvested subset of
// targets stay well below it.
const DefaultScannerScore = 0.85
