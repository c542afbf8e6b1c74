// Package rng provides the simulation's single source of deterministic
// randomness plus the heavy-tailed distributions the paper's populations
// exhibit (amplifier response sizes, per-AS concentration, attack volumes).
//
// Everything in the library draws from one seeded Source so that an identical
// configuration reproduces byte-identical experiment output. The generator is
// the standard library's PCG (math/rand/v2).
package rng

import (
	"math"
	"math/rand/v2"
	"sort"
)

// Source is a deterministic random source. It embeds *rand.Rand, so all the
// standard draw methods (IntN, Float64, Perm, ...) are available directly.
type Source struct {
	*rand.Rand
}

// New returns a Source seeded from a single 64-bit seed.
func New(seed uint64) *Source {
	return &Source{Rand: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))}
}

// Fork derives an independent child source from this one, labeled by name.
// Subsystems fork their own stream at construction so that adding draws to
// one subsystem does not perturb another — a property the per-experiment
// calibration depends on.
func (s *Source) Fork(name string) *Source {
	h := fnv64(name)
	return &Source{Rand: rand.New(rand.NewPCG(s.Uint64()^h, h*0x2545f4914f6cdd1d+1))}
}

func fnv64(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// Mix64 is the murmur3 64-bit finalizer. Subsystems hash a structured key (an
// address pair, a window index) through it to derive a per-key property —
// path length, a flap or outage schedule, a poll phase — without drawing
// from any stream, so the property never shifts when draws elsewhere change.
func Mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Unit maps a 64-bit hash onto [0, 1) by its top 53 bits.
func Unit(h uint64) float64 {
	return float64(h>>11) * 0x1p-53
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Pareto draws from a Pareto distribution with scale xm > 0 and shape
// alpha > 0. Heavy tails like the paper's mega-amplifier byte counts come
// from small alpha values.
func (s *Source) Pareto(xm, alpha float64) float64 {
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// LogNormal draws from a log-normal distribution with the given mu and sigma
// of the underlying normal.
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*s.NormFloat64())
}

// Poisson draws from a Poisson distribution with the given mean, using
// inversion for small means and the normal approximation for large ones.
func (s *Source) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 60 {
		n := int(math.Round(mean + math.Sqrt(mean)*s.NormFloat64()))
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= s.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Binomial draws the number of successes among n independent trials each
// succeeding with probability p. Degenerate inputs (p <= 0, n <= 0, p >= 1)
// return without consuming any randomness, which is what lets zero-rate
// fault configurations leave every other stream untouched. Small n uses the
// exact Bernoulli loop; large n uses the normal approximation, mirroring
// Poisson above.
func (s *Source) Binomial(n int64, p float64) int64 {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if n > 64 {
		mean := float64(n) * p
		k := int64(math.Round(mean + math.Sqrt(mean*(1-p))*s.NormFloat64()))
		if k < 0 {
			k = 0
		}
		if k > n {
			k = n
		}
		return k
	}
	var k int64
	for i := int64(0); i < n; i++ {
		if s.Float64() < p {
			k++
		}
	}
	return k
}

// Zipf returns a generator of Zipf-distributed values in [0, n) with
// exponent sExp (>1) — used for rank-concentration effects such as the
// top-100-ASes-take-75%-of-packets CDF in Figure 5.
func (s *Source) Zipf(sExp float64, n uint64) *rand.Zipf {
	if n == 0 {
		n = 1
	}
	return rand.NewZipf(s.Rand, sExp, 1, n-1)
}

// Weighted selects an index in [0, len(weights)) with probability
// proportional to its weight. Zero or negative total weight panics:
// a silent fallback would bias every downstream distribution.
func (s *Source) Weighted(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		panic("rng: Weighted requires positive total weight")
	}
	x := s.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// WeightedTable is a precomputed cumulative table for repeated weighted
// draws over the same weights (used for the Table 2 OS-string and Table 4
// port distributions, which are sampled millions of times).
type WeightedTable struct {
	cum []float64
}

// NewWeightedTable builds a table from weights. Non-positive weights are
// treated as zero. An all-zero table panics.
func NewWeightedTable(weights []float64) *WeightedTable {
	cum := make([]float64, len(weights))
	total := 0.0
	for i, w := range weights {
		if w > 0 {
			total += w
		}
		cum[i] = total
	}
	if total <= 0 {
		panic("rng: NewWeightedTable requires positive total weight")
	}
	return &WeightedTable{cum: cum}
}

// Draw returns an index distributed per the table's weights.
func (t *WeightedTable) Draw(s *Source) int {
	x := s.Float64() * t.cum[len(t.cum)-1]
	return sort.SearchFloat64s(t.cum, x)
}

// Len returns the number of entries in the table.
func (t *WeightedTable) Len() int { return len(t.cum) }

// SamplePartition splits total into n non-negative integer parts whose sizes
// follow a Zipf-like rank distribution with the given exponent. Used to carve
// address space into AS-sized allocations. n must be > 0 and total >= 0.
func (s *Source) SamplePartition(total, n int, exponent float64) []int {
	if n <= 0 {
		panic("rng: SamplePartition requires n > 0")
	}
	weights := make([]float64, n)
	sum := 0.0
	for i := range weights {
		w := 1 / math.Pow(float64(i+1), exponent)
		// Jitter so equal-rank allocations differ between worlds.
		w *= 0.5 + s.Float64()
		weights[i] = w
		sum += w
	}
	parts := make([]int, n)
	assigned := 0
	for i, w := range weights {
		p := int(float64(total) * w / sum)
		parts[i] = p
		assigned += p
	}
	// Distribute the integer remainder to the largest parts first.
	for i := 0; assigned < total; i = (i + 1) % n {
		parts[i]++
		assigned++
	}
	return parts
}
