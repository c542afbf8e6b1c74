package sketch

import (
	"fmt"
	"math"
	"math/bits"
)

// HLL is a dense HyperLogLog cardinality estimator (Flajolet et al. 2007)
// with the small-range linear-counting correction. With m = 2^precision
// registers the relative standard error is ≈ 1.04/√m. Two HLLs built with
// the same precision and seed merge by register-wise max, yielding exactly
// the sketch of the union stream.
type HLL struct {
	precision uint8
	seed      uint64
	regs      []uint8
}

// MinPrecision and MaxPrecision bound the register-count exponent.
const (
	MinPrecision = 4
	MaxPrecision = 16
)

// NewHLL builds an estimator with 2^precision one-byte registers.
func NewHLL(precision uint8, seed uint64) *HLL {
	if precision < MinPrecision || precision > MaxPrecision {
		panic(fmt.Sprintf("sketch: HLL precision %d out of range [%d,%d]",
			precision, MinPrecision, MaxPrecision))
	}
	return &HLL{precision: precision, seed: seed, regs: make([]uint8, 1<<precision)}
}

// StdError returns the theoretical relative standard error 1.04/√m.
func (h *HLL) StdError() float64 { return 1.04 / math.Sqrt(float64(len(h.regs))) }

// Add observes one element.
func (h *HLL) Add(key uint64) {
	x := mix64(key ^ h.seed)
	idx := x >> (64 - h.precision)
	// Rank of the first set bit in the remaining stream; the sentinel bit
	// caps it at 64-precision+1 for the all-zero tail.
	rest := x<<h.precision | 1<<(h.precision-1)
	rho := uint8(bits.LeadingZeros64(rest)) + 1
	if rho > h.regs[idx] {
		h.regs[idx] = rho
	}
}

// alpha returns the bias-correction constant α_m.
func (h *HLL) alpha() float64 {
	m := float64(len(h.regs))
	switch len(h.regs) {
	case 16:
		return 0.673
	case 32:
		return 0.697
	case 64:
		return 0.709
	}
	return 0.7213 / (1 + 1.079/m)
}

// Estimate returns the cardinality estimate.
func (h *HLL) Estimate() float64 {
	m := float64(len(h.regs))
	sum := 0.0
	zeros := 0
	for _, r := range h.regs {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	e := h.alpha() * m * m / sum
	if e <= 2.5*m && zeros > 0 {
		// Small-range correction: linear counting over empty registers.
		return m * math.Log(m/float64(zeros))
	}
	return e
}

// Merge folds other into h (register-wise max). The two sketches must share
// precision and seed; anything else would silently estimate garbage.
func (h *HLL) Merge(other *HLL) error {
	if other.precision != h.precision || other.seed != h.seed {
		return fmt.Errorf("sketch: merging incompatible HLLs (precision %d/%d, seeds %#x/%#x)",
			h.precision, other.precision, h.seed, other.seed)
	}
	for i, r := range other.regs {
		if r > h.regs[i] {
			h.regs[i] = r
		}
	}
	return nil
}
