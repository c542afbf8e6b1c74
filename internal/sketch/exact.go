package sketch

import "sort"

// The exact twins answer the same queries as the sketches with unbounded
// memory. They exist for the property tests — every published error bound is
// asserted against them, not taken on faith — and for offline cross-checks
// where memory is not a concern.

// ExactCount counts keys exactly; ExactTopK ranks by it.
type ExactCount struct {
	counts map[uint64]int64
}

// NewExactCount builds an empty exact counter.
func NewExactCount() *ExactCount {
	return &ExactCount{counts: make(map[uint64]int64)}
}

// Add records n occurrences of key.
func (e *ExactCount) Add(key uint64, n int64) {
	if n <= 0 {
		return
	}
	e.counts[key] += n
}

// Estimate returns the true count.
func (e *ExactCount) Estimate(key uint64) int64 { return e.counts[key] }

// ExactDistinct is the exact twin of HLL.
type ExactDistinct struct {
	seen map[uint64]struct{}
}

// NewExactDistinct builds an empty distinct counter.
func NewExactDistinct() *ExactDistinct {
	return &ExactDistinct{seen: make(map[uint64]struct{})}
}

// Add observes one element.
func (e *ExactDistinct) Add(key uint64) { e.seen[key] = struct{}{} }

// Count returns the true cardinality.
func (e *ExactDistinct) Count() int { return len(e.seen) }

// ExactTopK is the exact twin of SpaceSaving: full counts, true top-n.
type ExactTopK struct {
	counts *ExactCount
}

// NewExactTopK builds an empty exact top-k counter.
func NewExactTopK() *ExactTopK {
	return &ExactTopK{counts: NewExactCount()}
}

// Add records n occurrences of key.
func (e *ExactTopK) Add(key uint64, n int64) { e.counts.Add(key, n) }

// Top returns the true n highest-count entries (count descending, key
// ascending on ties — the same order SpaceSaving reports).
func (e *ExactTopK) Top(n int) []TopEntry {
	out := make([]TopEntry, 0, len(e.counts.counts))
	for k, c := range e.counts.counts {
		out = append(out, TopEntry{Key: k, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	if n < len(out) {
		out = out[:n]
	}
	return out
}
