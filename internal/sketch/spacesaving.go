package sketch

import (
	"fmt"
	"sort"
)

// TopEntry is one SpaceSaving summary entry. Count over-estimates the true
// count by at most Err (the count the entry inherited when it evicted the
// previous minimum), so Count−Err is a guaranteed lower bound.
type TopEntry struct {
	Key   uint64
	Count int64
	Err   int64
}

// SpaceSaving is the Metwally et al. (2005) top-k summary: it tracks at most
// k keys; an unmonitored key evicts the current minimum and inherits its
// count as error. For any key, the summary's estimate over-counts by at most
// N/k, and when the guarantee predicate holds the reported top-k is exactly
// the true top-k.
type SpaceSaving struct {
	k       int
	entries map[uint64]*ssEntry
	heap    []*ssEntry // min-heap by (count, key) — deterministic tie-break
}

type ssEntry struct {
	key     uint64
	count   int64
	err     int64
	heapIdx int
}

// NewSpaceSaving builds a summary with capacity k.
func NewSpaceSaving(k int) *SpaceSaving {
	if k < 1 {
		panic(fmt.Sprintf("sketch: SpaceSaving capacity %d < 1", k))
	}
	return &SpaceSaving{k: k, entries: make(map[uint64]*ssEntry, k)}
}

// Len returns the number of monitored keys.
func (s *SpaceSaving) Len() int { return len(s.entries) }

// less orders heap entries by count, breaking ties on the key so the evicted
// minimum — and therefore the whole summary — is independent of map order.
func (s *SpaceSaving) less(a, b *ssEntry) bool {
	if a.count != b.count {
		return a.count < b.count
	}
	return a.key < b.key
}

func (s *SpaceSaving) swap(i, j int) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
	s.heap[i].heapIdx = i
	s.heap[j].heapIdx = j
}

func (s *SpaceSaving) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(s.heap[i], s.heap[parent]) {
			return
		}
		s.swap(i, parent)
		i = parent
	}
}

func (s *SpaceSaving) down(i int) {
	n := len(s.heap)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && s.less(s.heap[l], s.heap[smallest]) {
			smallest = l
		}
		if r < n && s.less(s.heap[r], s.heap[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		s.swap(i, smallest)
		i = smallest
	}
}

// Add records n occurrences of key.
func (s *SpaceSaving) Add(key uint64, n int64) {
	if n <= 0 {
		return
	}
	if e, ok := s.entries[key]; ok {
		e.count += n
		s.down(e.heapIdx)
		return
	}
	if len(s.entries) < s.k {
		e := &ssEntry{key: key, count: n, heapIdx: len(s.heap)}
		s.entries[key] = e
		s.heap = append(s.heap, e)
		s.up(e.heapIdx)
		return
	}
	// Evict the minimum: the newcomer inherits its count as error.
	min := s.heap[0]
	delete(s.entries, min.key)
	min.err = min.count
	min.count += n
	min.key = key
	s.entries[key] = min
	s.down(0)
}

// Top returns the n highest-count entries, ordered by count descending with
// the key as deterministic tie-break.
func (s *SpaceSaving) Top(n int) []TopEntry {
	out := make([]TopEntry, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, TopEntry{Key: e.key, Count: e.count, Err: e.err})
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

// GuaranteedTop reports whether the summary's first n entries are provably
// the true top-n: every one of them has a guaranteed count (Count−Err) at
// least the observed count of the first entry outside the n.
func (s *SpaceSaving) GuaranteedTop(n int) bool {
	all := s.Top(len(s.entries))
	if n >= len(all) {
		return false // the boundary is unobserved; nothing to compare against
	}
	boundary := all[n].Count
	for _, e := range all[:n] {
		if e.Count-e.Err < boundary {
			return false
		}
	}
	return true
}
