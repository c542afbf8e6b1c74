// Package metrics is a zero-dependency, concurrency-safe observability
// subsystem in the Prometheus mold: counters, gauges and histograms —
// plain and labeled — collected in a Registry that encodes the text
// exposition format (version 0.0.4) for scraping, plus an HTTP exporter
// serving /metrics and /healthz.
//
// The package exists because the paper's story is told through
// continuously-observed operational feeds (Arbor telemetry, weekly ONP
// sweeps, ISP taps); a reproduction that runs for minutes as a black box
// cannot be trusted, tuned or sped up. Every hot layer of the simulation
// (fabric, scheduler, scanner, daemons, attack engine, honeypot fleet,
// telemetry/ISP ingest) exposes optional instrumentation built on these
// types.
//
// Two properties are load-bearing:
//
//   - Hot paths are a single atomic op (Counter.Inc/Add, Gauge.Set,
//     Histogram.Observe), safe to call from the simulation thread while an
//     exporter goroutine scrapes concurrently. No locks on the write path.
//
//   - Every method is nil-receiver safe: a nil *Counter (instrumentation
//     disabled) no-ops for the cost of one predictable branch, so
//     instrumented code never guards call sites and a run with metrics off
//     pays essentially nothing. Instrumentation must also be provably free
//     of behavioral effect — metric writes never touch RNG or virtual-time
//     state, which the seed-determinism test pins by running the full
//     scenario with metrics on and off and comparing report digests.
package metrics

import (
	"math"
	"sort"
	"sync/atomic"
)

// Counter is a monotonically increasing integer counter. The zero value is
// ready to use; a nil *Counter no-ops.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add increases the counter by n. Negative n is ignored (counters are
// monotonic; a decreasing counter breaks every rate() over it).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 value that can go up and down. The zero value is ready
// to use; a nil *Gauge no-ops.
type Gauge struct {
	bits atomic.Uint64 // math.Float64bits of the value
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// SetInt stores an integer value.
func (g *Gauge) SetInt(v int64) { g.Set(float64(v)) }

// Add increments the gauge by delta (negative deltas decrease it).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into cumulative buckets, Prometheus-style:
// fixed upper bounds chosen at construction, an implicit +Inf bucket, and a
// running sum. Observe is one binary search plus two atomic ops. A nil
// *Histogram no-ops.
type Histogram struct {
	// bounds are the finite bucket upper bounds, sorted ascending. counts
	// has len(bounds)+1 entries; the last is the +Inf overflow. Counts are
	// stored per-bucket (non-cumulative) so Observe touches exactly one
	// slot; the encoder accumulates.
	bounds  []float64
	counts  []atomic.Int64
	sumBits atomic.Uint64
}

// newHistogram builds a histogram over the given bounds (sorted, deduped;
// a trailing +Inf is stripped since it is implicit).
func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	out := bs[:0]
	for i, b := range bs {
		if math.IsInf(b, +1) || (i > 0 && b == bs[i-1]) {
			continue
		}
		out = append(out, b)
	}
	return &Histogram{bounds: out, counts: make([]atomic.Int64, len(out)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bucket whose upper bound is >= v ("le" is inclusive).
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var total int64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	return total
}

// Sum returns the sum of observations (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// snapshot returns cumulative bucket counts aligned with bounds plus the
// +Inf total, and the sum. Reading each slot once keeps the snapshot
// internally consistent enough for scraping (Prometheus semantics).
func (h *Histogram) snapshot() (cum []int64, total int64, sum float64) {
	cum = make([]int64, len(h.bounds))
	var acc int64
	for i := range h.bounds {
		acc += h.counts[i].Load()
		cum[i] = acc
	}
	total = acc + h.counts[len(h.bounds)].Load()
	return cum, total, h.Sum()
}

// DefBuckets are general-purpose latency-style buckets (seconds).
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// ExponentialBuckets returns count bucket bounds starting at start, each
// factor times the previous — the right shape for byte sizes and packet
// counts, which span orders of magnitude.
func ExponentialBuckets(start, factor float64, count int) []float64 {
	if start <= 0 || factor <= 1 || count < 1 {
		panic("metrics: ExponentialBuckets requires start > 0, factor > 1, count >= 1")
	}
	out := make([]float64, count)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}
