// Package stats provides the summary statistics the paper reports: quantiles,
// five-number boxplot summaries (Figures 4b/4c), CDFs over ranked categories
// (Figure 5), histograms, and simple time-bucketed series.
package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Quantile returns the q'th quantile (0 <= q <= 1) of values using linear
// interpolation between order statistics (the same convention as numpy's
// default). It returns NaN for an empty input.
func Quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean, or NaN for an empty input.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// Sum returns the total of values.
func Sum(values []float64) float64 {
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum
}

// BoxPlot is a five-number summary plus the mean — one box of the paper's
// Figure 4b/4c BAF boxplots ("minimum, first quartile, median, third
// quartile, and maximum").
type BoxPlot struct {
	Min, Q1, Median, Q3, Max float64
	Mean                     float64
	N                        int
}

// NewBoxPlot summarises values. An empty input yields a zero BoxPlot with
// N == 0 and NaN statistics.
func NewBoxPlot(values []float64) BoxPlot {
	if len(values) == 0 {
		nan := math.NaN()
		return BoxPlot{Min: nan, Q1: nan, Median: nan, Q3: nan, Max: nan, Mean: nan}
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	return BoxPlot{
		Min:    sorted[0],
		Q1:     quantileSorted(sorted, 0.25),
		Median: quantileSorted(sorted, 0.5),
		Q3:     quantileSorted(sorted, 0.75),
		Max:    sorted[len(sorted)-1],
		Mean:   Mean(sorted),
		N:      len(sorted),
	}
}

// String renders the summary compactly for table output.
func (b BoxPlot) String() string {
	return fmt.Sprintf("n=%d min=%.4g q1=%.4g med=%.4g q3=%.4g max=%.4g mean=%.4g",
		b.N, b.Min, b.Q1, b.Median, b.Q3, b.Max, b.Mean)
}

// RankedCDF describes cumulative share versus rank: sort the per-category
// totals descending, then CDF[i] is the fraction of the grand total
// contributed by the top i+1 categories. This is exactly the paper's
// Figure 5 ("Just 100 amplifier ASes are responsible for 60% of the victim
// packets").
type RankedCDF struct {
	// Totals holds per-category totals sorted descending.
	Totals []float64
	// Cumulative holds the running fraction of the grand total.
	Cumulative []float64
	GrandTotal float64
}

// NewRankedCDF builds a ranked CDF from per-category totals (any order).
func NewRankedCDF(totals []float64) RankedCDF {
	sorted := make([]float64, len(totals))
	copy(sorted, totals)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	grand := Sum(sorted)
	cum := make([]float64, len(sorted))
	run := 0.0
	for i, v := range sorted {
		run += v
		if grand > 0 {
			cum[i] = run / grand
		}
	}
	return RankedCDF{Totals: sorted, Cumulative: cum, GrandTotal: grand}
}

// ShareOfTop returns the fraction of the grand total held by the top n
// categories (0 if the CDF is empty).
func (c RankedCDF) ShareOfTop(n int) float64 {
	if len(c.Cumulative) == 0 || n <= 0 {
		return 0
	}
	if n > len(c.Cumulative) {
		n = len(c.Cumulative)
	}
	return c.Cumulative[n-1]
}

// Histogram counts occurrences of integer-valued observations (TTL modes,
// port tallies). Keys are preserved; use Mode or TopK for reporting.
type Histogram struct {
	counts map[int]int64
	total  int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make(map[int]int64)}
}

// Add increments the count of value by n.
func (h *Histogram) Add(value int, n int64) {
	h.counts[value] += n
	h.total += n
}

// Count returns the count for value.
func (h *Histogram) Count(value int) int64 { return h.counts[value] }

// Total returns the sum of all counts.
func (h *Histogram) Total() int64 { return h.total }

// Mode returns the most frequent value and its count. Ties break toward the
// smaller value so output is deterministic. The second return is false for
// an empty histogram.
func (h *Histogram) Mode() (value int, count int64, ok bool) {
	if h.total == 0 {
		return 0, 0, false
	}
	first := true
	for v, c := range h.counts {
		if first || c > count || (c == count && v < value) {
			value, count, first = v, c, false
		}
	}
	return value, count, true
}

// Bin is one entry of a TopK result.
type Bin struct {
	Value    int
	Count    int64
	Fraction float64
}

// TopK returns the k most frequent values with fractions of the total,
// ordered by descending count (ties toward smaller value). This is the shape
// of the paper's Table 4 attacked-ports ranking.
func (h *Histogram) TopK(k int) []Bin {
	bins := make([]Bin, 0, len(h.counts))
	for v, c := range h.counts {
		f := 0.0
		if h.total > 0 {
			f = float64(c) / float64(h.total)
		}
		bins = append(bins, Bin{Value: v, Count: c, Fraction: f})
	}
	sort.Slice(bins, func(i, j int) bool {
		if bins[i].Count != bins[j].Count {
			return bins[i].Count > bins[j].Count
		}
		return bins[i].Value < bins[j].Value
	})
	if k < len(bins) {
		bins = bins[:k]
	}
	return bins
}

// TimeSeries accumulates float values into fixed time buckets — the daily,
// hourly and monthly series behind Figures 1, 7, 8, 9, 11 and 12.
type TimeSeries struct {
	bucket time.Duration
	origin time.Time
	data   map[int64]float64

	// Write-back cache for the most recently touched bucket. Simulated
	// traffic arrives in time order, so consecutive Adds overwhelmingly hit
	// the same (hourly) bucket; accumulating locally and flushing on bucket
	// change turns millions of map assigns into one per bucket. The float
	// additions happen in the same order as the uncached version, so sums
	// are bit-identical.
	curIdx int64
	curVal float64
	curOK  bool
	// lastT short-circuits the Sub/divide in index() for the repeated
	// identical timestamps event bursts produce. Virtual times carry no
	// monotonic reading, so == is a pure value comparison here.
	lastT time.Time
}

// NewTimeSeries returns a series bucketed at the given granularity, with
// buckets aligned to origin. Bucket must be positive.
func NewTimeSeries(origin time.Time, bucket time.Duration) *TimeSeries {
	if bucket <= 0 {
		panic("stats: TimeSeries bucket must be positive")
	}
	return &TimeSeries{bucket: bucket, origin: origin, data: make(map[int64]float64)}
}

func (ts *TimeSeries) index(t time.Time) int64 {
	return int64(t.Sub(ts.origin) / ts.bucket)
}

// flush writes the cached bucket back to the map. Reads must call it first.
func (ts *TimeSeries) flush() {
	if ts.curOK {
		ts.data[ts.curIdx] = ts.curVal
	}
}

// Add accumulates v into t's bucket.
func (ts *TimeSeries) Add(t time.Time, v float64) {
	if ts.curOK && t == ts.lastT {
		ts.curVal += v
		return
	}
	idx := ts.index(t)
	if !ts.curOK || idx != ts.curIdx {
		ts.flush()
		ts.curIdx, ts.curVal, ts.curOK = idx, ts.data[idx], true
	}
	ts.lastT = t
	ts.curVal += v
}

// At returns the accumulated value for t's bucket (0 if empty).
func (ts *TimeSeries) At(t time.Time) float64 {
	ts.flush()
	return ts.data[ts.index(t)]
}

// Point is one (time, value) sample of a series.
type Point struct {
	Time  time.Time
	Value float64
}

// Points returns all non-empty buckets in time order.
func (ts *TimeSeries) Points() []Point {
	ts.flush()
	idx := make([]int64, 0, len(ts.data))
	for i := range ts.data {
		idx = append(idx, i)
	}
	sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
	out := make([]Point, len(idx))
	for n, i := range idx {
		out[n] = Point{Time: ts.origin.Add(time.Duration(i) * ts.bucket), Value: ts.data[i]}
	}
	return out
}

// Max returns the maximum bucket value and its time. ok is false when the
// series is empty.
func (ts *TimeSeries) Max() (p Point, ok bool) {
	for _, pt := range ts.Points() {
		if !ok || pt.Value > p.Value {
			p, ok = pt, true
		}
	}
	return p, ok
}

// Len returns the number of non-empty buckets.
func (ts *TimeSeries) Len() int {
	ts.flush()
	return len(ts.data)
}

// Percentile95 implements the 95th-percentile billing rule used by transit
// providers (and by Merit, per §7.1): sort the interval samples, drop the
// top 5%, and bill at the highest remaining sample.
func Percentile95(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	sort.Float64s(sorted)
	idx := int(math.Ceil(0.95*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
