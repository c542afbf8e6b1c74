package metrics

// Labeled families. A Vec is a named metric partitioned by label values
// ("one time series per (site, proto) pair"). Lookup is a read-locked map
// hit; callers on hot paths should resolve their child once and hold the
// *Counter/*Gauge/*Histogram (the ispview taps do exactly that).
//
// Cardinality is bounded: past DefaultMaxCardinality distinct label sets,
// further lookups share one overflow child whose label values are all
// "other". Nil Vecs (disabled instrumentation) return nil children, which
// no-op.

// CounterVec is a counter family partitioned by labels.
type CounterVec struct{ fam *family }

// NewCounterVec registers (or finds) a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{fam: r.lookup(name, help, KindCounter, labels, nil)}
}

// With returns the counter for the given label values.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.fam.getChild(values).counter
}

// GaugeVec is a gauge family partitioned by labels.
type GaugeVec struct{ fam *family }

// NewGaugeVec registers (or finds) a labeled gauge family.
func (r *Registry) NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{fam: r.lookup(name, help, KindGauge, labels, nil)}
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.fam.getChild(values).gauge
}

// HistogramVec is a histogram family partitioned by labels.
type HistogramVec struct{ fam *family }

// NewHistogramVec registers (or finds) a labeled histogram family over the
// given bucket bounds.
func (r *Registry) NewHistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return &HistogramVec{fam: r.lookup(name, help, KindHistogram, labels, bounds)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.fam.getChild(values).hist
}

// SetMaxCardinality adjusts the family's label-set bound (children already
// materialized are kept even if above the new bound).
func (v *CounterVec) SetMaxCardinality(n int) {
	if v == nil || n < 1 {
		return
	}
	v.fam.mu.Lock()
	v.fam.maxCard = n
	v.fam.mu.Unlock()
}
