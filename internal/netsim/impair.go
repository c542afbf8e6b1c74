package netsim

import (
	"time"

	"ntpddos/internal/netaddr"
	"ntpddos/internal/rng"
	"ntpddos/internal/vtime"
)

// Impairment configures the fabric's fault-injection stage: per-link packet
// loss, duplication, bounded reordering, and link flap windows, all driven by
// a private RNG stream. The zero value is provably inert — SetImpairment with
// an all-zero config leaves the fabric on the exact code path of a fabric
// that never heard of faults, so golden digests are unchanged.
type Impairment struct {
	// Loss is the mean per-packet drop probability. Each link's actual rate
	// is Loss scaled by a deterministic per-link factor in [0.5, 1.5), so
	// some paths are consistently worse than others.
	Loss float64
	// Dup is the probability a delivered packet is duplicated in transit;
	// duplicates arrive after an extra deterministic delay and are observed
	// by the taps like any other packet.
	Dup float64
	// Reorder is the probability a batch takes a slow detour, adding up to
	// reorderDelay of extra latency so later sends can overtake it.
	Reorder float64
	// FlapRate is the long-run fraction of flapPeriod windows each link
	// spends down; while a link is down every batch on it is dropped whole.
	FlapRate float64
}

const (
	// reorderDelay bounds the detour latency of a reordered batch.
	reorderDelay = 150 * time.Millisecond
	// flapPeriod is the link-flap window length.
	flapPeriod = time.Hour
)

// Enabled reports whether any fault rate is nonzero.
func (im Impairment) Enabled() bool {
	return im.Loss > 0 || im.Dup > 0 || im.Reorder > 0 || im.FlapRate > 0
}

// impairState is the armed fault stage. It exists only when some rate is
// nonzero; the hot path gates on the nil pointer.
type impairState struct {
	cfg  Impairment
	src  *rng.Source
	salt uint64
}

// SetImpairment arms (or, with a zero-rate config, disarms) fault injection.
// src must be a stream private to the fault plane — the stage draws from it
// on every impaired send, and isolating it is what keeps fault-free streams
// byte-identical between impaired and clean worlds.
func (n *Network) SetImpairment(cfg Impairment, src *rng.Source) {
	if !cfg.Enabled() {
		n.impair = nil
		return
	}
	n.impair = &impairState{cfg: cfg, src: src, salt: src.Uint64()}
}

// linkDown reports whether the (origin, dst) link is inside a flap window at
// the given time. The decision is a pure hash of (link, window index, world
// salt): consistent for the whole window, uncorrelated across windows and
// links, and free of RNG draws, so flap schedules cannot shift when other
// fault rates change.
func (st *impairState) linkDown(origin, dst netaddr.Addr, now time.Time) bool {
	if st.cfg.FlapRate <= 0 {
		return false
	}
	w := uint64(now.Sub(vtime.Epoch) / flapPeriod)
	h := rng.Mix64(pairHash(origin, dst) ^ st.salt ^ w*0x9e3779b97f4a7c15)
	return rng.Unit(h) < st.cfg.FlapRate
}

// linkLoss returns the per-link effective loss probability: the configured
// mean scaled by a hash-derived factor in [0.5, 1.5), clamped to [0, 1].
func (st *impairState) linkLoss(origin, dst netaddr.Addr) float64 {
	if st.cfg.Loss <= 0 {
		return 0
	}
	factor := 0.5 + rng.Unit(rng.Mix64(pairHash(origin, dst)^st.salt^0xc2b2ae3d27d4eb4f))
	p := st.cfg.Loss * factor
	if p > 1 {
		p = 1
	}
	return p
}
