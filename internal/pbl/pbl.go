// Package pbl models the Spamhaus Policy Block List: a registry of address
// ranges that belong to end-user (residential/dynamic) pools rather than
// servers. The paper uses the PBL (taken 2014-04-18) to label amplifier and
// victim IPs as "end hosts" — the Table 1 columns and the §6.1 observation
// that remediation is slower for end hosts.
package pbl

import (
	"ntpddos/internal/asdb"
	"ntpddos/internal/netaddr"
	"ntpddos/internal/rng"
)

// List is a set of end-user prefixes supporting membership lookups. Like the
// real PBL it is maintained at prefix granularity, mostly by the operators
// of the listed (residential ISP) networks themselves.
type List struct {
	byLen [33]map[netaddr.Addr]struct{}
	n     int
}

// New returns an empty list.
func New() *List { return &List{} }

// Add lists a prefix as end-user space.
func (l *List) Add(p netaddr.Prefix) {
	if l.byLen[p.Bits] == nil {
		l.byLen[p.Bits] = make(map[netaddr.Addr]struct{})
	}
	if _, dup := l.byLen[p.Bits][p.Base]; !dup {
		l.byLen[p.Bits][p.Base] = struct{}{}
		l.n++
	}
}

// NumPrefixes returns the number of listed prefixes.
func (l *List) NumPrefixes() int { return l.n }

// IsEndHost reports whether addr falls inside any listed prefix.
func (l *List) IsEndHost(a netaddr.Addr) bool {
	for bits := 32; bits >= 0; bits-- {
		m := l.byLen[bits]
		if m == nil {
			continue
		}
		base := a
		if bits < 32 {
			base = a &^ (1<<(32-bits) - 1)
		}
		if _, ok := m[base]; ok {
			return true
		}
	}
	return false
}

// CountEndHosts returns how many of addrs are end hosts — the Table 1
// "End Hosts" column.
func (l *List) CountEndHosts(addrs []netaddr.Addr) int {
	n := 0
	for _, a := range addrs {
		if l.IsEndHost(a) {
			n++
		}
	}
	return n
}

// The coverage mix that yields the paper's observed end-host fractions
// when combined with the scenario's host placement.
const (
	// residentialCoverage is the fraction of each residential/telecom AS's
	// allocations that are PBL-listed. Real PBL coverage of eyeball space is
	// high but not total.
	residentialCoverage = 0.90
	// enterpriseCoverage is the (small) fraction of enterprise allocations
	// listed, modeling dynamic office pools.
	enterpriseCoverage = 0.10
)

// Derive builds a PBL from the AS database: residential and telecom
// allocations are listed (at /16-or-longer granularity, as the real PBL
// does), along with a sliver of enterprise space.
func Derive(db *asdb.DB, src *rng.Source) *List {
	l := New()
	for _, as := range db.ASes {
		var coverage float64
		switch as.Type {
		case asdb.Residential:
			coverage = residentialCoverage
		case asdb.Telecom:
			// Telecom ASes mix infrastructure and subscriber pools.
			coverage = residentialCoverage * 0.7
		case asdb.Enterprise:
			coverage = enterpriseCoverage
		default:
			continue
		}
		for _, p := range as.Prefixes {
			bits := p.Bits
			if bits < 16 {
				bits = 16
			}
			for _, sub := range p.Subdivide(bits) {
				if src.Bool(coverage) {
					l.Add(sub)
				}
			}
		}
	}
	return l
}
