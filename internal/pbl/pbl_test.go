package pbl

import (
	"testing"

	"ntpddos/internal/asdb"
	"ntpddos/internal/netaddr"
	"ntpddos/internal/rng"
)

func TestAddAndLookup(t *testing.T) {
	l := New()
	l.Add(netaddr.MustParsePrefix("10.1.0.0/16"))
	if !l.IsEndHost(netaddr.MustParseAddr("10.1.200.9")) {
		t.Fatal("listed address not matched")
	}
	if l.IsEndHost(netaddr.MustParseAddr("10.2.0.1")) {
		t.Fatal("unlisted address matched")
	}
	if l.NumPrefixes() != 1 {
		t.Fatalf("NumPrefixes = %d", l.NumPrefixes())
	}
}

func TestAddIdempotent(t *testing.T) {
	l := New()
	p := netaddr.MustParsePrefix("192.0.2.0/24")
	l.Add(p)
	l.Add(p)
	if l.NumPrefixes() != 1 {
		t.Fatalf("duplicate Add counted twice: %d", l.NumPrefixes())
	}
}

func TestCountEndHosts(t *testing.T) {
	l := New()
	l.Add(netaddr.MustParsePrefix("198.51.100.0/24"))
	addrs := []netaddr.Addr{
		netaddr.MustParseAddr("198.51.100.1"),
		netaddr.MustParseAddr("198.51.100.2"),
		netaddr.MustParseAddr("203.0.113.1"),
	}
	if got := l.CountEndHosts(addrs); got != 2 {
		t.Fatalf("CountEndHosts = %d, want 2", got)
	}
}

func TestDeriveListsResidentialNotHosting(t *testing.T) {
	db := asdb.Build(rng.New(5), asdb.Config{NumASes: 400, SpooferFraction: 0.25})
	l := Derive(db, rng.New(6))
	src := rng.New(7)

	listed := 0
	for _, as := range db.OfType(asdb.Residential) {
		for i := 0; i < 5; i++ {
			if l.IsEndHost(as.RandomAddr(src)) {
				listed++
			}
		}
	}
	if listed == 0 {
		t.Fatal("no residential address PBL-listed")
	}
	for _, as := range db.OfType(asdb.Hosting) {
		for i := 0; i < 5; i++ {
			if l.IsEndHost(as.RandomAddr(src)) {
				t.Fatalf("hosting AS%d address PBL-listed", as.Number)
			}
		}
	}
}

// listedFraction samples addresses of every AS of type typ and returns the
// share the list covers.
func listedFraction(l *List, db *asdb.DB, typ asdb.ASType, src *rng.Source) float64 {
	listed, total := 0, 0
	for _, as := range db.OfType(typ) {
		for i := 0; i < 50; i++ {
			total++
			if l.IsEndHost(as.RandomAddr(src)) {
				listed++
			}
		}
	}
	return float64(listed) / float64(total)
}

func TestDerivePartialCoverage(t *testing.T) {
	db := asdb.Build(rng.New(5), asdb.Config{NumASes: 400, SpooferFraction: 0.25})
	l := Derive(db, rng.New(8))
	src := rng.New(9)
	if frac := listedFraction(l, db, asdb.Residential, src); frac < residentialCoverage-0.1 || frac >= 1 {
		t.Fatalf("residential coverage %v lists %.2f of residential addresses", residentialCoverage, frac)
	}
	if frac := listedFraction(l, db, asdb.Enterprise, src); frac <= 0 || frac > enterpriseCoverage+0.1 {
		t.Fatalf("enterprise coverage %v lists %.2f of enterprise addresses", enterpriseCoverage, frac)
	}
}

func TestDeriveDeterministic(t *testing.T) {
	db := asdb.Build(rng.New(5), asdb.Config{NumASes: 200, SpooferFraction: 0.25})
	a := Derive(db, rng.New(10))
	b := Derive(db, rng.New(10))
	if a.NumPrefixes() != b.NumPrefixes() {
		t.Fatalf("same-seed derive differs: %d vs %d", a.NumPrefixes(), b.NumPrefixes())
	}
}
