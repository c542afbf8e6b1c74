// Package asdb builds the synthetic Internet registry the reproduction runs
// on: autonomous systems with types, countries, address allocations and
// announced (routed) blocks.
//
// The paper joins every amplifier/victim IP against exactly three registries
// — BGP origin (routed block + ASN), GeoIP (country/continent), and the
// Spamhaus PBL (end-host labeling). This package provides the first two; the
// pbl package derives the third from the AS types generated here.
//
// Well-known networks from the paper are modeled by name so experiments can
// reference them: OVH (top victim AS, §4.4), CloudFlare, Merit (AS237),
// CSU and FRGP (the §7 regional views), and the Table 6 victim ASes.
package asdb

import (
	"fmt"

	"ntpddos/internal/geo"
	"ntpddos/internal/netaddr"
	"ntpddos/internal/rng"
	"ntpddos/internal/routing"
)

// ASType classifies an autonomous system. The type drives where NTP servers
// live (infrastructure vs. end hosts), PBL listing, and remediation speed
// (§6.1: "remediation was more likely to happen at servers that are
// professionally managed versus at workstations").
type ASType int

// AS types.
const (
	Hosting ASType = iota
	Telecom
	Residential
	Education
	Enterprise
	CDN
	numASTypes
)

// NumASTypes is the number of distinct AS types, for building dense
// per-type lookup tables.
const NumASTypes = int(numASTypes)

// String names the type.
func (t ASType) String() string {
	switch t {
	case Hosting:
		return "hosting"
	case Telecom:
		return "telecom"
	case Residential:
		return "residential"
	case Education:
		return "education"
	case Enterprise:
		return "enterprise"
	case CDN:
		return "cdn"
	}
	return fmt.Sprintf("ASType(%d)", int(t))
}

// AS is one autonomous system.
type AS struct {
	Number    routing.ASN
	Name      string
	Type      ASType
	Country   geo.Country
	Continent geo.Continent
	// Prefixes are the address allocations; Announced are the routed blocks
	// (each a sub-block of some allocation) visible in the routing table.
	Prefixes  []netaddr.Prefix
	Announced []netaddr.Prefix
	// AllowsSpoofing reports that the AS does not implement BCP 38/84
	// source-address validation, so hosts inside it can emit packets with
	// forged source addresses — the precondition for reflection (§1).
	AllowsSpoofing bool
}

// NumAddrs returns the total allocated address count.
func (a *AS) NumAddrs() uint64 {
	var n uint64
	for _, p := range a.Prefixes {
		n += p.NumAddrs()
	}
	return n
}

// RandomAddr draws a uniform random address from the AS's allocations.
func (a *AS) RandomAddr(src *rng.Source) netaddr.Addr {
	total := a.NumAddrs()
	if total == 0 {
		panic(fmt.Sprintf("asdb: AS%d has no address space", a.Number))
	}
	i := src.Uint64N(total)
	for _, p := range a.Prefixes {
		if i < p.NumAddrs() {
			return p.Nth(i)
		}
		i -= p.NumAddrs()
	}
	panic("unreachable")
}

// Contains reports whether addr belongs to one of the AS's allocations.
func (a *AS) Contains(addr netaddr.Addr) bool {
	for _, p := range a.Prefixes {
		if p.Contains(addr) {
			return true
		}
	}
	return false
}

// Config sizes the synthetic world.
type Config struct {
	// NumASes is the number of generated ASes in addition to the well-known
	// set. The paper-era Internet had ~46K ASes; scaled worlds use fewer.
	NumASes int
	// SpooferFraction is the fraction of ASes lacking BCP38 filtering.
	// Surveys of the era put this around a quarter of networks.
	SpooferFraction float64
}

// DB is the built registry.
type DB struct {
	ASes  []*AS
	Table *routing.Table
	// DarknetPrefix is the unused /8 the Merit telescope observes (§5.1).
	DarknetPrefix netaddr.Prefix

	byNumber map[routing.ASN]*AS
	byName   map[string]*AS

	// pickScratch is PickWeighted's reusable weight buffer. The simulation
	// drives each DB from one goroutine, and rng.Source.Weighted only reads
	// the slice, so reuse is safe and keeps the hot victim/AS draws
	// allocation-free.
	pickScratch []float64
}

// Well-known AS names, usable with DB.ByName.
const (
	NameOVH        = "OVH"
	NameCloudFlare = "CloudFlare"
	NameMerit      = "Merit"
	NameCSU        = "CSU"
	NameFRGP       = "FRGP"
)

// wellKnownSpec seeds the paper's named networks. Address space uses
// dedicated /8s so generated allocations can never collide with them.
type wellKnownSpec struct {
	name     string
	number   routing.ASN
	typ      ASType
	country  geo.Country
	prefixes []string
	announce int // announced more-specific prefix length
	spoofing bool
}

var wellKnown = []wellKnownSpec{
	// The paper's §4.4 validation attack target and top victim AS.
	{NameOVH, 16276, Hosting, "FR", []string{"94.20.0.0/14", "94.56.0.0/15"}, 18, false},
	{NameCloudFlare, 13335, CDN, "US", []string{"104.16.0.0/13"}, 16, false},
	// §7's two regional ISP vantage points. Merit's real operational
	// prefixes are around 198.108.0.0/16 and 141.211.0.0/16.
	{NameMerit, 237, Education, "US", []string{"198.108.0.0/16", "141.211.0.0/16"}, 18, false},
	{NameCSU, 12145, Education, "US", []string{"129.82.0.0/16"}, 17, false},
	{NameFRGP, 14041, Education, "US", []string{"129.19.0.0/16", "129.24.0.0/16"}, 17, false},
	// Table 6's named victim networks.
	{"OCN-JP", 4713, Telecom, "JP", []string{"153.128.0.0/12"}, 15, true},
	{"Unicom-CN", 4837, Telecom, "CN", []string{"112.224.0.0/12"}, 14, true},
	{"ServerCentral-US", 30083, Hosting, "US", []string{"204.93.0.0/17"}, 19, false},
	{"Intergenia-DE", 8972, Hosting, "DE", []string{"85.25.0.0/16"}, 18, false},
	{"Voxility-RO", 39743, Hosting, "RO", []string{"93.114.0.0/17"}, 19, false},
	{"HostBR", 28666, Hosting, "BR", []string{"177.54.0.0/16"}, 18, true},
	{"HostUK", 12390, Hosting, "GB", []string{"77.75.0.0/17"}, 19, false},
}

// reservedSlash8s are first octets never handed to the general allocator:
// well-known space, the darknet /8 (35), and conventionally unusable blocks.
var reservedSlash8s = map[int]bool{
	0: true, 10: true, 127: true, 169: true, 172: true, 192: true,
	223: true, 224: true, 240: true, 255: true,
	35: true, // Merit darknet telescope
	94: true, 104: true, 198: true, 141: true, 129: true,
	153: true, 112: true, 204: true, 85: true, 93: true, 177: true, 77: true,
}

// typeWeights is the AS-type mix of the generated population.
var typeWeights = []float64{
	Hosting:     0.16,
	Telecom:     0.18,
	Residential: 0.26,
	Education:   0.10,
	Enterprise:  0.24,
	CDN:         0.06,
}

// allocLenFor returns the allocation prefix length distribution per AS type.
func allocLenFor(t ASType, src *rng.Source) int {
	switch t {
	case Residential, Telecom:
		return 13 + src.IntN(4) // /13../16 — big eyeball pools
	case Hosting:
		return 15 + src.IntN(4) // /15../18
	case CDN:
		return 17 + src.IntN(3)
	case Education:
		return 16 + src.IntN(2)
	default: // Enterprise
		return 17 + src.IntN(4)
	}
}

// Build constructs a deterministic world from the source.
func Build(src *rng.Source, cfg Config) *DB {
	if cfg.NumASes < 0 {
		panic("asdb: negative NumASes")
	}
	db := &DB{
		Table:         routing.NewTable(),
		DarknetPrefix: netaddr.MustParsePrefix("35.0.0.0/8"),
		byNumber:      make(map[routing.ASN]*AS),
		byName:        make(map[string]*AS),
	}

	for _, spec := range wellKnown {
		cont, ok := geo.ContinentOf(spec.country)
		if !ok {
			panic("asdb: well-known AS in unknown country " + string(spec.country))
		}
		as := &AS{
			Number:         spec.number,
			Name:           spec.name,
			Type:           spec.typ,
			Country:        spec.country,
			Continent:      cont,
			AllowsSpoofing: spec.spoofing,
		}
		for _, ps := range spec.prefixes {
			p := netaddr.MustParsePrefix(ps)
			as.Prefixes = append(as.Prefixes, p)
			as.Announced = append(as.Announced, p.Subdivide(spec.announce)...)
		}
		db.add(as)
	}

	alloc := newAllocator()
	nextASN := routing.ASN(60000)
	countriesByCont := make(map[geo.Continent][]geo.Country)
	for _, c := range geo.Continents() {
		countriesByCont[c] = geo.CountriesIn(c)
	}
	contWeights := make([]float64, len(geo.Continents()))
	for i, c := range geo.Continents() {
		contWeights[i] = geo.HostShare(c)
	}

	for i := 0; i < cfg.NumASes; i++ {
		cont := geo.Continent(src.Weighted(contWeights))
		countries := countriesByCont[cont]
		country := countries[src.IntN(len(countries))]
		typ := ASType(src.Weighted(typeWeights))
		as := &AS{
			Number:         nextASN,
			Name:           fmt.Sprintf("AS%d-%s-%s", nextASN, typ, country),
			Type:           typ,
			Country:        country,
			Continent:      cont,
			AllowsSpoofing: src.Bool(cfg.SpooferFraction),
		}
		nextASN++
		nPrefixes := 1 + src.IntN(3)
		for p := 0; p < nPrefixes; p++ {
			pl := allocLenFor(typ, src)
			prefix, ok := alloc.take(pl)
			if !ok {
				break // address space exhausted; extremely large worlds only
			}
			as.Prefixes = append(as.Prefixes, prefix)
			// Announce 1..8 more-specifics of each allocation; the announced
			// granularity is what the paper calls a "routed block".
			announceBits := pl + src.IntN(4)
			if announceBits > 24 {
				announceBits = 24
			}
			as.Announced = append(as.Announced, prefix.Subdivide(announceBits)...)
		}
		if len(as.Prefixes) == 0 {
			continue
		}
		db.add(as)
	}

	db.Table.Freeze()
	return db
}

func (db *DB) add(as *AS) {
	if _, dup := db.byNumber[as.Number]; dup {
		panic(fmt.Sprintf("asdb: duplicate ASN %d", as.Number))
	}
	db.ASes = append(db.ASes, as)
	db.byNumber[as.Number] = as
	db.byName[as.Name] = as
	for _, p := range as.Announced {
		db.Table.Announce(p, as.Number)
	}
}

// ByNumber returns the AS with the given number, or nil.
func (db *DB) ByNumber(n routing.ASN) *AS { return db.byNumber[n] }

// ByName returns a named AS (see the Name* constants), or nil.
func (db *DB) ByName(name string) *AS { return db.byName[name] }

// OwnerOf returns the AS owning addr via longest-prefix match, or nil for
// dark or unallocated space.
func (db *DB) OwnerOf(a netaddr.Addr) *AS {
	asn, ok := db.Table.OriginOf(a)
	if !ok {
		return nil
	}
	return db.byNumber[asn]
}

// OfType returns all ASes of the given type in deterministic order.
func (db *DB) OfType(t ASType) []*AS {
	var out []*AS
	for _, as := range db.ASes {
		if as.Type == t {
			out = append(out, as)
		}
	}
	return out
}

// PickWeighted selects a random AS, weighting each AS by weight(as).
// ASes with non-positive weight are never selected. It returns nil when all
// weights are non-positive.
func (db *DB) PickWeighted(src *rng.Source, weight func(*AS) float64) *AS {
	if cap(db.pickScratch) < len(db.ASes) {
		db.pickScratch = make([]float64, len(db.ASes))
	}
	weights := db.pickScratch[:len(db.ASes)]
	total := 0.0
	for i, as := range db.ASes {
		w := weight(as)
		if w > 0 {
			weights[i] = w
			total += w
		} else {
			weights[i] = 0
		}
	}
	if total <= 0 {
		return nil
	}
	return db.ASes[src.Weighted(weights)]
}

// allocator hands out non-overlapping prefixes from the non-reserved /8s.
type allocator struct {
	pool   []netaddr.Prefix // /8s remaining, in ascending order
	cursor netaddr.Addr     // next free address within pool[0]
}

func newAllocator() *allocator {
	a := &allocator{}
	for o := 1; o < 224; o++ {
		if reservedSlash8s[o] {
			continue
		}
		a.pool = append(a.pool, netaddr.Prefix{Base: netaddr.Addr(o) << 24, Bits: 8})
	}
	a.cursor = a.pool[0].Base
	return a
}

// take allocates the next aligned /bits block.
func (a *allocator) take(bits int) (netaddr.Prefix, bool) {
	size := netaddr.Addr(1) << (32 - bits)
	for len(a.pool) > 0 {
		cur := a.pool[0]
		// Align the cursor up to the block size.
		aligned := (a.cursor + size - 1) &^ (size - 1)
		if aligned >= cur.Base && aligned+size-1 <= cur.Last() && aligned >= a.cursor {
			a.cursor = aligned + size
			return netaddr.Prefix{Base: aligned, Bits: bits}, true
		}
		a.pool = a.pool[1:]
		if len(a.pool) > 0 {
			a.cursor = a.pool[0].Base
		}
	}
	return netaddr.Prefix{}, false
}
