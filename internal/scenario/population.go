package scenario

import (
	"time"

	"ntpddos/internal/asdb"
	"ntpddos/internal/netaddr"
	"ntpddos/internal/ntp"
	"ntpddos/internal/ntpd"
)

// The real-world (unscaled) populations the paper reports. Config.Scale
// divides each of them but extremeMegas, which is absolute.
const (
	initialAmplifiers = 1_405_000  // monlist pool at the first ONP sample (1.4M)
	mode6Responders   = 4_000_000  // version pool (~4M, barely shrinking)
	openDNSResolvers  = 33_900_000 // open resolver pool (~33.9M)
	megaAmplifiers    = 10_000     // moderate megas, >100KB responders (~10K)
	extremeMegas      = 9          // the nine §3.4 multi-GB repeaters
	uniqueVictims     = 437_000    // victim IPs over the window (~437K)
)

// oldImplFraction is the share of amplifiers answering only the mode 7
// implementation value the ONP scanner does not send — the §3.1 blind spot
// (Kührer found ~9% more amplifiers from a second vantage).
const oldImplFraction = 0.09

// infraBatchWeights picks the AS type for a professionally-managed
// amplifier cluster.
var infraBatchWeights = map[asdb.ASType]float64{
	asdb.Hosting: 0.40, asdb.Education: 0.22,
	asdb.Enterprise: 0.26, asdb.CDN: 0.12,
}

// endHostBatchWeights picks the AS type for residential amplifier pools.
var endHostBatchWeights = map[asdb.ASType]float64{
	asdb.Residential: 0.75, asdb.Telecom: 0.25,
}

func (w *World) pickAS(weights map[asdb.ASType]float64) *asdb.AS {
	// Densify the per-type weights once per pick: the weight callback runs
	// for every AS in the registry, and an array index beats a map hash.
	var vec [asdb.NumASTypes]float64
	for t, wt := range weights {
		vec[t] = wt
	}
	return w.DB.PickWeighted(w.Src, func(as *asdb.AS) float64 {
		if as.Name == asdb.NameMerit || as.Name == asdb.NameCSU || as.Name == asdb.NameFRGP {
			return 0 // local sites are populated explicitly
		}
		return vec[as.Type]
	})
}

// pickVulnerableAS selects the AS for a new amplifier batch, strongly
// preferring ASes that already host amplifiers — vulnerability clusters in
// networks running the same distributions and management practices.
func (w *World) pickVulnerableAS(endHost bool) *asdb.AS {
	pool := &w.infraASPool
	weights := infraBatchWeights
	if endHost {
		pool = &w.endASPool
		weights = endHostBatchWeights
	}
	reuse := 0.8
	if w.asPoolFrozen {
		// Post-build arrivals overwhelmingly reappear in networks already
		// known to be vulnerable (DHCP churn, re-exposed hosts): the origin
		// AS count must *shrink* under remediation (§6.1: 15.1K -> 6.8K),
		// which it cannot if arrivals keep seeding fresh ASes.
		reuse = 0.99
	}
	if len(*pool) > 0 && w.Src.Bool(reuse) {
		return (*pool)[w.Src.IntN(len(*pool))]
	}
	as := w.pickAS(weights)
	if as != nil {
		*pool = append(*pool, as)
	}
	return as
}

// placeBatch creates n daemons in one announced block of one AS, returning
// the created servers. Addresses are consecutive from a random offset —
// "large groups of closely-addressed (and, thus, likely managed together)
// server machines" (§3.1).
func (w *World) placeBatch(as *asdb.AS, n int, build func(addr netaddr.Addr) *ntpd.Server) []*server {
	if len(as.Announced) == 0 || n <= 0 {
		return nil
	}
	block := as.Announced[w.Src.IntN(len(as.Announced))]
	span := block.NumAddrs()
	// Retry a few offsets: a random consecutive run can land entirely on an
	// earlier batch, and one empty placement must not starve the build.
	offset := w.Src.Uint64N(span)
	for try := 0; try < 8; try++ {
		if _, taken := w.Servers[block.Nth(offset)]; !taken {
			break
		}
		offset = w.Src.Uint64N(span)
	}
	batchID := w.nextBatch
	w.nextBatch++
	var out []*server
	for i := 0; i < n; i++ {
		addr := block.Nth((offset + uint64(i)) % span)
		if _, taken := w.Servers[addr]; taken {
			continue
		}
		// Register replaces bindings, so an address already carrying a
		// non-daemon host (a survey prober, a honeypot sensor) must be
		// skipped, not clobbered. The check consumes no randomness.
		if w.Net.IsRegistered(addr) {
			continue
		}
		s := &server{
			srv:     build(addr),
			as:      as,
			batch:   batchID,
			endHost: w.PBL.IsEndHost(addr),
		}
		w.Servers[addr] = s
		w.Net.Register(addr, s.srv)
		w.batches[batchID] = append(w.batches[batchID], s)
		out = append(out, s)
	}
	return out
}

// newAmplifierConfig draws a vulnerable daemon's configuration.
func (w *World) newAmplifierConfig(addr netaddr.Addr, role ntpd.Role) ntpd.Config {
	profile := ntpd.SampleProfile(w.Src, role)
	stratum := 2 + w.Src.IntN(5)
	if w.Src.Bool(0.19) { // §3.3: 19% unsynchronized
		stratum = ntp.StratumUnsynchronized
	}
	impl := uint8(ntp.ImplXNTPD)
	if w.Src.Bool(oldImplFraction) {
		impl = ntp.ImplXNTPDOld
	}
	// This draw selects nothing, since a daemon answers whichever monlist
	// flavour a request carries. It stays so that the random stream, and
	// with it every digest, does not move.
	w.Src.Bool(0.3)
	// A handful of upstream peers, disclosed by the mode 7 peer-list
	// command (§3.1's low-amplification alternative).
	peers := make([]netaddr.Addr, 1+w.Src.IntN(5))
	for i := range peers {
		peers[i] = netaddr.Addr(w.Src.Uint32())
	}
	return ntpd.Config{
		Addr:           addr,
		Stratum:        stratum,
		Profile:        profile,
		Peers:          peers,
		MonlistEnabled: true,
		// Only around a third of amplifiers also answer control queries —
		// the mix that keeps the blended Table 2 "All NTP" column
		// cisco-dominated.
		Mode6Enabled:   w.Src.Bool(0.35),
		Implementation: impl,
		ExtraVarBytes:  w.extraVarBytes(),
		Metrics:        w.ntpdM,
	}
}

// extraVarBytes draws the readvar response padding: a log-normal spread
// that produces the paper's version BAF quartiles of ≈3.5/4.6/6.9.
func (w *World) extraVarBytes() int {
	n := int(w.Src.LogNormal(5.2, 0.8)) // median ≈180B of extra variables
	if n > 6000 {
		n = 6000
	}
	return n
}

// drawClientTableSize draws a daemon's steady-state client count:
// median 6, mean ≈70 (§4.1), capped below the 600-entry table limit.
func (w *World) drawClientTableSize() int {
	// Median ~4 honest clients; survey probes and scanners add the couple
	// of entries that take the observed median table to the paper's 6.
	n := int(w.Src.LogNormal(1.3, 2.0))
	if n < 1 {
		n = 1
	}
	if n > 590 {
		n = 590
	}
	return n
}

// registerAmplifier finalizes amplifier bookkeeping for a server.
func (w *World) registerAmplifier(s *server) {
	if s.srv.Config().Implementation == ntp.ImplXNTPDOld {
		s.onlyOldImpl = true
	}
	s.clientTableSize = w.drawClientTableSize()
	w.amplifiers[s.srv.Addr()] = s
	w.ampList = nil
	if w.Src.Bool(0.092) { // §6.2: 9.2% of monlist uniques are open resolvers
		w.DNSPool.Add(s.srv.Addr())
	}
}

// buildServers creates the scaled global population: monlist amplifiers
// plus plain version-only responders. Daemons answering neither mode 6 nor
// mode 7 are invisible to every measurement in the paper and are therefore
// not materialized.
func (w *World) buildServers() {
	cfg := w.Cfg
	// Inflate the build pool so that the ONP-visible subset (those
	// accepting the probed implementation value) matches Table 1.
	nAmps := int(float64(cfg.scaled(initialAmplifiers)) / (1 - oldImplFraction))
	// Residential-batch share chosen so the realized PBL-labeled fraction
	// (including enterprise leakage) lands at Table 1's 18.5%.
	endHostTarget := 0.36

	placed, emptyBatches := 0, 0
	for placed < nAmps {
		wantEndHost := w.Src.Bool(endHostTarget)
		as := w.pickVulnerableAS(wantEndHost)
		var size int
		if wantEndHost {
			size = 4 + w.Src.IntN(16)
		} else {
			size = 8 + w.Src.IntN(28)
		}
		if as == nil {
			break
		}
		if size > nAmps-placed {
			size = nAmps - placed
		}
		batch := w.placeBatch(as, size, func(addr netaddr.Addr) *ntpd.Server {
			return ntpd.New(w.newAmplifierConfig(addr, ntpd.RoleAmplifier))
		})
		for _, s := range batch {
			w.registerAmplifier(s)
		}
		placed += len(batch)
		if len(batch) == 0 {
			emptyBatches++
			if emptyBatches > 100 {
				break // address space genuinely exhausted
			}
		}
	}

	// Mega amplifiers: moderate (>100KB) repeaters spread across the pool.
	w.assignMegas()

	// Plain mode 6 responders (the ~4M version pool beyond the amplifiers).
	nPlain := cfg.scaled(mode6Responders) - len(w.amplifiers)
	placedPlain, emptyPlain := 0, 0
	for placedPlain < nPlain {
		as := w.pickAS(map[asdb.ASType]float64{
			// Half the version pool reports "cisco": network gear.
			asdb.Telecom: 0.40, asdb.Enterprise: 0.25, asdb.Hosting: 0.15,
			asdb.Education: 0.10, asdb.CDN: 0.05, asdb.Residential: 0.05,
		})
		if as == nil {
			break
		}
		size := 5 + w.Src.IntN(30)
		if size > nPlain-placedPlain {
			size = nPlain - placedPlain
		}
		batch := w.placeBatch(as, size, func(addr netaddr.Addr) *ntpd.Server {
			profile := ntpd.SampleProfile(w.Src, ntpd.RolePlain)
			stratum := 2 + w.Src.IntN(5)
			if w.Src.Bool(0.19) {
				stratum = ntp.StratumUnsynchronized
			}
			return ntpd.New(ntpd.Config{
				Addr: addr, Stratum: stratum, Profile: profile,
				MonlistEnabled: false, Mode6Enabled: true,
				ExtraVarBytes: w.extraVarBytes(),
				Metrics:       w.ntpdM,
			})
		})
		placedPlain += len(batch)
		if len(batch) == 0 {
			emptyPlain++
			if emptyPlain > 100 {
				break
			}
		}
	}
}

// assignMegas converts a sample of amplifiers into §3.4 mega amplifiers and
// plants the nine extreme repeaters in Japan.
func (w *World) assignMegas() {
	nModerate := w.Cfg.scaled(megaAmplifiers)
	addrs := w.AmplifierList()
	if len(addrs) == 0 {
		return
	}
	perm := w.Src.Perm(len(addrs))
	for i := 0; i < nModerate && i < len(perm); i++ {
		s := w.amplifiers[addrs[perm[i]]]
		w.makeMega(s, int64(w.Src.Pareto(800, 1.1)), ntpd.RoleMegaAmp)
	}
	// The nine extreme megas: all in Japan (§3.4), replying with millions
	// of packets per probe.
	jp := w.DB.ByName("OCN-JP")
	batch := w.placeBatch(jp, extremeMegas, func(addr netaddr.Addr) *ntpd.Server {
		cfg := w.newAmplifierConfig(addr, ntpd.RoleMegaAmp)
		cfg.Implementation = ntp.ImplXNTPD // extremes are all ONP-visible
		return ntpd.New(cfg)
	})
	for _, s := range batch {
		w.registerAmplifier(s)
		w.ExtremeMegaAddrs = append(w.ExtremeMegaAddrs, s.srv.Addr())
		repeats := int64(2e6) + int64(w.Src.Pareto(1, 1.5)*3e6)
		if repeats > 3e7 {
			repeats = 3e7
		}
		w.makeMega(s, repeats, ntpd.RoleMegaAmp)
		// Extreme megas carry history: their tables are far from empty, so
		// each replay is a multi-fragment burst (gigabytes per probe).
		for i := 0; i < 100; i++ {
			s.srv.Record(netaddr.Addr(w.Src.Uint32()), ntp.Port, ntp.ModeClient, 4, 1+int64(w.Src.IntN(50)), w.Sched.Now())
		}
	}
}

func (w *World) makeMega(s *server, repeats int64, role ntpd.Role) {
	// The rebuilt daemon starts with an empty monitor table; release the old
	// table's contribution to the MRU-entries gauge before discarding it.
	s.srv.DetachMRU()
	cfg := s.srv.Config()
	cfg.MegaAmp = true
	cfg.MegaRepeats = repeats
	cfg.MegaEvents = 50
	cfg.MegaInterval = 2 * time.Second
	cfg.Profile = ntpd.SampleProfile(w.Src, role)
	rebuilt := ntpd.New(cfg)
	s.srv = rebuilt
	w.Servers[cfg.Addr] = s
	w.Net.Register(cfg.Addr, rebuilt)
	w.amplifiers[cfg.Addr] = s
	w.ampList = nil
	w.MegaAddrs.Add(cfg.Addr)
}

// localSite tags and creates the §7 site amplifiers (absolute counts —
// local populations are never scaled).
func (w *World) buildLocalAmplifiers(merit, csu, frgp *asdb.AS) {
	place := func(as *asdb.AS, site string, n int, out *[]netaddr.Addr) {
		for len(*out) < n {
			batch := w.placeBatch(as, min(n-len(*out), 5+w.Src.IntN(10)), func(addr netaddr.Addr) *ntpd.Server {
				cfg := w.newAmplifierConfig(addr, ntpd.RoleAmplifier)
				cfg.Implementation = ntp.ImplXNTPD
				return ntpd.New(cfg)
			})
			if len(batch) == 0 {
				return
			}
			for _, s := range batch {
				s.site = site
				w.registerAmplifier(s)
				*out = append(*out, s.srv.Addr())
			}
		}
	}
	place(merit, "Merit", 50, &w.MeritAmps)
	place(csu, "CSU", 9, &w.CSUAmps)
	place(frgp, "FRGP", 48, &w.FRGPAmps)
}

// buildVictims creates the victim pool: roughly half end hosts (gamers on
// residential lines) and half hosted infrastructure, with OVH — the
// paper's top victim AS — heavily over-represented.
func (w *World) buildVictims() {
	// The pool holds the primary targets; sibling-block expansion at attack
	// time (§4.3.4) contributes the remaining distinct victim IPs, so the
	// pool is a third of the distinct-victims target.
	n := w.Cfg.scaled(uniqueVictims) / 3
	if n < 30 {
		n = 30
	}
	ovh := w.DB.ByName(asdb.NameOVH)
	// OVH heads the pool: the Zipf-ranked draw concentrates repeat attacks
	// on these entries, making OVH the top victim AS (§4.4) at any scale.
	nOVH := n / 15
	if nOVH < 3 {
		nOVH = 3
	}
	for i := 0; i < nOVH; i++ {
		w.victimPool = append(w.victimPool, victimSpec{addr: ovh.RandomAddr(w.Src)})
	}
	for len(w.victimPool) < n {
		if w.Src.Bool(0.5) {
			as := w.pickAS(endHostBatchWeights)
			if as == nil {
				break
			}
			w.victimPool = append(w.victimPool, victimSpec{addr: as.RandomAddr(w.Src), endHost: true})
		} else {
			as := w.pickAS(map[asdb.ASType]float64{
				asdb.Hosting: 0.6, asdb.Telecom: 0.2, asdb.Enterprise: 0.1, asdb.CDN: 0.1,
			})
			if as == nil {
				break
			}
			w.victimPool = append(w.victimPool, victimSpec{addr: as.RandomAddr(w.Src)})
		}
	}
}

// buildAttackers creates bot fleets (in spoofing-capable networks) and the
// scanner populations.
func (w *World) buildAttackers() {
	for len(w.botAddrs) < 200 {
		as := w.DB.PickWeighted(w.Src, func(as *asdb.AS) float64 {
			if !as.AllowsSpoofing {
				return 0
			}
			return endHostBatchWeights[as.Type] + 0.1
		})
		if as == nil {
			break
		}
		w.botAddrs = append(w.botAddrs, as.RandomAddr(w.Src))
	}
	// Research scanners: the ONP prober plus university survey projects.
	w.ONPAddr = w.DB.ByName("ServerCentral-US").RandomAddr(w.Src)
	w.researchIPs = append(w.researchIPs, w.ONPAddr)
	for i := 0; i < 12; i++ {
		as := w.pickAS(map[asdb.ASType]float64{asdb.Education: 1})
		if as == nil {
			break
		}
		w.researchIPs = append(w.researchIPs, as.RandomAddr(w.Src))
	}
	for _, a := range w.researchIPs {
		w.Telescope.RegisterBenign(a)
	}
	// Malicious scanners appear over time; pre-draw their addresses.
	for i := 0; i < 60; i++ {
		as := w.DB.PickWeighted(w.Src, func(as *asdb.AS) float64 {
			return infraBatchWeights[as.Type] + endHostBatchWeights[as.Type]
		})
		if as == nil {
			break
		}
		w.maliciousIPs = append(w.maliciousIPs, as.RandomAddr(w.Src))
	}
}

// buildDNSPool fills the open-resolver set to its scaled size (amplifier
// overlap was added during registration).
func (w *World) buildDNSPool() {
	target := w.Cfg.scaled(openDNSResolvers)
	for w.DNSPool.Len() < target {
		as := w.pickAS(map[asdb.ASType]float64{
			asdb.Residential: 0.5, asdb.Telecom: 0.3, asdb.Enterprise: 0.2,
		})
		if as == nil {
			return
		}
		// Resolver pools cluster on CPE ranges.
		for i := 0; i < 50 && w.DNSPool.Len() < target; i++ {
			w.DNSPool.Add(as.RandomAddr(w.Src))
		}
	}
}
