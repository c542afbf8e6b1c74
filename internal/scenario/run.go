package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"ntpddos/internal/attack"
	"ntpddos/internal/core"
	"ntpddos/internal/detect"
	"ntpddos/internal/geo"
	"ntpddos/internal/honeypot"
	"ntpddos/internal/netaddr"
	"ntpddos/internal/ntp"
	"ntpddos/internal/ntpd"
	"ntpddos/internal/scan"
	"ntpddos/internal/timeattack"
	"ntpddos/internal/timesync"
	"ntpddos/internal/vtime"
)

// Results carries everything the experiment harness consumes.
type Results struct {
	Cfg   Config
	World *World

	// MonlistAnalyses are the 15 weekly ONP sample analyses (§3, §4).
	MonlistAnalyses []*core.SampleAnalysis
	// MonlistPools are the per-sample responder sets.
	MonlistPools []netaddr.Set
	// VersionAnalyses are the 9 weekly version sample analyses (§3.3).
	VersionAnalyses []*core.SampleAnalysis
	// VersionPools are the per-sample version responder counts.
	VersionPools []int
	// VersionCensus is the parsed system/stratum census (Table 2, §3.3),
	// from the mid-window sample.
	VersionCensus *core.VersionCensus
	// DNSPoolSizes is the weekly open-resolver pool size (scaled), starting
	// at the ONP publicity date — Figure 10's third line.
	DNSPoolSizes []int
	// SiteAmpCounts records the per-sample amplifier counts inside the
	// Merit and FRGP/CSU networks (Figure 3's subset lines). Site hosts are
	// excluded from the global analyses: their populations are absolute
	// (50/9/48, per §7) while the global pool is scaled, so including them
	// would distort the scaled statistics by orders of magnitude.
	SiteAmpCounts []SiteCounts
	// Registries are the analysis joins.
	Registries core.Registries
	// Honeypot is the sensor fleet's summary: detected events validated
	// against the launched-campaign ground truth, the sensor-count
	// convergence curve, and the cross-vantage comparison (nil when the
	// fleet is disabled).
	Honeypot *honeypot.Summary
	// Detection is the streaming plane's scenario-end snapshot: alarms,
	// heavy-hitter rankings, and scanner-cardinality estimate (nil when
	// Config.Detector is unset).
	Detection *detect.Summary
	// TimeSync is the disciplined-client fleet's end-of-run discipline
	// summary (nil when Config.TimeSync is disabled); TimeAttack the
	// time-integrity plane's forgery accounting; TimeIntegrity the
	// drift-aware lane's verdicts, and TimeIntegrityEval its score against
	// the attack plane's ground truth.
	TimeSync          *timesync.Summary
	TimeAttack        *timeattack.Summary
	TimeIntegrity     *detect.TimeIntegritySummary
	TimeIntegrityEval *detect.Eval
}

// SiteCounts is one sample's local amplifier census.
type SiteCounts struct {
	Merit int
	FRGP  int
}

// Run builds the world and drives it across the full window.
func Run(cfg Config) *Results {
	return Build(cfg).Run()
}

// allServerAddrs returns every registered daemon address, sorted — the
// survey target list ("the entire IPv4 address space", minus the hosts that
// could never respond and therefore never produce data).
func (w *World) allServerAddrs() []netaddr.Addr {
	out := make([]netaddr.Addr, 0, len(w.Servers))
	for a := range w.Servers {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// arrivalsPerWeek is the weekly new-amplifier arrival count (real scale):
// the churn that makes 2.17M cumulative uniques out of a 1.4M peak pool.
const arrivalsPerWeek = (2166097 - 1405186) / 14

// Run executes the timeline.
func (w *World) Run() *Results {
	cfg := w.Cfg
	res := &Results{Cfg: cfg, World: w}
	res.Registries = core.Registries{
		Routes: w.DB.Table,
		PBL:    w.PBL,
		ContinentOf: func(a netaddr.Addr) (geo.Continent, bool) {
			as := w.DB.OwnerOf(a)
			if as == nil {
				return 0, false
			}
			return as.Continent, true
		},
	}

	monProber := scan.NewProber(w.ONPAddr, 57915)
	monProber.SetMetrics(w.scanM, "monlist")
	w.Net.Register(monProber.Addr, monProber)
	monSurvey := &scan.Survey{
		Prober: monProber, Network: w.Net, Kind: "monlist", DstPort: ntp.Port,
		Payload:  ntp.NewMonlistRequest(ntp.ImplXNTPD, ntp.ReqMonGetList1),
		Duration: 6 * time.Hour,
	}
	verAddr := w.ONPAddr + 1
	verProber := scan.NewProber(verAddr, 41001)
	verProber.SetMetrics(w.scanM, "version")
	w.Net.Register(verAddr, verProber)
	w.Telescope.RegisterBenign(verAddr)
	verSurvey := &scan.Survey{
		Prober: verProber, Network: w.Net, Kind: "version", DstPort: ntp.Port,
		Payload: ntp.NewReadVarRequest(7), Duration: 6 * time.Hour,
	}

	monDates := make(map[time.Time]int)
	for i := 0; i < len(table1Targets); i++ {
		monDates[ONPStart.AddDate(0, 0, 7*i)] = i
	}
	verDates := make(map[time.Time]int)
	for i := 0; i < 9; i++ {
		verDates[VersionStart.AddDate(0, 0, 7*i)] = i
	}

	w.scheduleSiteEvents()

	if w.TimeSync != nil {
		w.TimeSync.Start(w.Net, vtime.Epoch, cfg.End)
		if w.TimeAttack != nil {
			w.TimeAttack.Start(w.Net, vtime.Epoch, cfg.End)
		}
	}

	// Regional baseline traffic (Figure 14's floors): Merit carries
	// 15–25 Gbps overall, dominated by web traffic; NTP is negligible on a
	// normal day. CSU/FRGP floors are smaller.
	for name, gbps := range map[string]float64{"Merit": 20, "CSU": 4, "FRGP": 8} {
		v := w.Views[name]
		perHour := gbps * 1e9 / 8 * 3600
		v.AddBaseline("http", vtime.Epoch, cfg.End, perHour*0.55)
		v.AddBaseline("https", vtime.Epoch, cfg.End, perHour*0.25)
		v.AddBaseline("other", vtime.Epoch, cfg.End, perHour*0.18)
		v.AddBaseline("dns", vtime.Epoch, cfg.End, perHour*0.02)
	}

	for day := vtime.Epoch; day.Before(cfg.End); day = day.AddDate(0, 0, 1) {
		if day.Day() == 1 {
			w.runTelemetryMonth(day)
		}
		w.addDailyBaselines(day)
		ampList := w.AmplifierList()
		if day.Weekday() == time.Monday || w.favorites == nil {
			w.refreshFavorites()
		}
		w.generateFabricAttacksForDay(day, w.favorites)
		w.scheduleScanning(day, ampList)

		if idx, ok := monDates[day]; ok {
			w.Sched.RunUntil(day.Add(2 * time.Hour))
			w.refreshClientTables(w.Sched.Now())
			sample := monSurvey.RunSample(day, w.allServerAddrs())
			analysis := core.AnalyzeSample(sample, monProber.Addr)
			res.SiteAmpCounts = append(res.SiteAmpCounts, w.countSiteAmps(analysis))
			w.filterSiteHosts(analysis)
			res.MonlistAnalyses = append(res.MonlistAnalyses, analysis)
			res.MonlistPools = append(res.MonlistPools, analysis.AmplifierSet())
			if cfg.PCAPDir != "" {
				w.writeSamplePCAP(sample, monProber)
			}
			sample.Responses = nil // free capture memory
			monSurvey.Samples = nil
			res.DNSPoolSizes = append(res.DNSPoolSizes,
				int(float64(cfg.scaled(openDNSResolvers))*(1-0.0015*float64(idx))))
			w.applyWeeklyRemediation(idx)
		}
		if _, ok := verDates[day]; ok {
			w.Sched.RunUntil(day.Add(10 * time.Hour))
			sample := verSurvey.RunSample(day, w.allServerAddrs())
			analysis := core.AnalyzeSample(sample, verProber.Addr)
			res.VersionAnalyses = append(res.VersionAnalyses, analysis)
			res.VersionPools = append(res.VersionPools, sample.NumResponders())
			if res.VersionCensus == nil {
				res.VersionCensus = core.AnalyzeVersionSample(sample)
			}
			sample.Responses = nil
			verSurvey.Samples = nil
			w.applyMode6Decay()
		}

		w.Sched.RunUntil(day.Add(24 * time.Hour))
	}

	if w.Honeypots != nil {
		siteVictims := make(map[string]netaddr.Set, len(w.Views))
		for name, v := range w.Views {
			siteVictims[name] = v.VictimSet()
		}
		res.Honeypot = honeypot.Summarize(w.Honeypots, w.Launched,
			w.Collector.MonthlyVectorCounts("ntp"), siteVictims, w.Sched.Now())
	}
	if w.Detect != nil {
		res.Detection = w.Detect.Summarize(w.Sched.Now())
	}
	if w.TimeSync != nil {
		res.TimeSync = w.TimeSync.Summarize(w.Sched.Now())
		if w.TimeAttack != nil {
			res.TimeAttack = w.TimeAttack.Summarize()
		}
		if w.TimeMon != nil {
			res.TimeIntegrity = w.TimeMon.Summarize()
			if w.TimeAttack != nil {
				ev := res.TimeIntegrity.Eval(w.TimeAttack.Attacked())
				res.TimeIntegrityEval = &ev
			}
		}
	}
	return res
}

// writeSamplePCAP persists one survey sample as a capture file.
func (w *World) writeSamplePCAP(sample *scan.Sample, prober *scan.Prober) {
	name := filepath.Join(w.Cfg.PCAPDir,
		fmt.Sprintf("%s-%s.pcap", sample.Kind, sample.Date.Format("2006-01-02")))
	f, err := os.Create(name)
	if err != nil {
		return // captures are a convenience; the run proceeds without them
	}
	defer f.Close()
	scan.WritePCAP(f, sample, prober.Addr, prober.SrcPort, 1)
}

// countSiteAmps censuses the sample's responders inside the Merit and
// FRGP/CSU networks.
func (w *World) countSiteAmps(a *core.SampleAnalysis) SiteCounts {
	merit := w.Views["Merit"]
	frgp := w.Views["FRGP"]
	var c SiteCounts
	for addr := range a.Amps {
		if merit.Contains(addr) {
			c.Merit++
		}
		if frgp.Contains(addr) {
			c.FRGP++
		}
	}
	return c
}

// filterSiteHosts removes the unscaled §7 site populations from a global
// sample analysis (see Results.SiteAmpCounts for why).
func (w *World) filterSiteHosts(a *core.SampleAnalysis) {
	inSite := func(addr netaddr.Addr) bool {
		return w.Views["Merit"].Contains(addr) || w.Views["FRGP"].Contains(addr)
	}
	for addr := range a.Amps {
		if inSite(addr) {
			delete(a.Amps, addr)
		}
	}
	kept := a.Victims[:0]
	for _, v := range a.Victims {
		if !inSite(v.Amplifier) {
			kept = append(kept, v)
		}
	}
	a.Victims = kept
}

// refreshClientTables tops up each amplifier's monitor list with its
// steady-state honest-client population, timestamped within the past two
// days — the background that gives tables their median-6/mean-70 occupancy
// and the §4.2 ~44-hour observation window. Refreshing before each sample
// also churns stale victim entries out of small tables, as real traffic
// does.
func (w *World) refreshClientTables(now time.Time) {
	req := 1024
	cutoff := now.Add(-48 * time.Hour)
	for _, a := range w.allServerAddrs() {
		s := w.Servers[a]
		if !s.srv.IsAmplifier() {
			continue
		}
		s.srv.ExpireOlderThan(cutoff)
		for i := 0; i < s.clientTableSize; i++ {
			// Client addresses are stable per (server, slot) so the same
			// client re-appears across weeks, like real NTP clients do.
			client := netaddr.Addr(uint32(a)*2654435761 + uint32(i)*40503 + 0x0537)
			age := time.Duration(w.Src.IntN(44*3600)) * time.Second
			mode := uint8(ntp.ModeClient)
			if i%7 == 3 {
				mode = ntp.ModeServer
			}
			s.srv.Record(client, uint16(req+i%60000), mode, 4, 1+int64(w.Src.IntN(30)), now.Add(-age))
		}
	}
}

// applyWeeklyRemediation moves the global pool toward the next Table 1
// target: new amplifiers appear (DHCP churn and fresh deployments), and
// patch selection prefers professionally-managed infrastructure batches —
// which is what doubles the end-host share over the window (§6.1).
func (w *World) applyWeeklyRemediation(weekIdx int) {
	if weekIdx+1 >= len(table1Targets) {
		return
	}
	if w.Cfg.NoRemediation {
		w.applyDHCPChurn()
		w.addArrivals(arrivalsPerWeek / w.Cfg.Scale)
		return
	}
	w.applyDHCPChurn()
	arrivals := arrivalsPerWeek / w.Cfg.Scale
	w.addArrivals(arrivals)

	target := int(float64(table1Targets[weekIdx+1]) / (1 - oldImplFraction) / float64(w.Cfg.Scale))
	global := 0
	for _, s := range w.amplifiers {
		if s.site == "" {
			global++
		}
	}
	toPatch := int(float64(global-target) * w.Cfg.RemediationHazard)
	if toPatch > global {
		toPatch = global
	}
	if toPatch <= 0 {
		return
	}

	// Group live global amplifiers by batch.
	batchAmps := make(map[int][]*server)
	var batchIDs []int
	for _, s := range w.amplifiers {
		if s.site != "" {
			continue
		}
		if _, seen := batchAmps[s.batch]; !seen {
			batchIDs = append(batchIDs, s.batch)
		}
		batchAmps[s.batch] = append(batchAmps[s.batch], s)
	}
	sort.Ints(batchIDs)
	weights := make([]float64, len(batchIDs))
	for i, id := range batchIDs {
		group := batchAmps[id]
		f := 1.5 // professionally managed
		if group[0].endHost {
			f = 1.0 // workstations linger (§6.1)
		}
		weights[i] = float64(len(group)) * f * geo.RemediationSpeed(group[0].as.Continent)
	}
	patched := 0
	for patched < toPatch {
		i := w.Src.Weighted(weights)
		if weights[i] == 0 {
			break
		}
		for _, s := range batchAmps[batchIDs[i]] {
			if w.MegaAddrs.Has(s.srv.Addr()) {
				// The worst-managed boxes are, unsurprisingly, the last to
				// be fixed: megas kept misbehaving into June (§3.4).
				continue
			}
			w.patch(s)
			patched++
		}
		weights[i] = 0
		if allZero(weights) {
			break
		}
	}
}

func allZero(w []float64) bool {
	for _, v := range w {
		if v != 0 {
			return false
		}
	}
	return true
}

// patch remediates one daemon (monlist off; mode 6 usually stays).
func (w *World) patch(s *server) {
	s.srv.Patch()
	delete(w.amplifiers, s.srv.Addr())
	w.ampList = nil
}

// applyDHCPChurn moves a quarter of the residential amplifiers to fresh
// addresses each week: the pool size is unchanged but cumulative unique IPs
// grow, which is why half of all amplifier IPs the paper collected were
// seen in only one weekly sample.
func (w *World) applyDHCPChurn() {
	var endHosts []*server
	for _, a := range w.allServerAddrs() {
		s := w.Servers[a]
		if s.endHost && s.site == "" && s.srv.IsAmplifier() {
			endHosts = append(endHosts, s)
		}
	}
	for _, s := range endHosts {
		if !w.Src.Bool(0.35) || w.MegaAddrs.Has(s.srv.Addr()) {
			continue
		}
		// The daemon re-appears at a nearby address in the same pool.
		old := s.srv.Addr()
		w.patch(s)
		w.Net.Unregister(old)
		// The old binding's monitor table is frozen forever (no amplifier, no
		// expiry pass will touch it again); release it from the MRU gauge.
		s.srv.DetachMRU()
		block := old.Slash24()
		fresh := block.Nth(uint64(w.Src.IntN(256)))
		if _, taken := w.Servers[fresh]; taken {
			continue
		}
		if w.Net.IsRegistered(fresh) {
			continue // never clobber a prober or honeypot sensor binding
		}
		cfg := s.srv.Config()
		cfg.Addr = fresh
		cfg.MonlistEnabled = true
		ns := &server{srv: ntpd.New(cfg), as: s.as, batch: s.batch, endHost: true}
		w.Servers[fresh] = ns
		w.Net.Register(fresh, ns.srv)
		w.registerAmplifier(ns)
	}
}

// addArrivals creates new amplifiers: mostly end hosts (DHCP churn moving
// residential daemons to fresh addresses) plus some newly-exposed servers.
func (w *World) addArrivals(n int) {
	placed, empty := 0, 0
	for placed < n {
		endHost := w.Src.Bool(0.4)
		as := w.pickVulnerableAS(endHost)
		var size int
		if endHost {
			size = 2 + w.Src.IntN(6)
		} else {
			size = 3 + w.Src.IntN(10)
		}
		if as == nil {
			return
		}
		if size > n-placed {
			size = n - placed
		}
		batch := w.placeBatch(as, size, func(addr netaddr.Addr) *ntpd.Server {
			return ntpd.New(w.newAmplifierConfig(addr, ntpd.RoleAmplifier))
		})
		if len(batch) == 0 {
			empty++
			if empty > 50 {
				return
			}
			continue
		}
		for _, s := range batch {
			w.registerAmplifier(s)
		}
		placed += len(batch)
	}
}

// applyMode6Decay shrinks the version pool by its weekly sliver — it only
// fell 19% over the nine measured weeks (§3.3).
func (w *World) applyMode6Decay() {
	const weekly = 0.19 / 9
	var mode6 []*server
	for _, a := range w.allServerAddrs() {
		s := w.Servers[a]
		if s.srv.Config().Mode6Enabled {
			mode6 = append(mode6, s)
		}
	}
	n := int(float64(len(mode6)) * weekly)
	for i := 0; i < n && len(mode6) > 0; i++ {
		j := w.Src.IntN(len(mode6))
		mode6[j].srv.PatchMode6()
		mode6[j] = mode6[len(mode6)-1]
		mode6 = mode6[:len(mode6)-1]
	}
}

// scheduleSiteEvents wires the §7 ground truth: the Merit onset in the
// third week of December, the CSU campaigns ending with its January 24th
// patch day, the February 10th OVH validation attacks (with Merit and FRGP
// amplifiers participating), and the 23-minute FRGP ingress spike.
func (w *World) scheduleSiteEvents() {
	ovh := w.DB.ByName("OVH")
	table6Victims := []string{"OCN-JP", "Unicom-CN", "ServerCentral-US",
		"Intergenia-DE", "Voxility-RO", "HostBR", "HostUK"}

	launchPrimed := func(start time.Time, amps []netaddr.Addr, victim netaddr.Addr, hours int, rate float64, prime int) {
		w.Sched.At(start, func(now time.Time) {
			live := amps[:0:0]
			for _, a := range amps {
				if _, ok := w.amplifiers[a]; ok {
					live = append(live, a)
				}
			}
			if len(live) == 0 {
				return
			}
			w.Engine.Launch(attack.Campaign{
				Victim: victim, Port: attack.SamplePort(w.Src),
				Start: now.Add(time.Minute), Duration: time.Duration(hours) * time.Hour,
				TriggerRate: rate, Amplifiers: live,
				PrimeSources: prime, Interval: 20 * time.Minute,
			})
		})
	}
	launchSite := func(start time.Time, amps []netaddr.Addr, victim netaddr.Addr, hours int, rate float64) {
		launchPrimed(start, amps, victim, hours, rate, 40)
	}

	// Merit: onset December 18th; long coordinated campaigns through
	// February against the Table 6 victims (114–166 hours, 35+ amplifiers).
	meritStart := time.Date(2013, 12, 18, 0, 0, 0, 0, time.UTC)
	for i, name := range table6Victims {
		victim := w.DB.ByName(name).RandomAddr(w.Src)
		start := meritStart.AddDate(0, 0, 7+i*9)
		nAmps := 35 + w.Src.IntN(15)
		if nAmps > len(w.MeritAmps) {
			nAmps = len(w.MeritAmps)
		}
		launchSite(start, w.MeritAmps[:nAmps], victim, 110+w.Src.IntN(60), 15+w.Src.Float64()*35)
	}
	// Merit amplifiers also join the OVH attacks around February 10th.
	launchSite(time.Date(2014, 2, 10, 6, 0, 0, 0, time.UTC), w.MeritAmps,
		ovh.RandomAddr(w.Src), 48, 60)

	// CSU: all nine amplifiers coordinated, mid-January window, including
	// OVH targets; the servers are secured on January 24th.
	csuVictims := []string{"OVH", "Voxility-RO", "HostBR", "HostUK", "OVH"}
	for i, name := range csuVictims {
		victim := w.DB.ByName(name).RandomAddr(w.Src)
		start := time.Date(2014, 1, 15+i*2, 3, 0, 0, 0, time.UTC)
		launchPrimed(start, w.CSUAmps, victim, 30+w.Src.IntN(110), 10+w.Src.Float64()*25, 150)
	}
	w.Sched.At(time.Date(2014, 1, 24, 12, 0, 0, 0, time.UTC), func(time.Time) {
		for _, a := range w.CSUAmps {
			if s, ok := w.Servers[a]; ok {
				w.patch(s)
			}
		}
	})

	// FRGP: participates in the OVH attacks; remediation is slow and
	// partial ("other networks within FRGP were not nearly as proactive").
	launchSite(time.Date(2014, 2, 10, 8, 0, 0, 0, time.UTC), w.FRGPAmps,
		ovh.RandomAddr(w.Src), 72, 40)
	for i := 0; i < 5; i++ {
		victim := w.DB.ByName(table6Victims[w.Src.IntN(len(table6Victims))]).RandomAddr(w.Src)
		launchSite(time.Date(2014, 2, 14+i*4, 10, 0, 0, 0, time.UTC),
			w.FRGPAmps[:24], victim, 24+w.Src.IntN(72), 10+w.Src.Float64()*30)
	}
	w.Sched.At(time.Date(2014, 3, 10, 0, 0, 0, 0, time.UTC), func(time.Time) {
		for _, a := range w.FRGPAmps[:24] { // half remediated, half linger
			if s, ok := w.Servers[a]; ok && w.amplifiers[a] != nil {
				w.patch(s)
			}
		}
	})

	// Merit ticket-driven remediation: weekly batches from late January,
	// leaving a few holdouts.
	for week := 0; week < 8; week++ {
		start := 6 * week
		end := start + 6
		if end > len(w.MeritAmps)-4 { // keep 4 holdouts
			end = len(w.MeritAmps) - 4
		}
		if start >= end {
			break
		}
		slice := w.MeritAmps[start:end]
		w.Sched.At(time.Date(2014, 1, 20, 0, 0, 0, 0, time.UTC).AddDate(0, 0, 7*week),
			func(time.Time) {
				for _, a := range slice {
					if s, ok := w.Servers[a]; ok && w.amplifiers[a] != nil {
						w.patch(s)
					}
				}
			})
	}

	// The extreme mega amplifiers' billion-scale responses appear only in
	// the samples around late January and early February (Figure 4b's 1e9
	// outliers); their operators take them offline soon after — community
	// pressure on boxes emitting 100GB bursts is swift.
	for i, addr := range w.ExtremeMegaAddrs {
		addr := addr
		w.Sched.At(time.Date(2014, 2, 8+i%7, 0, 0, 0, 0, time.UTC), func(time.Time) {
			if s, ok := w.Servers[addr]; ok && w.amplifiers[addr] != nil {
				w.patch(s)
			}
		})
	}

	// Booter-list abuse sprays: site amplifiers sit in harvested lists and
	// get pointed at a steady stream of ordinary victims — this breadth is
	// what gives the paper's Table 5 amplifiers their thousands of unique
	// victims.
	spray := func(site []netaddr.Addr, from, to time.Time, perDay int) {
		for d := from; d.Before(to); d = d.AddDate(0, 0, 1) {
			d := d
			w.Sched.At(d, func(now time.Time) {
				var live []netaddr.Addr
				for _, a := range site {
					if _, ok := w.amplifiers[a]; ok {
						live = append(live, a)
					}
				}
				if len(live) == 0 {
					return
				}
				for i := 0; i < perDay; i++ {
					// Booter customers point site amplifiers at targets all
					// over the Internet — the breadth behind Table 5's
					// thousands of unique victims per amplifier.
					as := w.DB.ASes[w.Src.IntN(len(w.DB.ASes))]
					start := now.Add(time.Duration(w.Src.IntN(86400)) * time.Second)
					w.Engine.Launch(attack.Campaign{
						Victim: as.RandomAddr(w.Src), Port: attack.SamplePort(w.Src),
						Start: start, Duration: time.Duration(30+w.Src.IntN(240)) * time.Second,
						TriggerRate: 5 + w.Src.Float64()*40,
						Amplifiers:  live,
					})
				}
			})
		}
	}
	spray(w.MeritAmps, time.Date(2014, 1, 5, 0, 0, 0, 0, time.UTC),
		time.Date(2014, 3, 20, 0, 0, 0, 0, time.UTC), 30)
	spray(w.CSUAmps, time.Date(2014, 1, 10, 0, 0, 0, 0, time.UTC),
		time.Date(2014, 1, 24, 0, 0, 0, 0, time.UTC), 4)
	spray(w.FRGPAmps, time.Date(2014, 1, 18, 0, 0, 0, 0, time.UTC),
		time.Date(2014, 3, 10, 0, 0, 0, 0, time.UTC), 12)

	// The February 10th FRGP ingress spike: a 23-minute attack on a host
	// *inside* FRGP (514 GB at ~3 Gbps), reflected off external amplifiers.
	w.Sched.At(time.Date(2014, 2, 10, 14, 0, 0, 0, time.UTC), func(now time.Time) {
		frgpVictim := w.DB.ByName("FRGP").RandomAddr(w.Src)
		amps := w.sampleAmps(w.AmplifierList(), 50)
		w.Engine.Launch(attack.Campaign{
			Victim: frgpVictim, Port: 80,
			Start: now.Add(time.Minute), Duration: 23 * time.Minute,
			TriggerRate: 2000, Amplifiers: amps,
			PrimeSources: 60, Interval: time.Minute,
		})
	})
}
