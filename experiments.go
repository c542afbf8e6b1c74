package ntpddos

import (
	"fmt"
	"time"

	"ntpddos/internal/attack"
	"ntpddos/internal/core"
	"ntpddos/internal/geo"
	"ntpddos/internal/honeypot"
	"ntpddos/internal/netaddr"
	"ntpddos/internal/report"
	"ntpddos/internal/stats"
	"ntpddos/internal/vtime"
)

// Figure1 renders the NTP and DNS fractions of global Internet traffic
// (weekly samples of the daily series, plus the peak day).
func (s *Simulation) Figure1() *Table {
	t := &Table{ID: "fig1", Title: "Fraction of Internet traffic that is NTP and DNS",
		Headers: []string{"date", "ntp_fraction", "dns_fraction"}}
	col := s.res.World.Collector
	ntpSeries := col.NTPFractionSeries()
	dns := make(map[time.Time]float64)
	for _, p := range col.DNSFractionSeries() {
		dns[p.Day] = p.Fraction
	}
	for i, p := range ntpSeries {
		if i%7 != 0 {
			continue
		}
		t.AddRowf(day(p.Day), p.Fraction, dns[p.Day])
	}
	if peak, ok := col.PeakNTPDay(); ok {
		t.AddNote("peak NTP day %s at %.3g of all traffic (paper: 2014-02-11 at ~0.01)",
			day(peak.Day), peak.Fraction)
	}
	t.AddNote("paper: three-order-of-magnitude rise from ~1e-5, fall to ~1e-3 by May")
	return t
}

// Figure2 renders the fraction of monthly DDoS attacks that are NTP-based,
// by size class.
func (s *Simulation) Figure2() *Table {
	t := &Table{ID: "fig2", Title: "Fraction of monthly DDoS attacks that are NTP-based",
		Headers: []string{"month", "small(<2G)", "medium(2-20G)", "large(>20G)", "all", "n_attacks"}}
	for _, r := range s.res.World.Collector.AttackFractions() {
		t.AddRowf(r.Month.Format("2006-01"), r.Small, r.Medium, r.Large, r.All,
			r.NSmall+r.NMedium+r.NLarge)
	}
	t.AddNote("paper: Feb large 0.70, Feb medium 0.63, Nov all 0.0007; ~300K attacks/month")
	t.AddNote("attack counts are scaled by 1/%d", s.Scale())
	return t
}

// Figure3 renders the amplifier population per weekly sample at IP, /24,
// routed-block and AS level, with the Merit and FRGP subsets.
func (s *Simulation) Figure3() *Table {
	t := &Table{ID: "fig3", Title: "NTP monlist amplifiers by aggregation level",
		Headers: []string{"date", "ips", "/24s", "blocks", "asns", "merit", "frgp"}}
	if s.noSurvey(t) {
		return t
	}
	for i, a := range s.res.MonlistAnalyses {
		set := s.res.MonlistPools[i]
		site := s.res.SiteAmpCounts[i]
		row := s.monlistPopAmps[i]
		t.AddRow(day(a.Date),
			report.Count(row.IPs, s.Scale()),
			report.Count(set.CountDistinct24s(), s.Scale()),
			report.Count(row.Blocks, s.Scale()),
			report.Count(row.ASNs, s.Scale()),
			fmt.Sprintf("%d", site.Merit), fmt.Sprintf("%d", site.FRGP))
	}
	t.AddNote("paper: 1.405M IPs / 63.5K blocks / 15.1K ASNs on 2014-01-10, down to 106K IPs by 2014-04-18")
	t.AddNote("Merit and FRGP subsets are absolute (local populations are not scaled); paper: 50 and 48")
	return t
}

// Figure4a renders the per-sample distribution of aggregate bytes returned
// per query, for both monlist and version probes.
func (s *Simulation) Figure4a() *Table {
	t := &Table{ID: "fig4a", Title: "On-wire bytes returned per single query",
		Headers: []string{"kind", "date", "median", "p95", "max", "n"}}
	if s.noSurvey(t) {
		return t
	}
	add := func(kind string, analyses []*core.SampleAnalysis) {
		boxes := core.BytesBoxplots(analyses)
		for i, b := range boxes {
			vals := make([]float64, 0, len(analyses[i].Amps))
			for _, r := range analyses[i].Amps {
				vals = append(vals, float64(r.Bytes))
			}
			t.AddRow(kind, day(analyses[i].Date), report.SI(b.Median),
				report.SI(stats.Quantile(vals, 0.95)), report.SI(b.Max),
				fmt.Sprintf("%d", b.N))
		}
	}
	add("monlist", s.res.MonlistAnalyses)
	add("version", s.res.VersionAnalyses)
	t.AddNote("paper: monlist median 942B / 95th pct ~90KB; version median 2578B / 95th ~4KB; max up to 136GB")
	return t
}

// Figure4b renders the monlist bandwidth-amplification-factor boxplots.
func (s *Simulation) Figure4b() *Table {
	return s.bafTable("fig4b", "Monlist on-wire BAF per sample", s.res.MonlistAnalyses,
		"paper: median ≈4.3, Q3 ≈15 (spiking to 50-500 mid-Feb), max ~1e6 (1e9 late Jan)")
}

// Figure4c renders the version (mode 6 readvar) BAF boxplots.
func (s *Simulation) Figure4c() *Table {
	return s.bafTable("fig4c", "Version on-wire BAF per sample", s.res.VersionAnalyses,
		"paper: quartiles ≈3.5 / 4.6 / 6.9, max up to 2.63e8")
}

func (s *Simulation) bafTable(id, title string, analyses []*core.SampleAnalysis, note string) *Table {
	t := &Table{ID: id, Title: title,
		Headers: []string{"date", "min", "q1", "median", "q3", "max", "n"}}
	if s.noSurvey(t) {
		return t
	}
	for i, b := range core.BAFBoxplots(analyses) {
		t.AddRowf(day(analyses[i].Date), b.Min, b.Q1, b.Median, b.Q3, b.Max, b.N)
	}
	t.AddNote("%s", note)
	return t
}

// Table1Amplifiers renders the amplifier half of Table 1.
func (s *Simulation) Table1Amplifiers() *Table {
	return s.populationTable("table1a", "Global amplifiers per sample (Table 1, left)",
		s.monlistPopAmps,
		"paper row 1: 1405186 IPs / 63499 blocks / 15131 ASNs / 18.5%% end hosts / 22.13 IPs-per-block")
}

// Table1Victims renders the victim half of Table 1.
func (s *Simulation) Table1Victims() *Table {
	return s.populationTable("table1v", "Global victims per sample (Table 1, right)",
		s.monlistPopVictims,
		"paper: victims grow 50K->170K (peaking mid-March) then decline; end-host %% grows 31%%->50%%")
}

func (s *Simulation) populationTable(id, title string, rows []core.PopulationRow, note string) *Table {
	t := &Table{ID: id, Title: title,
		Headers: []string{"date", "ips", "blocks", "asns", "end_hosts", "end_host_pct", "ips_per_block"}}
	if s.noSurvey(t) {
		return t
	}
	for _, r := range rows {
		t.AddRow(day(r.Date), report.Count(r.IPs, s.Scale()), report.Count(r.Blocks, s.Scale()),
			report.Count(r.ASNs, s.Scale()), report.Count(r.EndHosts, s.Scale()),
			report.Pct(r.EndHostPct), fmt.Sprintf("%.2f", r.IPsPerBlock))
	}
	t.AddNote(note)
	return t
}

// Table2 renders the system-string census: all NTP servers, the monlist
// amplifier pool, and the mega-amplifier pool.
func (s *Simulation) Table2() *Table {
	t := &Table{ID: "table2", Title: "Operating system strings by pool (Table 2)",
		Headers: []string{"system", "mega_pct", "amplifiers_pct", "all_ntp_pct"}}
	if s.noSurvey(t) {
		return t
	}
	census := s.res.VersionCensus
	if census == nil {
		t.AddNote("no version census available")
		return t
	}
	mega := census.OSShareOf(s.megaSet)
	amps := census.OSShareOf(s.ampUnion)
	all := census.OSShare
	seen := map[string]bool{}
	order := []string{"linux", "junos", "bsd", "cygwin", "vmkernel", "unix",
		"windows", "sun", "secureos", "isilon", "cisco", "qnx", "darwin", "other"}
	for _, sys := range order {
		if mega[sys] == 0 && amps[sys] == 0 && all[sys] == 0 {
			continue
		}
		seen[sys] = true
		t.AddRowf(sys, mega[sys], amps[sys], all[sys])
	}
	t.AddNote("paper: mega linux 44.2/junos 35.9; amplifiers linux 80.2; all-NTP cisco 48.4/unix 30.6/linux 19.0")
	t.AddNote("stratum-16 (unsynchronized) share: %.1f%% (paper: 19%%)", census.Stratum16Pct)
	for _, y := range []int{2004, 2012} {
		t.AddNote("compiled before %d: %.0f%% (paper: %s)", y, census.CompileYearBefore[y],
			map[int]string{2004: "13%", 2012: "59%"}[y])
	}
	return t
}

// Table3 renders example monitor tables from a real amplifier of the final
// sample — the Table 3 illustration of probe, client and victim entries.
func (s *Simulation) Table3() *Table {
	t := &Table{ID: "table3", Title: "Example monlist table entries (Table 3)",
		Headers: []string{"amplifier", "address", "src_port", "count", "mode", "interarrival", "last_seen", "class"}}
	if s.noSurvey(t) {
		return t
	}
	last := s.res.MonlistAnalyses[len(s.res.MonlistAnalyses)-1]
	probeAddr := s.res.World.ONPAddr
	shown := 0
	for _, addr := range last.AmplifierSet().Sorted() {
		rec := last.Amps[addr]
		if rec.Table == nil || len(rec.Table.Entries) < 3 {
			continue
		}
		for i, e := range rec.Table.Entries {
			if i >= 6 {
				break
			}
			class := "client"
			switch core.ClassifyEntry(e, probeAddr) {
			case core.Victim:
				class = "VICTIM"
			case core.ScannerOrLowVolume:
				class = "scanner"
			}
			if e.Addr == probeAddr {
				class = "ONP probe"
			}
			t.AddRowf(addr.String(), e.Addr.String(), e.Port, e.Count, e.Mode,
				e.AvgInterval, e.LastSeen, class)
		}
		shown++
		if shown == 2 {
			break
		}
	}
	t.AddNote("victims carry mode 6/7, huge counts, near-zero inter-arrival and attacked src ports (e.g. 80)")
	return t
}

// Figure5 renders the AS-level concentration of victim packets.
func (s *Simulation) Figure5() *Table {
	t := &Table{ID: "fig5", Title: "CDF of victim packets by AS rank (Figure 5)",
		Headers: []string{"rank", "amplifier_AS_share", "victim_AS_share"}}
	if s.noSurvey(t) {
		return t
	}
	ampCDF, vicCDF, nAmp, nVic := core.ASConcentration(s.res.MonlistAnalyses, s.res.Registries)
	for _, k := range []int{1, 3, 10, 30, 100, 300} {
		t.AddRowf(k, ampCDF.ShareOfTop(k), vicCDF.ShareOfTop(k))
	}
	t.AddNote("amplifier ASes: %s, victim ASes: %s (paper: 16687 and 11558)",
		report.Count(nAmp, s.Scale()), report.Count(nVic, s.Scale()))
	t.AddNote("paper: top-100 amplifier ASes 60%% of packets; top-100 victim ASes 75%%")
	t.AddNote("AS populations scale with 1/%d, so compare shares at rank/scale", s.Scale())
	top := core.TopVictimASes(s.res.MonlistAnalyses, s.res.Registries, 3)
	if len(top) > 0 {
		as := s.res.World.DB.ByNumber(top[0].ASN)
		name := "?"
		if as != nil {
			name = as.Name
		}
		t.AddNote("top victim AS: AS%d (%s) with %s packets (paper: OVH/AS16276, ~170B packets, ~6%%)",
			top[0].ASN, name, report.SI(top[0].Packets*float64(s.Scale())))
	}
	return t
}

// Table4 renders the top attacked ports.
func (s *Simulation) Table4() *Table {
	t := &Table{ID: "table4", Title: "Top 20 ports seen in victims at amplifiers (Table 4)",
		Headers: []string{"rank", "port", "fraction", "game", "paper_fraction"}}
	if s.noSurvey(t) {
		return t
	}
	paper := map[int]float64{80: 0.362, 123: 0.238, 3074: 0.079, 50557: 0.062, 53: 0.025,
		25565: 0.021, 19: 0.012, 22: 0.011, 5223: 0.007, 27015: 0.006}
	tally := core.PortTally(s.res.MonlistAnalyses)
	for i, bin := range tally.TopK(20) {
		game := ""
		if attack.IsGamePort(uint16(bin.Value)) {
			game = "(g)"
		}
		ref := ""
		if p, ok := paper[bin.Value]; ok {
			ref = fmt.Sprintf("%.3f", p)
		}
		t.AddRowf(i+1, bin.Value, bin.Fraction, game, ref)
	}
	t.AddNote("paper: game-associated ports are at least 15%% of the top 20; port 80 tops the list")
	return t
}

// Figure6 renders the total packets victims received per sample.
func (s *Simulation) Figure6() *Table {
	t := &Table{ID: "fig6", Title: "Total packets victims received (Figure 6)",
		Headers: []string{"date", "median", "mean", "p95"}}
	if s.noSurvey(t) {
		return t
	}
	for _, r := range core.VictimPacketStats(s.res.MonlistAnalyses) {
		t.AddRowf(day(r.Date), r.Median, r.Mean, r.P95)
	}
	t.AddNote("paper: median 300-1000, mean 1-10M, 95th pct 400K-6M falling to 110-200K after mid-Feb")
	return t
}

// Figure7 renders the attacks-per-hour time series derived from monitor
// tables.
func (s *Simulation) Figure7() *Table {
	t := &Table{ID: "fig7", Title: "Attacks per hour from derived start times (Figure 7)",
		Headers: []string{"week_of", "attacks_per_hour_avg", "peak_hour"}}
	if s.noSurvey(t) {
		return t
	}
	ts := core.AttackTimeSeries(s.res.MonlistAnalyses)
	weekly := stats.NewTimeSeries(vtime.Epoch, 7*24*time.Hour)
	var all []float64
	for _, p := range ts.Points() {
		weekly.Add(p.Time, p.Value)
		all = append(all, p.Value)
	}
	for _, p := range weekly.Points() {
		t.AddRowf(day(p.Time), p.Value/(7*24), "")
	}
	if peak, ok := ts.Max(); ok {
		t.AddNote("peak hour %s with %.0f attacks (paper: daily average peaks 2014-02-12)",
			peak.Time.Format("2006-01-02 15:04"), peak.Value)
	}
	t.AddNote("hourly mean %.1f, median %.1f at scale 1/%d (paper: 514 and 280 at full scale)",
		stats.Mean(all), stats.Quantile(all, 0.5), s.Scale())
	return t
}

// Figure8 renders darknet NTP packet volume per dark /24 per month.
func (s *Simulation) Figure8() *Table {
	t := &Table{ID: "fig8", Title: "Darknet NTP packets per /24 per month (Figure 8)",
		Headers: []string{"month", "packets_per_24", "benign_fraction"}}
	for _, r := range s.res.World.Telescope.MonthlyVolume() {
		t.AddRowf(r.Month.Format("2006-01"), r.PacketsPer24, r.BenignFraction)
	}
	t.AddNote("paper: ~10x rise Dec->Apr, roughly half of the increase from research scanning")
	return t
}

// Figure9 renders unique darknet scanners vs Merit NTP egress volume.
func (s *Simulation) Figure9() *Table {
	t := &Table{ID: "fig9", Title: "Darknet scanners vs Merit NTP egress (Figure 9)",
		Headers: []string{"week_of", "unique_scanners_daily_avg", "merit_egress_MBps_avg"}}
	scope := s.res.World.Telescope
	merit := s.res.World.Views["Merit"]
	weeklyScanners := stats.NewTimeSeries(vtime.Epoch, 7*24*time.Hour)
	for _, p := range scope.ScannerSeries() {
		weeklyScanners.Add(p.Time, p.Value/7)
	}
	egress := stats.NewTimeSeries(vtime.Epoch, 7*24*time.Hour)
	for _, p := range merit.EgressNTP.Points() {
		egress.Add(p.Time, p.Value)
	}
	for _, p := range weeklyScanners.Points() {
		mbps := egress.At(p.Time) / (7 * 86400) / 1e6
		t.AddRowf(day(p.Time), p.Value, mbps)
	}
	t.AddNote("paper: scanning onset mid-December 2013 precedes the attack-traffic rise by ~a week")
	t.AddNote("scanner uniques scale with 1/%d", s.Scale())
	return t
}

// Figure10 renders the remediation comparison of the three amplifier pools.
func (s *Simulation) Figure10() *Table {
	t := &Table{ID: "fig10", Title: "Pool size relative to peak (Figure 10)",
		Headers: []string{"week", "monlist_pct", "version_pct", "dns_pct"}}
	if s.noSurvey(t) {
		return t
	}
	monSizes := make([]int, len(s.res.MonlistPools))
	for i, p := range s.res.MonlistPools {
		monSizes[i] = p.Len()
	}
	mon := core.PoolRelativeSeries(monSizes)
	ver := core.PoolRelativeSeries(s.res.VersionPools)
	dns := core.PoolRelativeSeries(s.res.DNSPoolSizes)
	n := len(mon)
	for i := 0; i < n; i++ {
		verS, dnsS := "", ""
		if i < len(ver) {
			verS = fmt.Sprintf("%.1f", ver[i])
		}
		if i < len(dns) {
			dnsS = fmt.Sprintf("%.1f", dns[i])
		}
		t.AddRow(fmt.Sprintf("%d", i), fmt.Sprintf("%.1f", mon[i]), verS, dnsS)
	}
	t.AddNote("paper: monlist falls to ~8%% of peak; version only -19%% over nine weeks; DNS nearly flat")
	return t
}

// Figure11 renders Merit's aggregate NTP traffic.
func (s *Simulation) Figure11() *Table {
	return s.siteTrafficTable("fig11", "Merit NTP traffic (Figure 11)", "Merit",
		"paper: onset 3rd week of December, peaks above 200 MB/s")
}

// Figure12 renders CSU and FRGP NTP traffic.
func (s *Simulation) Figure12() *Table {
	t := &Table{ID: "fig12", Title: "CSU and FRGP NTP traffic (Figure 12)",
		Headers: []string{"week_of", "csu_egress_MBps", "csu_ingress_MBps", "frgp_egress_MBps", "frgp_ingress_MBps"}}
	csu := s.res.World.Views["CSU"]
	frgp := s.res.World.Views["FRGP"]
	weekly := func(ts *stats.TimeSeries) map[time.Time]float64 {
		w := stats.NewTimeSeries(vtime.Epoch, 7*24*time.Hour)
		for _, p := range ts.Points() {
			w.Add(p.Time, p.Value)
		}
		out := make(map[time.Time]float64)
		for _, p := range w.Points() {
			out[p.Time] = p.Value / (7 * 86400) / 1e6
		}
		return out
	}
	ce, ci := weekly(csu.EgressNTP), weekly(csu.IngressNTP)
	fe, fi := weekly(frgp.EgressNTP), weekly(frgp.IngressNTP)
	seen := map[time.Time]bool{}
	var weeks []time.Time
	for _, m := range []map[time.Time]float64{ce, ci, fe, fi} {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				weeks = append(weeks, k)
			}
		}
	}
	sortTimes(weeks)
	for _, w := range weeks {
		t.AddRowf(day(w), ce[w], ci[w], fe[w], fi[w])
	}
	t.AddNote("paper: CSU servers secured 2014-01-24 (volume returns to baseline); FRGP ingress spike 2014-02-10 (514GB in 23 min)")
	return t
}

func (s *Simulation) siteTrafficTable(id, title, site, note string) *Table {
	t := &Table{ID: id, Title: title,
		Headers: []string{"week_of", "egress_MBps_avg", "ingress_MBps_avg"}}
	v := s.res.World.Views[site]
	eg := stats.NewTimeSeries(vtime.Epoch, 7*24*time.Hour)
	ig := stats.NewTimeSeries(vtime.Epoch, 7*24*time.Hour)
	for _, p := range v.EgressNTP.Points() {
		eg.Add(p.Time, p.Value)
	}
	for _, p := range v.IngressNTP.Points() {
		ig.Add(p.Time, p.Value)
	}
	for _, p := range eg.Points() {
		t.AddRowf(day(p.Time), p.Value/(7*86400)/1e6, ig.At(p.Time)/(7*86400)/1e6)
	}
	t.AddNote("%s", note)
	return t
}

// Figure13 renders the top-5 victims of the site's amplifiers over time.
func (s *Simulation) Figure13() *Table {
	t := &Table{ID: "fig13", Title: "Top-5 Merit victims' received volume (Figure 13)",
		Headers: []string{"victim", "asn", "country", "total_GB", "peak_hour_MBps", "hours_active"}}
	merit := s.res.World.Views["Merit"]
	vics := merit.Victims()
	if len(vics) > 5 {
		vics = vics[:5]
	}
	diurnal := 0
	for _, v := range vics {
		asn, country := merit.OwnerASN(v.Addr)
		peak, _ := v.Hourly.Max()
		t.AddRowf(v.Addr.String(), asn, country, float64(v.WireIn)/1e9,
			peak.Value/3600/1e6, float64(v.Hourly.Len()))
		if core.NewDiurnalProfile(v.Hourly.Points()).IsDiurnal() {
			diurnal++
		}
	}
	t.AddNote("paper: coordinated multi-day attacks with a diurnal pattern; volumes in the GB-TB range")
	t.AddNote("%d of %d top victims show diurnal (manual-attacker) structure", diurnal, len(vics))
	return t
}

// Figure14 renders Merit's protocol mix.
func (s *Simulation) Figure14() *Table {
	t := &Table{ID: "fig14", Title: "All traffic at Merit by protocol (Figure 14)",
		Headers: []string{"week_of", "ntp_MBps", "dns_MBps", "http_MBps", "https_MBps", "other_MBps"}}
	merit := s.res.World.Views["Merit"]
	protos := []string{"ntp", "dns", "http", "https", "other"}
	weekly := make(map[string]*stats.TimeSeries)
	for _, proto := range protos {
		weekly[proto] = stats.NewTimeSeries(vtime.Epoch, 7*24*time.Hour)
		if ts := merit.ProtoBytes[proto]; ts != nil {
			for _, p := range ts.Points() {
				weekly[proto].Add(p.Time, p.Value)
			}
		}
	}
	for _, p := range weekly["http"].Points() {
		row := []any{day(p.Time)}
		for _, proto := range protos {
			row = append(row, weekly[proto].At(p.Time)/(7*86400)/1e6)
		}
		t.AddRowf(row...)
	}
	t.AddNote("paper: NTP's steep rise adds ~2%% extra traffic at Merit overall")
	bill := s.res.World.Views["Merit"]
	before := bill.Billed95(time.Date(2013, 10, 1, 0, 0, 0, 0, time.UTC), time.Date(2013, 11, 1, 0, 0, 0, 0, time.UTC))
	during := bill.Billed95(time.Date(2014, 2, 1, 0, 0, 0, 0, time.UTC), time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC))
	if before > 0 {
		t.AddNote("95th-percentile billing level: +%.1f%% February vs October", (during/before-1)*100)
	}
	return t
}

// Figure15 renders the common Merit/FRGP victims.
func (s *Simulation) Figure15() *Table {
	t := &Table{ID: "fig15", Title: "Common Merit/FRGP victims (Figure 15)",
		Headers: []string{"victim", "merit_GB", "frgp_GB"}}
	merit := s.res.World.Views["Merit"]
	frgp := s.res.World.Views["FRGP"]
	mv, fv := merit.VictimSet(), frgp.VictimSet()
	common := 0
	for _, v := range merit.Victims() {
		if fv.Has(v.Addr) {
			common++
			if common <= 10 {
				var frgpGB float64
				for _, fvv := range frgp.Victims() {
					if fvv.Addr == v.Addr {
						frgpGB = float64(fvv.WireIn) / 1e9
					}
				}
				t.AddRowf(v.Addr.String(), float64(v.WireIn)/1e9, frgpGB)
			}
		}
	}
	t.AddNote("common victims: %d of %d Merit / %d FRGP (paper: 291 of 13386 / 5659)",
		common, mv.Len(), fv.Len())
	return t
}

// Figure16 renders the common Merit/CSU scanners.
func (s *Simulation) Figure16() *Table {
	t := &Table{ID: "fig16", Title: "Common Merit/CSU scanners (Figure 16)",
		Headers: []string{"scanner", "research", "merit_probes", "csu_probes"}}
	merit := s.res.World.Views["Merit"]
	csu := s.res.World.Views["CSU"]
	cs := csu.ScannerSet()
	common, research := 0, 0
	for _, sc := range merit.Scanners() {
		if !cs.Has(sc.Addr) {
			continue
		}
		common++
		isResearch := s.res.World.Telescope.IsBenign(sc.Addr)
		if isResearch {
			research++
		}
		if common <= 10 {
			var csuPkts int64
			for _, c := range csu.Scanners() {
				if c.Addr == sc.Addr {
					csuPkts = c.Packets
				}
			}
			t.AddRowf(sc.Addr.String(), isResearch, sc.Packets, csuPkts)
		}
	}
	t.AddNote("common scanners: %d, of which %d research (paper: 42, mostly research)", common, research)
	return t
}

// Table5 renders the top amplifiers at Merit and CSU.
func (s *Simulation) Table5() *Table {
	t := &Table{ID: "table5", Title: "Top-5 amplifiers at Merit and CSU (Table 5)",
		Headers: []string{"site", "amplifier", "baf", "unique_victims", "GB_sent"}}
	for _, site := range []string{"Merit", "CSU"} {
		v := s.res.World.Views[site]
		amps := v.Amplifiers()
		if len(amps) > 5 {
			amps = amps[:5]
		}
		for _, a := range amps {
			t.AddRowf(site, a.Addr.String(), a.BAF(), a.Victims.Len(), float64(a.WireOut)/1e9)
		}
	}
	t.AddNote("paper: Merit BAFs 948-1297 with 1626-3072 victims and up to 5.8TB sent; CSU BAFs 465-805")
	return t
}

// Table6 renders the top victims at Merit and CSU.
func (s *Simulation) Table6() *Table {
	t := &Table{ID: "table6", Title: "Top-5 victims at Merit and CSU (Table 6)",
		Headers: []string{"site", "victim", "asn", "country", "baf", "amplifiers", "dur_hours", "GB"}}
	for _, site := range []string{"Merit", "CSU"} {
		v := s.res.World.Views[site]
		vics := v.Victims()
		if len(vics) > 5 {
			vics = vics[:5]
		}
		for _, vic := range vics {
			asn, country := v.OwnerASN(vic.Addr)
			t.AddRowf(site, vic.Addr.String(), asn, country, vic.BAF(),
				vic.Amplifiers.Len(), vic.DurationHours(), float64(vic.WireIn)/1e9)
		}
	}
	t.AddNote("paper: victims in JP/CN/US/DE via Merit (up to 5.9TB, 114-166h) and FR/RO/BR/UK via CSU")
	return t
}

// ChurnReport renders the §3.1 amplifier-churn findings.
func (s *Simulation) ChurnReport() *Table {
	t := &Table{ID: "churn", Title: "Amplifier churn across samples (§3.1)",
		Headers: []string{"metric", "value", "paper"}}
	if s.noSurvey(t) {
		return t
	}
	c := core.Churn(s.res.MonlistAnalyses)
	t.AddRow("unique amplifier IPs", report.Count(c.TotalUnique, s.Scale()), "2166097")
	t.AddRow("share seen in first sample", report.Pct(c.FirstSampleShare*100), "~60%")
	t.AddRow("share seen exactly once", report.Pct(c.SeenOnceShare*100), "~50%")
	return t
}

// VolumeReport renders the §4.3.3 aggregate attack volume.
func (s *Simulation) VolumeReport() *Table {
	t := &Table{ID: "volume", Title: "Aggregate attack volume (§4.3.3)",
		Headers: []string{"metric", "value", "paper"}}
	if s.noSurvey(t) {
		return t
	}
	v := core.AggregateVolume(s.res.MonlistAnalyses, 420)
	scale := float64(s.Scale())
	t.AddRow("victim packets (re-inflated)", report.SI(float64(v.TotalPackets)*scale), "2.92T")
	t.AddRow("unique victim IPs (re-inflated)", report.SI(float64(v.UniqueVictims)*scale), "437K")
	t.AddRow("estimated bytes (re-inflated)", report.SI(v.EstBytes*scale), "1.2PB")
	t.AddRow("under-sampling correction", fmt.Sprintf("%.1fx", v.CorrectionFactor), "3.8x")
	return t
}

// RemediationReport renders §6.1's subgroup remediation rates.
func (s *Simulation) RemediationReport() *Table {
	t := &Table{ID: "remediation", Title: "Remediation by subgroup (§6.1)",
		Headers: []string{"subgroup", "reduction_pct", "paper"}}
	if s.noSurvey(t) {
		return t
	}
	lv := core.RemediationByLevel(s.res.MonlistAnalyses, s.res.Registries)
	t.AddRow("IP level", report.Pct(lv.IPPct), "92%")
	t.AddRow("/24 level", report.Pct(lv.Slash24Pct), "72%")
	t.AddRow("routed block level", report.Pct(lv.BlockPct), "59%")
	t.AddRow("AS level", report.Pct(lv.ASPct), "55%")
	byCont := core.RemediationByContinent(s.res.MonlistAnalyses, s.res.Registries)
	paper := map[geo.Continent]string{
		geo.NorthAmerica: "97%", geo.Oceania: "93%", geo.Europe: "89%",
		geo.Asia: "84%", geo.Africa: "77%", geo.SouthAmerica: "63%",
	}
	for _, c := range geo.Continents() {
		t.AddRow(c.String(), report.Pct(byCont[c]), paper[c])
	}
	return t
}

// DNSOverlapReport renders §6.2's pool intersection.
func (s *Simulation) DNSOverlapReport() *Table {
	t := &Table{ID: "dnsoverlap", Title: "Monlist / open-DNS-resolver pool overlap (§6.2)",
		Headers: []string{"metric", "value", "paper"}}
	if s.noSurvey(t) {
		return t
	}
	lastPool := s.res.MonlistPools[len(s.res.MonlistPools)-1]
	curN, curF := core.PoolOverlap(lastPool, s.res.World.DNSPool)
	t.AddRow("current overlap", fmt.Sprintf("%s (%.1f%%)", report.Count(curN, s.Scale()), curF*100), "~7K of 107K")
	cumN, cumF := core.PoolOverlap(s.ampUnion, s.res.World.DNSPool)
	t.AddRow("cumulative overlap", fmt.Sprintf("%s (%.1f%%)", report.Count(cumN, s.Scale()), cumF*100), "199K (9.2%)")
	return t
}

// TTLReport renders the §7.2 TTL fingerprints at CSU.
func (s *Simulation) TTLReport() *Table {
	t := &Table{ID: "ttl", Title: "TTL fingerprints at CSU (§7.2)",
		Headers: []string{"population", "ttl_mode", "paper"}}
	csu := s.res.World.Views["CSU"]
	if m, _, ok := csu.ScanTTL.Mode(); ok {
		t.AddRowf("scanners", m, "54 (Linux)")
	}
	if m, _, ok := csu.TriggerTTL.Mode(); ok {
		t.AddRowf("attack triggers", m, "109 (Windows bots)")
	}
	t.AddNote("scanners are Linux boxes; spoofed triggers come from Windows botnet nodes")
	return t
}

// MegaReport renders the §3.4 mega-amplifier findings.
func (s *Simulation) MegaReport() *Table {
	t := &Table{ID: "mega", Title: "Mega amplifiers (§3.4)",
		Headers: []string{"metric", "value", "paper"}}
	if s.noSurvey(t) {
		return t
	}
	over100KB := netaddr.NewSet(0)
	overGB := netaddr.NewSet(0)
	var maxBytes int64
	var maxAddr netaddr.Addr
	for _, a := range s.res.MonlistAnalyses {
		for addr, rec := range a.Amps {
			if core.IsMegaVolume(rec.Bytes) {
				over100KB.Add(addr)
			}
			if rec.Bytes > 1<<30 {
				overGB.Add(addr)
			}
			if rec.Bytes > maxBytes {
				maxBytes, maxAddr = rec.Bytes, addr
			}
		}
	}
	t.AddRow(">100KB responders", report.Count(over100KB.Len(), s.Scale()), "~10000")
	t.AddRow(">1GB responders", fmt.Sprintf("%d", overGB.Len()), "6 (absolute)")
	t.AddRow("largest single response", report.SI(float64(maxBytes)), "136GB")
	if as := s.res.World.DB.OwnerOf(maxAddr); as != nil {
		t.AddRow("largest responder location", string(as.Country), "JP (all nine extremes)")
	}
	t.AddNote("mechanism: loop-like re-processing resends an updated table, re-counting the querier")
	return t
}

func sortTimes(ts []time.Time) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j].Before(ts[j-1]); j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}

// HoneypotReport renders the amplification-honeypot vantage: detected
// attack events validated against the launched-campaign ground truth, and
// the per-month cross-vantage comparison against the fabric and the global
// telemetry feed.
func (s *Simulation) HoneypotReport() *Table {
	t := &Table{ID: "honeypot", Title: "Honeypot fleet: events vs ground truth and other vantages",
		Headers: []string{"month", "honeypot_events", "fabric_campaigns", "telemetry_ntp"}}
	hp := s.res.Honeypot
	if hp == nil {
		t.AddNote("honeypot fleet disabled (Config.HoneypotSensors = 0)")
		return t
	}
	for _, m := range hp.Cross.Months {
		t.AddRowf(m.Month.Format("2006-01"), m.HoneypotEvents, m.FabricCampaigns, m.TelemetryNTP)
	}
	val := hp.Validation
	t.AddNote("%d sensors detected %d/%d campaigns (%.1f%%), %d merged, %d unmatched events",
		hp.NumSensors, val.Detected, val.Campaigns, val.DetectionRate()*100,
		val.MergedCampaigns, len(val.UnmatchedEvents))
	t.AddNote("fleet: %s queries, %s replies sent, %s RRL-suppressed, %d scanner sources",
		report.SI(float64(hp.QueriesSeen)), report.SI(float64(hp.RepliesSent)),
		report.SI(float64(hp.RepliesSuppressed)), len(hp.ScannerSources))
	for _, site := range hp.Cross.Sites {
		t.AddNote("site %s: %d victims at the ISP tap, %d also seen by the fleet",
			site.Site, site.SiteVictims, site.Overlap)
	}
	return t
}

// HoneypotConvergence renders the fleet-sizing curve: the fraction of
// ground-truth campaigns observed by the first k sensors.
func (s *Simulation) HoneypotConvergence() *Table {
	t := &Table{ID: "hpconv", Title: "Honeypot convergence: campaigns seen vs sensors deployed",
		Headers: []string{"sensors", "campaign_fraction"}}
	hp := s.res.Honeypot
	if hp == nil {
		t.AddNote("honeypot fleet disabled (Config.HoneypotSensors = 0)")
		return t
	}
	for k, frac := range hp.Convergence {
		t.AddRowf(k+1, frac)
	}
	t.AddNote("per-campaign sensor inclusion probability %.2f; AmpPot reports diminishing returns beyond ~20 sensors",
		honeypot.DefaultInclusionProb)
	return t
}
