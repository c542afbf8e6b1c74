package scenario

import (
	"math"
	"time"

	"ntpddos/internal/attack"
	"ntpddos/internal/netaddr"
	"ntpddos/internal/netsim"
	"ntpddos/internal/ntp"
	"ntpddos/internal/packet"
	"ntpddos/internal/telemetry"
	"ntpddos/internal/vtime"
)

// table1Targets is the paper's measured weekly monlist amplifier population
// (Table 1), the calibration target for the remediation model.
var table1Targets = []int{
	1405186, 1276639, 677112, 438722, 365724, 235370, 176931, 159629,
	123673, 121507, 110565, 108385, 112131, 108636, 106445,
}

// ONPStart is the first weekly monlist sample: January 10th, 2014.
var ONPStart = time.Date(2014, 1, 10, 0, 0, 0, 0, time.UTC)

// VersionStart is the first weekly version sample: February 21st, 2014.
var VersionStart = time.Date(2014, 2, 21, 0, 0, 0, 0, time.UTC)

// attackRatePoints is the piecewise-linear real-world NTP-reflection attack
// rate (attacks/hour) calibrated to Figure 7: onset late December, daily
// peak ~4000/hr on February 11–12 (the CloudFlare/OVH event), then decline.
var attackRatePoints = []struct {
	date time.Time
	rate float64
}{
	{time.Date(2013, 9, 1, 0, 0, 0, 0, time.UTC), 0},
	{time.Date(2013, 11, 1, 0, 0, 0, 0, time.UTC), 1},
	{time.Date(2013, 12, 1, 0, 0, 0, 0, time.UTC), 5},
	{time.Date(2013, 12, 20, 0, 0, 0, 0, time.UTC), 60},
	{time.Date(2014, 1, 10, 0, 0, 0, 0, time.UTC), 150},
	{time.Date(2014, 2, 1, 0, 0, 0, 0, time.UTC), 600},
	{time.Date(2014, 2, 11, 0, 0, 0, 0, time.UTC), 4000},
	{time.Date(2014, 2, 13, 0, 0, 0, 0, time.UTC), 2500},
	{time.Date(2014, 2, 20, 0, 0, 0, 0, time.UTC), 1000},
	{time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC), 650},
	{time.Date(2014, 4, 1, 0, 0, 0, 0, time.UTC), 380},
	{time.Date(2014, 5, 1, 0, 0, 0, 0, time.UTC), 280},
}

// AttackRateAt interpolates the real-world attacks/hour at t.
func AttackRateAt(t time.Time) float64 {
	pts := attackRatePoints
	if t.Before(pts[0].date) {
		return pts[0].rate
	}
	for i := 1; i < len(pts); i++ {
		if t.Before(pts[i].date) {
			span := pts[i].date.Sub(pts[i-1].date)
			frac := float64(t.Sub(pts[i-1].date)) / float64(span)
			return pts[i-1].rate + frac*(pts[i].rate-pts[i-1].rate)
		}
	}
	return pts[len(pts)-1].rate
}

// ntpAdoption is the Figure 2 calibration: the fraction of attacks in each
// size class using the NTP vector, per month (Nov 2013 .. Apr 2014).
var ntpAdoption = map[time.Month][3]float64{
	// {Small, Medium, Large}
	time.November: {0.001, 0.001, 0.002},
	time.December: {0.01, 0.02, 0.03},
	time.January:  {0.06, 0.22, 0.44},
	time.February: {0.12, 0.63, 0.70},
	time.March:    {0.13, 0.51, 0.64},
	time.April:    {0.10, 0.18, 0.41},
}

// sizeClassWeights is the global attack size mix: ~90% small, ~10% medium,
// ~1% large (§2.2).
var sizeClassWeights = []float64{0.895, 0.095, 0.01}

// otherVectors label non-NTP attacks for Figure 2's denominators.
var otherVectors = []string{"syn", "dns", "icmp", "udp"}

// monthlyAttacks is the global DDoS attack rate (~300K/month), used for
// Figure 2's denominators; only NTP-vector attacks touch the fabric.
const monthlyAttacks = 300_000

// runTelemetryMonth records the month's labeled attack census (Figure 2's
// bookkeeping; these records never touch the fabric).
func (w *World) runTelemetryMonth(month time.Time) {
	src := w.Src.Fork("telemetry-" + month.Format("2006-01"))
	n := monthlyAttacks / w.Cfg.Scale
	adopt, ok := ntpAdoption[month.Month()]
	if !ok {
		adopt = [3]float64{}
	}
	daysIn := month.AddDate(0, 1, 0).Sub(month).Hours() / 24
	for i := 0; i < n; i++ {
		cls := telemetry.SizeClass(src.Weighted(sizeClassWeights))
		var gbps float64
		switch cls {
		case telemetry.Small:
			gbps = 0.05 + src.Float64()*1.9
		case telemetry.Medium:
			gbps = 2 + src.Float64()*18
		default:
			gbps = 20 + src.Pareto(1, 1.5)*10
			if gbps > 400 {
				gbps = 400
			}
		}
		vector := otherVectors[src.IntN(len(otherVectors))]
		if src.Bool(adopt[cls]) {
			vector = "ntp"
		}
		start := month.Add(time.Duration(src.Float64() * daysIn * 24 * float64(time.Hour)))
		w.Collector.RecordAttack(telemetry.Attack{Start: start, PeakGbps: gbps, Vector: vector})
	}
}

// addDailyBaselines feeds Figure 1: DNS hovers at ~0.15% of traffic; NTP is
// its ~0.001% benign sync load plus the attack volume, which tracks the
// Figure 7 intensity curve and tops out at ~1% of all Internet traffic on
// the peak day. The attack contribution is analytic — per-sampled-campaign
// accounting would put 40 000× re-inflation variance on single draws.
func (w *World) addDailyBaselines(day time.Time) {
	total := telemetry.DailyBytes
	w.Collector.AddAggregate(day, telemetry.ProtoDNS, total*0.0015)
	attackFraction := AttackRateAt(day.Add(12*time.Hour)) / 4000 * 0.0099
	w.Collector.AddAggregate(day, telemetry.ProtoNTP, total*(0.00001+attackFraction))
}

// pickVictim draws a victim; the end-host share grows over the window
// (Table 1: 31% in January to ~50% by March).
func (w *World) pickVictim(t time.Time) victimSpec {
	pEnd := 0.31
	if weeks := t.Sub(ONPStart).Hours() / 168; weeks > 0 {
		pEnd += 0.02 * weeks
		if pEnd > 0.52 {
			pEnd = 0.52
		}
	}
	wantEnd := w.Src.Bool(pEnd)
	// Zipf rank concentration over the pool: repeat victims are common and
	// the head of the pool (OVH) absorbs a disproportionate share.
	for tries := 0; tries < 8; tries++ {
		idx := int(w.victimZipf.Uint64())
		if idx >= len(w.victimPool) {
			continue
		}
		v := w.victimPool[idx]
		if v.endHost == wantEnd {
			return v
		}
	}
	return w.victimPool[int(w.victimZipf.Uint64())%len(w.victimPool)]
}

// sampleAmps draws k distinct amplifiers from the attacker's current list,
// rank-skewed: booters reuse the same harvested "favourite" amplifiers far
// more than they rotate through the pool. This is what keeps the median
// monitor table small (most of the 1.4M pool is never abused) while the
// head amplifiers accumulate fat victim tables, and what concentrates the
// Figure 5 amplifier-AS CDF.
func (w *World) sampleAmps(list []netaddr.Addr, k int) []netaddr.Addr {
	if k >= len(list) {
		out := make([]netaddr.Addr, len(list))
		copy(out, list)
		return out
	}
	z := w.Src.Zipf(1.3, uint64(len(list)))
	out := make([]netaddr.Addr, 0, k)
	seen := make(map[int]bool, k)
	for tries := 0; len(out) < k && tries < 40*k; tries++ {
		i := int(z.Uint64())
		if i < len(list) && !seen[i] {
			seen[i] = true
			out = append(out, list[i])
		}
	}
	for len(out) < k { // fill any remainder uniformly
		i := w.Src.IntN(len(list))
		if !seen[i] {
			seen[i] = true
			out = append(out, list[i])
		}
	}
	return out
}

// refreshFavorites rebuilds the booters' shared amplifier working set from
// the current pool: a bounded, head-skewed slice of it.
func (w *World) refreshFavorites() {
	pool := w.AmplifierList()
	if len(pool) == 0 {
		w.favorites = nil
		return
	}
	size := len(pool) / 12
	if size < 30 {
		size = 30
	}
	w.favorites = w.sampleAmps(pool, size)
}

// generateFabricAttacksForDay schedules the day's reflection campaigns on
// the fabric. The count follows the Figure 7 rate curve divided by Scale
// (and the extra fabric divisor); volumes are re-inflated when reported.
func (w *World) generateFabricAttacksForDay(day time.Time, ampList []netaddr.Addr) {
	if len(ampList) == 0 {
		return
	}
	div := w.Cfg.Scale * w.Cfg.FabricAttackDivisor
	expected := AttackRateAt(day) * 24 / float64(div)
	n := w.Src.Poisson(expected)
	for i := 0; i < n; i++ {
		cls := w.Src.Weighted(sizeClassWeights)
		victim := w.pickVictim(day)
		var amps, primeSrc int
		var rate, durMedian, durSigma float64
		switch cls {
		case 0: // small
			amps, rate = 2+w.Src.IntN(6), 2+w.Src.Float64()*12
			durMedian, durSigma = 30, 2.2
		case 1: // medium
			amps, rate = 8+w.Src.IntN(30), 60+w.Src.Float64()*350
			durMedian, durSigma = 60, 2.0
			if w.Src.Bool(0.25) {
				primeSrc = 40
			}
		default: // large
			amps, rate = 30+w.Src.IntN(120), 500+w.Src.Float64()*2000
			durMedian, durSigma = 600, 1.5
			if w.Src.Bool(0.4) {
				primeSrc = 40
			}
		}
		dur := time.Duration(w.Src.LogNormal(math.Log(durMedian), durSigma) * float64(time.Second))
		if dur < 10*time.Second {
			dur = 10 * time.Second
		}
		if dur > 12*time.Hour {
			dur = 12 * time.Hour
		}
		hour := attack.SampleStartHour(w.Src)
		start := day.Add(time.Duration(hour)*time.Hour +
			time.Duration(w.Src.IntN(3600))*time.Second)
		interval := 30 * time.Second
		if batches := int(dur / interval); batches > 60 {
			interval = dur / 60
		}
		c := attack.Campaign{
			Victim: victim.addr, Port: attack.SamplePort(w.Src),
			Start: start, Duration: dur, TriggerRate: rate,
			Amplifiers:   w.sampleAmps(ampList, amps),
			PrimeSources: primeSrc,
			Interval:     interval,
		}
		// Campaign shaping (pulse-wave / carpet-bombing / multi-vector)
		// consumes the campaign whole — including the sibling expansion
		// below, which models sustained-flood behaviour. With every share
		// zero this is a no-op that draws nothing.
		if w.shapeCampaign(c) {
			continue
		}
		w.Engine.Launch(c)
		// "A given attack campaign may involve several IPs in a network
		// block" (§4.3.4): with some probability the same campaign also
		// hits the victim's immediate neighbours, which is what lifts the
		// Table 1 victims-per-routed-block average to 3–5. Offsets are
		// fixed so repeat attacks on a victim revisit the same siblings.
		if w.Src.Bool(0.45) {
			sibs := 1 + w.Src.IntN(3)
			for sb := 1; sb <= sibs; sb++ {
				sc := c
				sc.Victim = victim.addr + netaddr.Addr(sb)
				sc.Start = c.Start.Add(time.Duration(w.Src.IntN(600)) * time.Second)
				w.Engine.Launch(sc)
			}
		}
	}
}

// scheduleScanning sets up the day's reconnaissance: the onset of
// large-scale malicious scanning in mid-December (Figure 9), persistent
// research survey scanning, and the ephemeral bot scanners that make up
// the unique-source ramp.
func (w *World) scheduleScanning(day time.Time, ampList []netaddr.Addr) {
	onset := time.Date(2013, 12, 15, 0, 0, 0, 0, time.UTC)
	// Research scanners: before the NTP story broke, only the occasional
	// academic survey touched port 123 (e.g. the Rossow scans of late
	// 2013); the ONP begins weekly sweeps in January and other research
	// projects pile in after — which is why "roughly half of the increase
	// in scanning can be attributed to research efforts" (§5.1).
	for i, addr := range w.researchIPs {
		period := 28 // days between sweeps
		activeFrom := time.Date(2013, 12, 20, 0, 0, 0, 0, time.UTC).AddDate(0, 0, i*4)
		switch i {
		case 0:
			period = 7 // the ONP scans weekly
			activeFrom = time.Date(2014, 1, 6, 0, 0, 0, 0, time.UTC)
		case 1:
			activeFrom = time.Date(2013, 10, 5, 0, 0, 0, 0, time.UTC)
		}
		dayN := int(day.Sub(vtime.Epoch).Hours() / 24)
		if day.After(activeFrom) && dayN%period == i%period {
			w.scheduleSweep(day, addr, ampList, true)
		}
	}
	if day.Before(onset) {
		return
	}
	// Malicious operators: persistent scanner IPs sweeping for amplifiers.
	daysSince := int(day.Sub(onset).Hours() / 24)
	active := daysSince / 3
	if active > len(w.maliciousIPs) {
		active = len(w.maliciousIPs)
	}
	for i := 0; i < active; i++ {
		if (int(day.Sub(vtime.Epoch).Hours()/24)+i)%7 == 0 { // each sweeps weekly
			w.scheduleSweep(day, w.maliciousIPs[i], ampList, false)
		}
	}
	// Ephemeral bot scanners: the unique-source ramp of Figure 9. Counts
	// are scaled; each sends a small Rep-weighted dark probe burst.
	ramp := float64(daysSince) / 60
	if ramp > 1 {
		ramp = 1
	}
	perDay := int(ramp * 8000 / float64(w.Cfg.Scale) * 10)
	for i := 0; i < perDay; i++ {
		src := w.randomSpooferAddr()
		at := day.Add(time.Duration(w.Src.IntN(86400)) * time.Second)
		w.Sched.At(at, func(now time.Time) {
			w.sendDarkProbes(src, 2, 10000)
		})
	}
}

// scheduleSweep models one Internet-wide scan from addr: probes to every
// live NTP server (sampled for non-research scanners), probes into the
// darknet's covered space, and probes to the §7 local-site amplifiers so
// the regional views record the scanner.
func (w *World) scheduleSweep(day time.Time, addr netaddr.Addr, ampList []netaddr.Addr, research bool) {
	start := day.Add(time.Duration(w.Src.IntN(12)) * time.Hour)
	probe := ntp.NewMonlistRequest(ntp.ImplXNTPD, ntp.ReqMonGetList1)
	w.Sched.At(start, func(now time.Time) {
		// Darknet footprint: a research sweep covers all of IPv4, touching
		// every covered dark address once (40 Rep-weighted datagrams);
		// malicious list-building scans cover targeted slices (~10%).
		darkTouches := uint64(w.Telescope.Prefix.NumAddrs()) * 3 / 4
		if !research {
			darkTouches /= 5
		}
		w.sendDarkProbes(addr, 40, darkTouches/40)
		// Local-site visibility: research sweeps always reach the sites;
		// malicious ones do with probability 0.3 (little cross-site
		// synchronization — Figure 16).
		sites := [][]netaddr.Addr{w.MeritAmps, w.CSUAmps, w.FRGPAmps}
		for _, site := range sites {
			if research || w.Src.Bool(0.3) {
				// Research sweeps cover whole sites; malicious scanners are
				// seen at a handful of site hosts per pass.
				targets := site
				if !research && len(site) > 8 {
					targets = w.sampleAmps(site, 8)
				}
				for _, amp := range targets {
					w.Net.SendUDP(addr, 40000+uint16(w.Src.IntN(20000)), amp, ntp.Port,
						64, probe)
				}
			}
		}
		// Honeypot sensors answer every probe, so every pass — research
		// census or malicious list-building — covers the whole fleet; that
		// responsiveness is how the sensors end up in booter reflector
		// lists. Port draws come from the honeypot stream to keep the world
		// stream untouched.
		if w.Honeypots != nil {
			for _, s := range w.Honeypots.Addrs() {
				w.Net.SendUDP(addr, 40000+uint16(w.hpSrc.IntN(20000)), s, ntp.Port,
					64, probe)
			}
		}
		// A small sample of the global pool (full sweeps at scale are the
		// ONP survey's job; attackers' list-building is modeled as
		// snapshots). The sample is tiny because scanner counts are near
		// real scale while the pool is divided by Scale — per-amplifier
		// scanner-entry density must stay realistic.
		k := 3
		if k > len(ampList) {
			k = len(ampList)
		}
		for _, amp := range w.sampleAmps(ampList, k) {
			w.Net.SendUDP(addr, 40000+uint16(w.Src.IntN(20000)), amp, ntp.Port, 64, probe)
		}
	})
}

// sendDarkProbes emits n Rep-weighted probes into covered dark space.
func (w *World) sendDarkProbes(src netaddr.Addr, n int, repEach uint64) {
	probe := ntp.NewMonlistRequest(ntp.ImplXNTPD, ntp.ReqMonGetList1)
	for i := 0; i < n; i++ {
		dst := w.Telescope.Prefix.Nth(w.Src.Uint64N(w.Telescope.Prefix.NumAddrs()))
		dg := newProbeDatagram(src, dst, probe)
		dg.Rep = int64(repEach)
		w.Net.SendFrom(src, dg)
	}
}

func (w *World) randomSpooferAddr() netaddr.Addr {
	if len(w.botAddrs) == 0 {
		return netaddr.Addr(w.Src.Uint32())
	}
	base := w.botAddrs[w.Src.IntN(len(w.botAddrs))]
	return base ^ netaddr.Addr(w.Src.IntN(4096))
}

// newProbeDatagram builds a monlist probe datagram with the Linux default
// TTL (scanners are overwhelmingly Linux boxes — §7.2).
func newProbeDatagram(src, dst netaddr.Addr, payload []byte) *packet.Datagram {
	dg := packet.NewDatagram(src, 40000, dst, ntp.Port, payload)
	dg.IP.TTL = netsim.TTLLinux
	return dg
}
