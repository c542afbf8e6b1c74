package core_test

import (
	"testing"
	"time"

	"ntpddos/internal/attack"
	"ntpddos/internal/core"
	"ntpddos/internal/netaddr"
	"ntpddos/internal/netsim"
	"ntpddos/internal/ntp"
	"ntpddos/internal/ntpd"
	"ntpddos/internal/rng"
	"ntpddos/internal/scan"
	"ntpddos/internal/vtime"
)

// TestEndToEndPipeline runs the full measurement loop on a small world:
// vulnerable daemons get attacked, the ONP-style survey probes them, and
// the analysis pipeline recovers the victims, ports and attack volumes from
// nothing but the captured response packets.
func TestEndToEndPipeline(t *testing.T) {
	sched := vtime.NewScheduler()
	nw := netsim.New(sched, nil)
	src := rng.New(99)

	// Ten amplifiers.
	var ampAddrs []netaddr.Addr
	for i := 0; i < 10; i++ {
		addr := netaddr.Addr(0x0a000001 + uint32(i)*256)
		srv := ntpd.New(ntpd.Config{Addr: addr, MonlistEnabled: true,
			Profile: ntpd.Profile{TTL: 64, SystemString: "linux"}})
		nw.Register(addr, srv)
		ampAddrs = append(ampAddrs, addr)
	}

	// An attack against one victim through five of them.
	victim := netaddr.MustParseAddr("203.0.113.50")
	engine := attack.NewEngine(nw, src, []netaddr.Addr{netaddr.MustParseAddr("192.0.2.1")})
	// A slow-and-long attack (2 triggers per 30s batch): the inter-arrival
	// stays above one second, so the monlist table's integer-seconds
	// inter-arrival field carries recoverable timing. (Intense attacks
	// truncate to 0 — exactly the Table 3b victims' inter-arrival of 0.)
	engine.Launch(attack.Campaign{
		Victim: victim, Port: 3074, // XBox Live
		Start:       sched.Now().Add(time.Hour),
		Duration:    2 * time.Hour,
		TriggerRate: 1.0 / 15,
		Amplifiers:  ampAddrs[:5],
	})
	sched.RunUntil(sched.Now().Add(4 * time.Hour))

	// The ONP survey.
	prober := scan.NewProber(netaddr.MustParseAddr("198.51.100.5"), 57915)
	nw.Register(prober.Addr, prober)
	survey := &scan.Survey{
		Prober: prober, Network: nw, Kind: "monlist", DstPort: ntp.Port,
		Payload:  ntp.NewMonlistRequest(ntp.ImplXNTPD, ntp.ReqMonGetList1),
		Duration: time.Hour,
	}
	sample := survey.RunSample(sched.Now(), ampAddrs)

	analysis := core.AnalyzeSample(sample, prober.Addr)
	if len(analysis.Amps) != 10 {
		t.Fatalf("found %d amplifiers, want 10", len(analysis.Amps))
	}

	// All five attacked amplifiers must report the victim.
	vs := analysis.VictimSet()
	if !vs.Has(victim) || vs.Len() != 1 {
		t.Fatalf("victim set = %v", vs.Sorted())
	}
	perAmp := map[netaddr.Addr]bool{}
	for _, v := range analysis.Victims {
		if v.Victim != victim {
			t.Fatalf("unexpected victim %v", v.Victim)
		}
		if v.Port != 3074 {
			t.Fatalf("victim port = %d, want 3074", v.Port)
		}
		if v.Count < 400 {
			t.Fatalf("victim count = %d, want ≈480", v.Count)
		}
		perAmp[v.Amplifier] = true
	}
	if len(perAmp) != 5 {
		t.Fatalf("victim observed at %d amplifiers, want 5", len(perAmp))
	}

	// Derived attack timing must bracket the actual attack window.
	v := analysis.Victims[0]
	if v.Duration < 30*time.Minute || v.Duration > 4*time.Hour {
		t.Fatalf("derived duration = %v, actual 2h", v.Duration)
	}

	// BAFs: unprimed tables are small, so modest BAFs; all positive.
	for _, r := range analysis.Amps {
		if r.BAF <= 0 {
			t.Fatalf("amplifier %v BAF = %v", r.Addr, r.BAF)
		}
	}

	// The prober itself must have been classified out of the victim set.
	for _, v := range analysis.Victims {
		if v.Victim == prober.Addr {
			t.Fatal("prober classified as victim")
		}
	}
}

// TestVersionPipeline exercises the mode 6 path end to end.
func TestVersionPipeline(t *testing.T) {
	sched := vtime.NewScheduler()
	nw := netsim.New(sched, nil)
	src := rng.New(5)

	var addrs []netaddr.Addr
	for i := 0; i < 50; i++ {
		addr := netaddr.Addr(0x0b000001 + uint32(i)*256)
		profile := ntpd.SampleProfile(src, ntpd.RoleAllNTP)
		stratum := 3
		if src.Bool(0.19) {
			stratum = ntp.StratumUnsynchronized
		}
		srv := ntpd.New(ntpd.Config{Addr: addr, Mode6Enabled: true, Stratum: stratum,
			Profile: profile})
		nw.Register(addr, srv)
		addrs = append(addrs, addr)
	}
	prober := scan.NewProber(netaddr.MustParseAddr("198.51.100.6"), 41000)
	nw.Register(prober.Addr, prober)
	survey := &scan.Survey{
		Prober: prober, Network: nw, Kind: "version", DstPort: ntp.Port,
		Payload: ntp.NewReadVarRequest(1), Duration: 30 * time.Minute,
	}
	sample := survey.RunSample(sched.Now(), addrs)
	census := core.AnalyzeVersionSample(sample)
	if census.Total != 50 {
		t.Fatalf("census total = %d, want 50", census.Total)
	}
	sum := 0.0
	for _, share := range census.OSShare {
		sum += share
	}
	if sum < 99.9 || sum > 100.1 {
		t.Fatalf("OS shares sum to %v", sum)
	}
	for _, info := range census.Infos() {
		if info.System == "" {
			t.Fatal("empty system string parsed")
		}
	}
	// Subset share: restrict to first 10 addresses.
	subset := netaddr.NewSet(0)
	for _, a := range addrs[:10] {
		subset.Add(a)
	}
	shares := census.OSShareOf(subset)
	sub := 0.0
	for _, s := range shares {
		sub += s
	}
	if sub < 99.9 || sub > 100.1 {
		t.Fatalf("subset shares sum to %v", sub)
	}
}
