package honeypot

import (
	"testing"
	"time"

	"ntpddos/internal/attack"
	"ntpddos/internal/netaddr"
	"ntpddos/internal/netsim"
	"ntpddos/internal/ntp"
	"ntpddos/internal/packet"
	"ntpddos/internal/rng"
	"ntpddos/internal/vtime"
)

func testHarness() (*netsim.Network, *vtime.Scheduler) {
	sched := vtime.NewScheduler()
	return netsim.New(sched, nil), sched
}

func sensorAddrs(n int) []netaddr.Addr {
	addrs := make([]netaddr.Addr, n)
	base := netaddr.MustParseAddr("100.64.0.10")
	for i := range addrs {
		addrs[i] = base + netaddr.Addr(i*256)
	}
	return addrs
}

func deployFleet(t *testing.T, nw *netsim.Network, n int) *Fleet {
	t.Helper()
	f := NewFleet(sensorAddrs(n), 0, rng.New(7).Fork("honeypot"))
	if len(f.Sensors) != n {
		t.Fatalf("fleet has %d sensors, want %d", len(f.Sensors), n)
	}
	f.Register(nw)
	return f
}

// repCollector counts Rep-weighted packets delivered to one address.
type repCollector struct{ packets int64 }

func (c *repCollector) HandlePacket(_ *netsim.Network, dg *packet.Datagram, _ time.Time) {
	rep := dg.Rep
	if rep <= 0 {
		rep = 1
	}
	c.packets += rep
}

var monlistProbe = ntp.NewMonlistRequest(ntp.ImplXNTPD, ntp.ReqMonGetList1)

// spoofedTrigger mimics the attack engine's batched trigger datagram.
func spoofedTrigger(victim netaddr.Addr, port uint16, sensor netaddr.Addr, rep int64) *packet.Datagram {
	dg := packet.NewDatagram(victim, port, sensor, ntp.Port, monlistProbe)
	dg.IP.TTL = netsim.TTLWindows
	dg.Rep = rep
	return dg
}

func TestFleetDetectsSpoofedCampaign(t *testing.T) {
	nw, sched := testHarness()
	fleet := deployFleet(t, nw, 8)
	bot := netaddr.MustParseAddr("198.51.100.50")
	victim := netaddr.MustParseAddr("203.0.113.80")
	vcol := &repCollector{}
	nw.Register(victim, vcol)

	// Six 30s-spaced trigger batches of 100 packets to three of the eight
	// sensors — a mid-size fabric campaign.
	start := nw.Now().Add(time.Minute)
	included := []int{0, 2, 4}
	for b := 0; b < 6; b++ {
		at := start.Add(time.Duration(b) * 30 * time.Second)
		sched.At(at, func(now time.Time) {
			for _, idx := range included {
				nw.SendFrom(bot, spoofedTrigger(victim, 80, fleet.Sensors[idx].Addr, 100))
			}
		})
	}
	sched.Drain()
	fleet.Detector.Flush(nw.Now())

	events := fleet.Detector.Events()
	if len(events) != 1 {
		t.Fatalf("got %d events, want 1: %+v", len(events), events)
	}
	ev := events[0]
	if ev.Victim != victim || ev.Port != 80 {
		t.Fatalf("event key %v:%d, want %v:80", ev.Victim, ev.Port, victim)
	}
	if ev.Packets != 6*100*int64(len(included)) {
		t.Fatalf("event packets = %d, want %d", ev.Packets, 6*100*len(included))
	}
	if len(ev.Sensors) != len(included) {
		t.Fatalf("event seen by %d sensors, want %d", len(ev.Sensors), len(included))
	}
	if ev.Bursts != 1 {
		t.Fatalf("30s-spaced batches split into %d bursts, want 1", ev.Bursts)
	}
	if d := ev.Duration(); d < 2*time.Minute || d > 3*time.Minute {
		t.Fatalf("event duration %v, want ≈2.5min", d)
	}
	// RRL must clamp the reflected flood: each 100-packet batch is granted
	// at most the 20-packet per-source budget, so the victim receives no
	// more than a fifth of the trigger volume.
	if vcol.packets == 0 {
		t.Fatal("victim received nothing — RRL should answer within budget")
	}
	if vcol.packets > 6*20*int64(len(included)) {
		t.Fatalf("victim received %d packets — RRL did not clamp", vcol.packets)
	}
	if fleet.RepliesSuppressed() == 0 {
		t.Fatal("RepliesSuppressed = 0, want > 0")
	}
	if got := fleet.RepliesSent() + fleet.RepliesSuppressed(); got != fleet.QueriesSeen() {
		t.Fatalf("sent %d + suppressed %d != queries %d",
			fleet.RepliesSent(), fleet.RepliesSuppressed(), fleet.QueriesSeen())
	}
}

func TestScanProbesProduceNoEvents(t *testing.T) {
	nw, sched := testHarness()
	fleet := deployFleet(t, nw, 8)
	scanner := netaddr.MustParseAddr("198.51.100.7")
	scol := &repCollector{}
	nw.Register(scanner, scol)

	// Three full sweeps of the fleet, each probe from a fresh ephemeral
	// port — the zmap idiom. Rep is always 1.
	src := rng.New(11)
	start := nw.Now().Add(time.Minute)
	for sweep := 0; sweep < 3; sweep++ {
		for i, s := range fleet.Sensors {
			at := start.Add(time.Duration(sweep)*time.Hour + time.Duration(i)*time.Second)
			port := 32768 + uint16(src.IntN(28000))
			addr := s.Addr
			sched.At(at, func(now time.Time) {
				nw.SendUDP(scanner, port, addr, ntp.Port, netsim.TTLLinux, monlistProbe)
			})
		}
	}
	sched.Drain()
	fleet.Detector.Flush(nw.Now())

	if events := fleet.Detector.Events(); len(events) != 0 {
		t.Fatalf("scan-only traffic produced %d events: %+v", len(events), events)
	}
	// Every probe must be answered — staying responsive is the bait.
	if scol.packets != 3*8 {
		t.Fatalf("scanner got %d responses, want %d", scol.packets, 3*8)
	}
	// And the source profile must classify as a scanner.
	scanners := fleet.Detector.ScannerSources()
	if len(scanners) != 1 || scanners[0] != scanner {
		t.Fatalf("ScannerSources = %v, want [%v]", scanners, scanner)
	}
}

func TestSensorAnswersReadVarAndPriming(t *testing.T) {
	nw, sched := testHarness()
	fleet := deployFleet(t, nw, 2)
	client := netaddr.MustParseAddr("192.0.2.33")
	col := &repCollector{}
	nw.Register(client, col)

	nw.SendUDP(client, 5000, fleet.Sensors[0].Addr, ntp.Port, netsim.TTLLinux,
		ntp.NewReadVarRequest(3))
	req := ntp.NewClientRequest(nw.Now()).AppendTo(nil)
	nw.SendUDP(client, 5001, fleet.Sensors[0].Addr, ntp.Port, netsim.TTLLinux, req)
	sched.Drain()

	if col.packets < 2 {
		t.Fatalf("client got %d packets, want readvar + server reply", col.packets)
	}
	if fleet.PrimingSeen() != 1 {
		t.Fatalf("PrimingSeen = %d, want 1", fleet.PrimingSeen())
	}
	// Mode 6/readvar and mode 3 must not feed the attack detector.
	if fleet.Detector.Requests != 0 {
		t.Fatalf("detector ingested %d non-monlist requests", fleet.Detector.Requests)
	}
}

func TestDetectorBurstsAndEventExpiry(t *testing.T) {
	d := NewDetector(4)
	victim := netaddr.MustParseAddr("203.0.113.9")
	now := vtime.Epoch

	// First episode: two bursts separated by more than burstGap but less
	// than eventGap — one event, two bursts.
	d.Ingest(0, victim, 80, 110, 30, now)
	d.Ingest(1, victim, 80, 110, 30, now.Add(10*time.Second))
	t2 := now.Add(burstGap + time.Minute)
	d.Ingest(0, victim, 80, 110, 30, t2)

	// Second episode after eventGap: a separate event.
	t3 := t2.Add(eventGap + time.Minute)
	d.Ingest(2, victim, 80, 110, 30, t3)
	d.Ingest(3, victim, 80, 110, 30, t3.Add(5*time.Second))
	d.Flush(t3.Add(time.Minute))

	events := d.Events()
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2 (EventGap split): %+v", len(events), events)
	}
	if events[0].Bursts != 2 {
		t.Fatalf("first event has %d bursts, want 2 (BurstGap merge)", events[0].Bursts)
	}
	if events[1].Bursts != 1 || len(events[1].Sensors) != 2 {
		t.Fatalf("second event bursts=%d sensors=%d, want 1 and 2",
			events[1].Bursts, len(events[1].Sensors))
	}
	if got := events[0].SensorList(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("first event sensors %v, want [0 1]", got)
	}
}

func TestDetectorBelowThresholdNoEvent(t *testing.T) {
	d := NewDetector(4)
	victim := netaddr.MustParseAddr("203.0.113.9")
	now := vtime.Epoch

	// 14 Rep-weighted packets inside the window: below eventMinPackets 15.
	d.Ingest(0, victim, 80, 110, 14, now)
	// 15 more but outside the window — the old sample must be evicted.
	d.Ingest(0, victim, 80, 110, 14, now.Add(eventWindow+time.Second))
	d.Flush(now.Add(time.Hour))
	if events := d.Events(); len(events) != 0 {
		t.Fatalf("sub-threshold traffic produced %d events", len(events))
	}
}

func TestValidateAndConvergence(t *testing.T) {
	v1 := netaddr.MustParseAddr("203.0.113.1")
	v2 := netaddr.MustParseAddr("203.0.113.2")
	v3 := netaddr.MustParseAddr("203.0.113.3")
	epoch := vtime.Epoch
	events := []*Event{
		{Victim: v1, Port: 80, First: epoch.Add(time.Minute), Last: epoch.Add(10 * time.Minute),
			Sensors: map[int]struct{}{1: {}, 3: {}}},
		{Victim: v2, Port: 53, First: epoch.Add(2 * time.Hour), Last: epoch.Add(3 * time.Hour),
			Sensors: map[int]struct{}{0: {}}},
		// Unmatched: right key shape, but no campaign anywhere near it.
		{Victim: v3, Port: 80, First: epoch.Add(48 * time.Hour), Last: epoch.Add(49 * time.Hour),
			Sensors: map[int]struct{}{2: {}}},
	}
	truth := []attackCampaign{
		{victim: v1, port: 80, start: epoch, dur: 9 * time.Minute},
		{victim: v2, port: 53, start: epoch.Add(2 * time.Hour), dur: time.Hour},
		{victim: v1, port: 443, start: epoch, dur: time.Hour}, // undetected: port differs
	}
	val := Validate(events, toCampaigns(truth))
	if val.Campaigns != 3 || val.Detected != 2 {
		t.Fatalf("detected %d/%d, want 2/3", val.Detected, val.Campaigns)
	}
	if got := val.DetectionRate(); got < 0.66 || got > 0.67 {
		t.Fatalf("detection rate %.3f, want 2/3", got)
	}
	if len(val.UnmatchedEvents) != 1 || val.UnmatchedEvents[0].Victim != v3 {
		t.Fatalf("unmatched = %+v, want the v3 event", val.UnmatchedEvents)
	}
	if val.MatchedEvents != 2 {
		t.Fatalf("matched = %d, want 2", val.MatchedEvents)
	}

	conv := val.Convergence(4)
	if len(conv) != 4 {
		t.Fatalf("convergence has %d points, want 4", len(conv))
	}
	// Sensor 0 sees only campaign 2 → 1/3; sensors 0..1 add campaign 1 → 2/3;
	// no campaign becomes visible after that.
	want := []float64{1.0 / 3, 2.0 / 3, 2.0 / 3, 2.0 / 3}
	for k := range conv {
		if diff := conv[k] - want[k]; diff < -1e-9 || diff > 1e-9 {
			t.Fatalf("convergence[%d] = %.3f, want %.3f (full: %v)", k, conv[k], want[k], conv)
		}
	}
	for k := 1; k < len(conv); k++ {
		if conv[k] < conv[k-1] {
			t.Fatalf("convergence not monotone: %v", conv)
		}
	}
}

func TestCrossValidateJoinsVantages(t *testing.T) {
	v1 := netaddr.MustParseAddr("203.0.113.1")
	v2 := netaddr.MustParseAddr("203.0.113.2")
	epoch := vtime.Epoch
	feb := epoch.AddDate(0, 1, 0)
	events := []*Event{
		{Victim: v1, Port: 80, First: epoch.Add(time.Hour), Last: epoch.Add(2 * time.Hour)},
		{Victim: v2, Port: 53, First: feb.Add(time.Hour), Last: feb.Add(2 * time.Hour)},
	}
	truth := []attackCampaign{
		{victim: v1, port: 80, start: epoch.Add(time.Hour), dur: time.Hour},
	}
	site := netaddr.NewSet(2)
	site.Add(v1)
	site.Add(netaddr.MustParseAddr("203.0.113.99")) // seen only at the ISP
	cv := CrossValidate(events, toCampaigns(truth),
		map[time.Time]int{vtime.Month(epoch): 5},
		map[string]netaddr.Set{"Midwest": site})

	if len(cv.Months) != 2 {
		t.Fatalf("got %d months, want 2: %+v", len(cv.Months), cv.Months)
	}
	m0 := cv.Months[0]
	if m0.HoneypotEvents != 1 || m0.FabricCampaigns != 1 || m0.TelemetryNTP != 5 {
		t.Fatalf("month 0 = %+v, want 1/1/5", m0)
	}
	if cv.Months[1].HoneypotEvents != 1 || cv.Months[1].TelemetryNTP != 0 {
		t.Fatalf("month 1 = %+v, want 1 event, 0 telemetry", cv.Months[1])
	}
	if len(cv.Sites) != 1 || cv.Sites[0].SiteVictims != 2 || cv.Sites[0].Overlap != 1 {
		t.Fatalf("sites = %+v, want Midwest 2 victims / 1 overlap", cv.Sites)
	}
}

// attackCampaign keeps the test's truth table compact.
type attackCampaign struct {
	victim netaddr.Addr
	port   uint16
	start  time.Time
	dur    time.Duration
}

func toCampaigns(in []attackCampaign) []attack.Campaign {
	out := make([]attack.Campaign, len(in))
	for i, c := range in {
		out[i] = attack.Campaign{Victim: c.victim, Port: c.port, Start: c.start, Duration: c.dur}
	}
	return out
}

// TestSensorBlackoutDropsAndStaysSilent pins the blackout vantage fault:
// a fully dark fleet (fraction 1) answers nothing and feeds the detector
// nothing, while the blackout accounting conserves every arrival. A
// zero-fraction fleet is untouched.
func TestSensorBlackoutDropsAndStaysSilent(t *testing.T) {
	nw, sched := testHarness()
	fleet := NewFleet(sensorAddrs(4), 1, rng.New(7).Fork("honeypot"))
	fleet.Register(nw)
	bot := netaddr.MustParseAddr("198.51.100.50")
	victim := netaddr.MustParseAddr("203.0.113.80")
	vcol := &repCollector{}
	nw.Register(victim, vcol)
	for b := 0; b < 6; b++ {
		at := nw.Now().Add(time.Duration(b+1) * 30 * time.Second)
		sched.At(at, func(time.Time) {
			nw.SendFrom(bot, spoofedTrigger(victim, 80, fleet.Sensors[0].Addr, 100))
		})
	}
	sched.Drain()
	if fleet.QueriesSeen() != 0 || fleet.RepliesSent() != 0 || vcol.packets != 0 {
		t.Fatalf("dark fleet answered: queries=%d replies=%d victim=%d",
			fleet.QueriesSeen(), fleet.RepliesSent(), vcol.packets)
	}
	if fleet.BlackoutDropped() != 600 {
		t.Fatalf("BlackoutDropped = %d, want 600", fleet.BlackoutDropped())
	}
	fleet.Detector.Flush(nw.Now())
	if evs := fleet.Detector.Events(); len(evs) != 0 {
		t.Fatalf("dark fleet raised %d events", len(evs))
	}
}

// TestSensorBlackoutPhasesDiffer pins the per-sensor hash phase: with a
// fractional blackout, at least one instant finds some sensors dark and
// others live, so fleet coverage degrades smoothly instead of in unison.
func TestSensorBlackoutPhasesDiffer(t *testing.T) {
	fleet := NewFleet(sensorAddrs(8), 0.5, rng.New(7).Fork("honeypot"))
	mixed := false
	for step := 0; step < 24 && !mixed; step++ {
		at := vtime.Epoch.Add(time.Duration(step) * blackoutPeriod / 12)
		dark, live := 0, 0
		for i := range fleet.Sensors {
			if fleet.sensorDark(i, at) {
				dark++
			} else {
				live++
			}
		}
		if dark > 0 && live > 0 {
			mixed = true
		}
	}
	if !mixed {
		t.Fatal("blackout windows never overlapped partially across the fleet")
	}
	// Determinism: the schedule is a pure function of (index, time).
	if fleet.sensorDark(3, vtime.Epoch.Add(time.Hour)) != fleet.sensorDark(3, vtime.Epoch.Add(time.Hour)) {
		t.Fatal("sensorDark not deterministic")
	}
}

// payloadCollector keeps a copy of every payload delivered to one address.
type payloadCollector struct{ payloads [][]byte }

func (c *payloadCollector) HandlePacket(_ *netsim.Network, dg *packet.Datagram, _ time.Time) {
	c.payloads = append(c.payloads, append([]byte(nil), dg.Payload...))
}

// TestSensorBaitEncodedOncePerFlavour checks the cached bait table: each
// (implementation, request code) is encoded once, and every probe, first or
// repeated, gets exactly the bait table encoded for its flavour.
func TestSensorBaitEncodedOncePerFlavour(t *testing.T) {
	nw, sched := testHarness()
	fleet := deployFleet(t, nw, 1)
	s := fleet.Sensors[0]
	probes := []struct{ impl, reqCode uint8 }{
		{ntp.ImplXNTPD, ntp.ReqMonGetList1},
		{ntp.ImplXNTPDOld, ntp.ReqMonGetList},
		{ntp.ImplXNTPD, ntp.ReqMonGetList1},
		{ntp.ImplUniv, ntp.ReqMonGetList1},
		{ntp.ImplXNTPDOld, ntp.ReqMonGetList},
	}
	for i, p := range probes {
		// A fresh scanner per probe keeps the replies clear of the RRL budget.
		scanner := netaddr.MustParseAddr("198.51.100.9") + netaddr.Addr(i)
		col := &payloadCollector{}
		nw.Register(scanner, col)
		nw.SendUDP(scanner, 40000, s.Addr, ntp.Port, netsim.TTLLinux, ntp.NewMonlistRequest(p.impl, p.reqCode))
		sched.Drain()
		want := ntp.BuildMonlistResponse(s.mru, p.impl, p.reqCode)
		if len(col.payloads) != len(want) {
			t.Fatalf("probe %d: %d replies, want %d", i, len(col.payloads), len(want))
		}
		for j := range want {
			if string(col.payloads[j]) != string(want[j]) {
				t.Fatalf("probe %d: reply %d differs from the bait table's encoding", i, j)
			}
		}
	}
	if len(s.bait) != 3 {
		t.Fatalf("sensor cached %d bait encodings, want 3 flavours", len(s.bait))
	}
}
