package ispview

import (
	"testing"
	"time"

	"ntpddos/internal/asdb"
	"ntpddos/internal/attack"
	"ntpddos/internal/netaddr"
	"ntpddos/internal/netsim"
	"ntpddos/internal/ntp"
	"ntpddos/internal/ntpd"
	"ntpddos/internal/rng"
	"ntpddos/internal/vtime"
)

// fixture builds a world where Merit hosts one vulnerable amplifier and an
// external booter attacks an external victim through it.
type fixture struct {
	nw     *netsim.Network
	sched  *vtime.Scheduler
	db     *asdb.DB
	view   *View
	amp    *ntpd.Server
	victim netaddr.Addr
	engine *attack.Engine
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	sched := vtime.NewScheduler()
	nw := netsim.New(sched, nil)
	db := asdb.Build(rng.New(11), asdb.Config{NumASes: 50, SpooferFraction: 1})
	merit := db.ByName(asdb.NameMerit)
	view := New("Merit", db, merit)
	nw.AddTap(view)

	ampAddr := merit.Prefixes[0].Nth(100)
	amp := ntpd.New(ntpd.Config{Addr: ampAddr, MonlistEnabled: true,
		Profile: ntpd.Profile{TTL: 64, SystemString: "linux"}})
	nw.Register(ampAddr, amp)

	victim := db.ByName("OCN-JP").Prefixes[0].Nth(500)
	engine := attack.NewEngine(nw, rng.New(12), []netaddr.Addr{netaddr.MustParseAddr("192.0.2.1")})
	return &fixture{nw: nw, sched: sched, db: db, view: view, amp: amp,
		victim: victim, engine: engine}
}

func (f *fixture) runAttack(rate float64, dur time.Duration, prime int) {
	f.engine.Launch(attack.Campaign{
		Victim: f.victim, Port: 80,
		Start: f.nw.Now().Add(time.Hour), Duration: dur,
		TriggerRate: rate, Amplifiers: []netaddr.Addr{f.amp.Addr()},
		PrimeSources: prime,
	})
	f.sched.Drain()
}

func TestViewContains(t *testing.T) {
	f := newFixture(t)
	if !f.view.Contains(f.amp.Addr()) {
		t.Fatal("view must contain its own amplifier")
	}
	if f.view.Contains(f.victim) {
		t.Fatal("view must not contain the external victim")
	}
}

func TestAttackProducesVictimAndAmplifier(t *testing.T) {
	f := newFixture(t)
	f.runAttack(2000, 2*time.Hour, 300)

	amps := f.view.Amplifiers()
	if len(amps) != 1 {
		t.Fatalf("view found %d amplifiers, want 1", len(amps))
	}
	a := amps[0]
	if a.Addr != f.amp.Addr() {
		t.Fatalf("amplifier = %v", a.Addr)
	}
	if a.BAF() <= AmplifierMinRatio {
		t.Fatalf("amplifier BAF = %.1f", a.BAF())
	}
	if !a.Victims.Has(f.victim) {
		t.Fatal("amplifier victim set missing the victim")
	}

	vics := f.view.Victims()
	if len(vics) != 1 || vics[0].Addr != f.victim {
		t.Fatalf("victims = %+v", vics)
	}
	v := vics[0]
	if v.PayloadIn < VictimMinBytes {
		t.Fatalf("victim payload = %d", v.PayloadIn)
	}
	if v.BAF() < VictimMinRatio {
		t.Fatalf("victim BAF = %.1f", v.BAF())
	}
	if top := v.Ports.TopK(1); len(top) == 0 || top[0].Value != 80 {
		t.Fatalf("victim ports = %+v", top)
	}
	if v.DurationHours() < 1 {
		t.Fatalf("attack duration = %.2f h", v.DurationHours())
	}
	if v.Hourly.Len() < 2 {
		t.Fatal("victim hourly series too short")
	}
}

func TestVictimASNLookup(t *testing.T) {
	f := newFixture(t)
	asn, country := f.view.OwnerASN(f.victim)
	if asn != 4713 || country != "JP" {
		t.Fatalf("victim attribution = AS%d %s, want AS4713 JP", asn, country)
	}
}

func TestEgressIngressSeries(t *testing.T) {
	f := newFixture(t)
	f.runAttack(1000, time.Hour, 100)
	if _, ok := f.view.EgressNTP.Max(); !ok {
		t.Fatal("no egress NTP recorded")
	}
	if _, ok := f.view.IngressNTP.Max(); !ok {
		t.Fatal("no ingress NTP recorded")
	}
	eg, _ := f.view.EgressNTP.Max()
	ing, _ := f.view.IngressNTP.Max()
	if eg.Value <= ing.Value {
		t.Fatalf("egress (%v) must dwarf ingress (%v) during reflection", eg.Value, ing.Value)
	}
}

func TestTriggerTTLFingerprint(t *testing.T) {
	f := newFixture(t)
	f.runAttack(1000, time.Hour, 0)
	mode, _, ok := f.view.TriggerTTL.Mode()
	if !ok {
		t.Fatal("no trigger TTLs observed")
	}
	if mode < 105 || mode > 120 {
		t.Fatalf("trigger TTL mode = %d, want Windows band (105-120)", mode)
	}
}

func TestScannerClassification(t *testing.T) {
	f := newFixture(t)
	// A research scanner (Linux TTL, single probes) sweeps the amplifier.
	scanner := netaddr.MustParseAddr("141.212.1.1")
	probe := ntp.NewMonlistRequest(ntp.ImplXNTPD, ntp.ReqMonGetList1)
	f.nw.SendUDP(scanner, 40000, f.amp.Addr(), ntp.Port, netsim.TTLLinux, probe)
	f.sched.Drain()
	scanners := f.view.Scanners()
	if len(scanners) != 1 || scanners[0].Addr != scanner {
		t.Fatalf("scanners = %+v", scanners)
	}
	mode, _, _ := f.view.ScanTTL.Mode()
	if mode < 41 || mode > 56 {
		t.Fatalf("scan TTL mode = %d, want Linux band (41-56)", mode)
	}
	if f.view.ScannerSet().Len() != 1 {
		t.Fatal("ScannerSet mismatch")
	}
}

func TestVictimThresholdFiltersLowVolume(t *testing.T) {
	f := newFixture(t)
	// A tiny attack: 1 pps for 1 minute through an unprimed (single-entry)
	// table produces well under 100 KB toward the victim.
	f.runAttack(1, time.Minute, 0)
	if len(f.view.Victims()) != 0 {
		t.Fatalf("sub-threshold victim reported: %+v", f.view.Victims()[0])
	}
	if len(f.view.Amplifiers()) != 0 {
		t.Fatal("sub-threshold amplifier reported")
	}
}

func TestBilling95RisesDuringAttack(t *testing.T) {
	f := newFixture(t)
	quietFrom := f.nw.Now()
	f.sched.RunUntil(f.nw.Now().Add(24 * time.Hour))
	quietTo := f.nw.Now()
	before := f.view.Billed95(quietFrom, quietTo)

	attackFrom := f.nw.Now()
	f.runAttack(5000, 20*time.Hour, 300)
	after := f.view.Billed95(attackFrom, f.nw.Now())
	if after <= before {
		t.Fatalf("95th-pct billing did not rise: before=%v after=%v", before, after)
	}
}

func TestAddBaselineAndProtoMix(t *testing.T) {
	f := newFixture(t)
	from := f.nw.Now()
	f.view.AddBaseline("http", from, from.Add(10*time.Hour), 1e9)
	ts := f.view.ProtoBytes["http"]
	if ts == nil || ts.Len() != 10 {
		t.Fatalf("http baseline buckets = %v", ts)
	}
	f.runAttack(1000, time.Hour, 100)
	if f.view.ProtoBytes["ntp"] == nil {
		t.Fatal("no ntp protocol bytes recorded")
	}
}
