package detect

import (
	"reflect"
	"testing"
	"time"

	"ntpddos/internal/netaddr"
	"ntpddos/internal/ntp"
	"ntpddos/internal/packet"
	"ntpddos/internal/vtime"
)

var (
	amp     = netaddr.MustParseAddr("10.1.1.1")
	victim  = netaddr.MustParseAddr("93.184.216.34")
	scanner = netaddr.MustParseAddr("198.108.60.10")
)

// monlistResponse builds a mode 7 monlist response fragment as it would
// arrive at the victim (amplifier source port 123).
func monlistResponse(from, to netaddr.Addr, toPort uint16, rep int64) *packet.Datagram {
	entries := make([]ntp.MonEntry, 6)
	for i := range entries {
		entries[i] = ntp.MonEntry{Addr: netaddr.Addr(0x0a000001 + i), Mode: ntp.ModeClient, Count: 5}
	}
	payload := ntp.BuildMonlistResponse(entries, ntp.ImplXNTPD, ntp.ReqMonGetList1)[0]
	dg := packet.NewDatagram(from, ntp.Port, to, toPort, payload)
	dg.IP.TTL = 50 // amplifier is a Linux box some hops away
	dg.Rep = rep
	return dg
}

// monlistRequest builds a mode 7 request with the given arrived TTL.
func monlistRequest(from, to netaddr.Addr, arrivedTTL uint8, rep int64) *packet.Datagram {
	dg := packet.NewDatagram(from, 47001, to, ntp.Port, ntp.NewMonlistRequest(ntp.ImplXNTPD, ntp.ReqMonGetList1))
	dg.IP.TTL = arrivedTTL
	dg.Rep = rep
	return dg
}

func TestOnsetAndOffsetAlarms(t *testing.T) {
	d := New(DefaultConfig())
	t0 := vtime.Epoch
	for i := 0; i < 5; i++ {
		observeOne(d, monlistResponse(amp, victim, 80, 100), t0.Add(time.Duration(i)*30*time.Second))
	}
	sum := d.Summarize(t0.Add(4 * time.Hour))
	if len(sum.Victims) != 1 || sum.Victims[0] != victim {
		t.Fatalf("victims = %v, want [%v]", sum.Victims, victim)
	}
	if len(sum.Alarms) != 2 {
		t.Fatalf("alarms = %+v, want onset+offset", sum.Alarms)
	}
	onset, offset := sum.Alarms[0], sum.Alarms[1]
	if !onset.Onset || !onset.At.Equal(t0) || onset.Victim != victim || onset.Port != 80 {
		t.Fatalf("bad onset %+v", onset)
	}
	// The last packet lands at t0+120s; the offset fires offsetGap later.
	wantOff := t0.Add(120 * time.Second).Add(offsetGap)
	if offset.Onset || !offset.At.Equal(wantOff) {
		t.Fatalf("offset at %v, want %v (%+v)", offset.At, wantOff, offset)
	}
	if offset.Count != 500 {
		t.Fatalf("offset count %d, want 500 rep-weighted packets", offset.Count)
	}
	if sum.ReflectedBytes == 0 || len(sum.TopVictims) == 0 || sum.TopVictims[0].Addr != victim {
		t.Fatalf("byte accounting missing: %+v", sum.TopVictims)
	}
	if len(sum.TopAmplifiers) == 0 || sum.TopAmplifiers[0].Addr != amp {
		t.Fatalf("amplifier ranking missing: %+v", sum.TopAmplifiers)
	}
}

// TestBelowThresholdNoAlarm: two packets an hour apart stay under the §4.2
// count threshold; three packets spread over days stay under the rate.
func TestBelowThresholdNoAlarm(t *testing.T) {
	d := New(DefaultConfig())
	t0 := vtime.Epoch
	observeOne(d, monlistResponse(amp, victim, 80, 1), t0)
	observeOne(d, monlistResponse(amp, victim, 80, 1), t0.Add(time.Hour))
	slow := netaddr.MustParseAddr("4.4.4.4")
	for i := 0; i < 5; i++ {
		observeOne(d, monlistResponse(amp, slow, 80, 1), t0.Add(time.Duration(i)*48*time.Hour))
	}
	if got := d.Summarize(t0.Add(300 * time.Hour)); len(got.Victims) != 0 {
		t.Fatalf("victims = %v, want none", got.Victims)
	}
}

func TestScannerSuppression(t *testing.T) {
	d := New(DefaultConfig())
	t0 := vtime.Epoch
	// The prober reveals itself: Linux-band request into the fabric.
	observeOne(d, monlistRequest(scanner, amp, 50, 1), t0)
	// Millions of harvested table fragments flow back to it.
	for i := 0; i < 10; i++ {
		observeOne(d, monlistResponse(amp, scanner, 47001, 10000), t0.Add(time.Duration(i)*time.Second))
	}
	// Meanwhile spoofed triggers (Windows band, claimed source = victim)
	// draw real reflections onto the victim.
	observeOne(d, monlistRequest(victim, amp, 110, 50), t0)
	observeOne(d, monlistResponse(amp, victim, 80, 300), t0.Add(time.Second))
	sum := d.Summarize(t0.Add(6 * time.Hour))
	if len(sum.Victims) != 1 || sum.Victims[0] != victim {
		t.Fatalf("victims = %v, want only %v (scanner suppressed)", sum.Victims, victim)
	}
	if sum.ScannersMarked != 1 {
		t.Fatalf("scanners marked = %d, want 1", sum.ScannersMarked)
	}
	if sum.Suppressed == 0 {
		t.Fatal("no backscatter was suppressed")
	}
	if sum.ScannerEstimate < 0.5 || sum.ScannerEstimate > 2 {
		t.Fatalf("scanner HLL estimate %.2f for cardinality 1", sum.ScannerEstimate)
	}
}

func TestIngestMonEntry(t *testing.T) {
	d := New(DefaultConfig())
	now := vtime.Epoch.Add(24 * time.Hour)
	d.IngestMonEntry(amp, ntp.MonEntry{
		Addr: victim, Port: 80, Mode: ntp.ModePrivate, Count: 5000, AvgInterval: 1, LastSeen: 60,
	}, now)
	d.IngestMonEntry(amp, ntp.MonEntry{
		Addr: netaddr.MustParseAddr("5.5.5.5"), Port: 123, Mode: ntp.ModeClient, Count: 100, AvgInterval: 64,
	}, now)
	sum := d.Summarize(now.Add(6 * time.Hour))
	if len(sum.Victims) != 1 || sum.Victims[0] != victim {
		t.Fatalf("victims = %v, want [%v]", sum.Victims, victim)
	}
	if a := sum.Alarms[0]; !a.Onset || !a.At.Equal(now.Add(-60*time.Second)) {
		t.Fatalf("onset %+v, want backdated to last-seen", a)
	}
}

// TestIngestMonEntrySpanSaturates: a polled entry whose count × avgint
// passes what int64 nanoseconds hold is backdated to a first-seen before
// now, not wrapped past it; an ordinary entry keeps its exact first-seen.
func TestIngestMonEntrySpanSaturates(t *testing.T) {
	d := New(DefaultConfig())
	now := vtime.Epoch.Add(24 * time.Hour)
	huge, exact := netaddr.MustParseAddr("203.0.113.1"), netaddr.MustParseAddr("203.0.113.2")
	d.IngestMonEntry(amp, ntp.MonEntry{Addr: huge, Port: 80, Mode: ntp.ModePrivate, Count: 2_600_000, AvgInterval: 3600}, now)
	d.IngestMonEntry(amp, ntp.MonEntry{Addr: exact, Port: 80, Mode: ntp.ModePrivate, Count: 1000, AvgInterval: 3600}, now)
	if first := d.victims[huge].first; !first.Before(now) {
		t.Fatalf("2,600,000 × 3600 s entry first seen at %v, after now %v", first, now)
	}
	if first, want := d.victims[exact].first, now.Add(-1000*time.Hour); !first.Equal(want) {
		t.Fatalf("1000 × 3600 s entry first seen at %v, want %v", first, want)
	}
}

func TestSensorAndDarknetIngest(t *testing.T) {
	d := New(DefaultConfig())
	now := vtime.Epoch.Add(24 * time.Hour)
	d.IngestScannerSighting(scanner)
	// Both polled table entries read as victims; the sighted scanner's is
	// suppressed, as cmd/ntpwatch's live mode relies on.
	for _, a := range []netaddr.Addr{victim, scanner} {
		d.IngestMonEntry(amp, ntp.MonEntry{
			Addr: a, Port: 80, Mode: ntp.ModePrivate, Count: 5000, AvgInterval: 1, LastSeen: 60,
		}, now)
	}
	sum := d.Summarize(now.Add(6 * time.Hour))
	if len(sum.Victims) != 1 || sum.Victims[0] != victim {
		t.Fatalf("victims = %v, want [%v]", sum.Victims, victim)
	}
	for _, a := range sum.Alarms {
		if a.Victim == scanner {
			t.Fatalf("sighted scanner raised an alarm: %+v", a)
		}
	}
	if sum.ScannersMarked != 1 {
		t.Fatalf("scanners marked = %d, want 1", sum.ScannersMarked)
	}
}

// TestDetectorDeterminism runs an interleaved multi-victim stream twice and
// requires identical summaries — the property the scenario digest test
// depends on.
func TestDetectorDeterminism(t *testing.T) {
	run := func() *Summary {
		d := New(DefaultConfig())
		t0 := vtime.Epoch
		for i := 0; i < 2000; i++ {
			v := netaddr.Addr(0x50000000 + uint32(i%37))
			a := netaddr.Addr(0x0a000000 + uint32(i%11))
			now := t0.Add(time.Duration(i) * 7 * time.Second)
			observeOne(d, monlistResponse(a, v, uint16(80+i%3), int64(1+i%50)), now)
			if i%13 == 0 {
				observeOne(d, monlistRequest(netaddr.Addr(0x60000000+uint32(i%5)), a, 52, 1), now)
			}
		}
		return d.Summarize(t0.Add(30 * time.Hour))
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("summaries differ:\n%+v\n%+v", a, b)
	}
	if len(a.Victims) == 0 || len(a.Alarms) == 0 {
		t.Fatal("determinism stream produced no detections")
	}
}

// TestPruneBoundsMemory drives many one-shot below-threshold victims
// through and checks the sweep drops their state.
func TestPruneBoundsMemory(t *testing.T) {
	d := New(DefaultConfig())
	t0 := vtime.Epoch
	for i := 0; i < 100_000; i++ {
		v := netaddr.Addr(0x20000000 + uint32(i))
		observeOne(d, monlistResponse(amp, v, 80, 1), t0.Add(time.Duration(i)*time.Second))
	}
	if n := len(d.victims); n > 50_000 {
		t.Fatalf("%d victim states retained; prune is not bounding memory", n)
	}
}

func TestEvaluate(t *testing.T) {
	truth := netaddr.NewSet(0)
	det := netaddr.NewSet(0)
	for i := 0; i < 10; i++ {
		truth.Add(netaddr.Addr(100 + i))
	}
	for i := 0; i < 9; i++ {
		det.Add(netaddr.Addr(100 + i))
	}
	det.Add(netaddr.Addr(999))
	e := Evaluate(det, truth)
	if e.TruePositives != 9 || e.Precision != 0.9 || e.Recall != 0.9 {
		t.Fatalf("eval = %+v", e)
	}
	empty := Evaluate(netaddr.NewSet(0), netaddr.NewSet(0))
	if empty.Precision != 1 || empty.Recall != 1 {
		t.Fatalf("empty eval = %+v", empty)
	}
}

// observeOne shows tap one datagram the way the fabric does: as a
// one-payload train under a header that carries no payload and no Rep, with
// the datagram's Rep (at least 1) in reps.
func observeOne(tap interface {
	ObserveTrain(hdr *packet.Datagram, payloads [][]byte, reps []int64, now time.Time)
}, dg *packet.Datagram, now time.Time) {
	hdr := *dg
	hdr.Payload, hdr.Rep = nil, 0
	tap.ObserveTrain(&hdr, [][]byte{dg.Payload}, []int64{max(dg.Rep, 1)}, now)
}
