package netflow

import (
	"testing"
	"testing/quick"
	"time"

	"ntpddos/internal/netaddr"
	"ntpddos/internal/netsim"
	"ntpddos/internal/ntp"
	"ntpddos/internal/ntpd"
	"ntpddos/internal/packet"
	"ntpddos/internal/vtime"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	h := Header{SysUptimeMs: 123456, UnixSecs: 1392076800, FlowSequence: 42}
	records := []Record{
		{SrcAddr: 0x0a000001, DstAddr: 0xcb007147, SrcPort: 123, DstPort: 80,
			Protocol: 17, Packets: 1000, Octets: 480000, First: 100, Last: 5000},
		{SrcAddr: 1, DstAddr: 2, SrcPort: 53, DstPort: 4444, Protocol: 17,
			Packets: 1, Octets: 64},
	}
	raw, err := Encode(h, records)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != HeaderLen+2*RecordLen {
		t.Fatalf("encoded %d bytes", len(raw))
	}
	gh, got, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if gh.Count != 2 || gh.FlowSequence != 42 || gh.UnixSecs != 1392076800 {
		t.Fatalf("header = %+v", gh)
	}
	for i := range records {
		if got[i] != records[i] {
			t.Fatalf("record %d:\n got %+v\nwant %+v", i, got[i], records[i])
		}
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	f := func(src, dst uint32, sp, dp uint16, pkts, octs uint32) bool {
		r := Record{SrcAddr: netaddr.Addr(src), DstAddr: netaddr.Addr(dst),
			SrcPort: sp, DstPort: dp, Protocol: 17, Packets: pkts, Octets: octs}
		raw, err := Encode(Header{}, []Record{r})
		if err != nil {
			return false
		}
		_, got, err := Decode(raw)
		return err == nil && len(got) == 1 && got[0] == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeRejectsOversize(t *testing.T) {
	if _, err := Encode(Header{}, make([]Record, MaxRecords+1)); err == nil {
		t.Fatal("31 records accepted")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, _, err := Decode(nil); err != ErrTruncated {
		t.Fatalf("nil: %v", err)
	}
	bad := make([]byte, HeaderLen)
	bad[1] = 9 // version 9
	if _, _, err := Decode(bad); err != ErrBadVersion {
		t.Fatalf("version: %v", err)
	}
	short, _ := Encode(Header{}, []Record{{}})
	if _, _, err := Decode(short[:HeaderLen+10]); err == nil {
		t.Fatal("truncated records accepted")
	}
}

func TestExporterAggregatesAndExpires(t *testing.T) {
	boot := vtime.Epoch
	var exports [][]byte
	e := NewExporter(boot, func(b []byte) { exports = append(exports, b) })

	mk := func(rep int64) *packet.Datagram {
		dg := packet.NewDatagram(netaddr.Addr(10), 123, netaddr.Addr(20), 80, make([]byte, 440))
		dg.Rep = rep
		return dg
	}
	now := boot.Add(time.Minute)
	observeOne(e, mk(100), now)
	observeOne(e, mk(50), now.Add(time.Second))
	if e.CacheLen() != 1 {
		t.Fatalf("cache = %d flows, want 1 (aggregated)", e.CacheLen())
	}
	// Nothing flushed yet: flow still active.
	if len(exports) != 0 {
		t.Fatal("active flow exported prematurely")
	}
	// 20 seconds of silence: inactive timeout expires it.
	e.Flush(now.Add(21 * time.Second))
	if len(exports) != 1 {
		t.Fatalf("%d exports", len(exports))
	}
	_, records, err := Decode(exports[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 {
		t.Fatalf("%d records", len(records))
	}
	r := records[0]
	if r.Packets != 150 {
		t.Fatalf("packets = %d, want 150 (Rep-weighted)", r.Packets)
	}
	if r.Octets != 150*uint32(packet.IPv4HeaderLen+packet.UDPHeaderLen+440) {
		t.Fatalf("octets = %d", r.Octets)
	}
	if r.SrcPort != 123 || r.DstPort != 80 || r.Protocol != packet.ProtocolUDP {
		t.Fatalf("record = %+v", r)
	}
}

func TestExporterSplitsOverflowingCounters(t *testing.T) {
	var exports [][]byte
	e := NewExporter(vtime.Epoch, func(b []byte) { exports = append(exports, b) })
	dg := packet.NewDatagram(1, 123, 2, 80, make([]byte, 1000))
	dg.Rep = 6_000_000_000 // ~6e12 octets: overflows uint32
	observeOne(e, dg, vtime.Epoch.Add(time.Second))
	e.Flush(vtime.Epoch.Add(time.Minute))
	var total int64
	c := NewCollector()
	for _, ex := range exports {
		if err := c.Ingest(ex); err != nil {
			t.Fatal(err)
		}
	}
	total = c.Octets
	want := int64(6_000_000_000) * int64(packet.IPv4HeaderLen+packet.UDPHeaderLen+1000)
	if total != want {
		t.Fatalf("octets across split records = %d, want %d", total, want)
	}
	if c.Flows < 2 {
		t.Fatalf("overflow produced %d records, want >= 2", c.Flows)
	}
}

func TestCollectorSequenceGapDetection(t *testing.T) {
	var exports [][]byte
	e := NewExporter(vtime.Epoch, func(b []byte) { exports = append(exports, b) })
	for i := 0; i < 100; i++ {
		dg := packet.NewDatagram(netaddr.Addr(i), 123, netaddr.Addr(1000+i), 80, make([]byte, 100))
		observeOne(e, dg, vtime.Epoch.Add(time.Duration(i)*time.Millisecond))
	}
	e.Flush(vtime.Epoch.Add(time.Hour))
	if len(exports) < 3 {
		t.Fatalf("%d exports, want several (100 flows / 30 per export)", len(exports))
	}
	c := NewCollector()
	for i, ex := range exports {
		if i == 1 {
			continue // drop one export datagram
		}
		c.Ingest(ex)
	}
	if c.SeqGaps == 0 {
		t.Fatal("dropped export not detected via flow sequence")
	}
}

// makeExports produces a train of sequence-contiguous export datagrams.
func makeExports(t *testing.T, n int) [][]byte {
	t.Helper()
	var exports [][]byte
	e := NewExporter(vtime.Epoch, func(b []byte) { exports = append(exports, b) })
	for i := 0; i < 40*n; i++ {
		dg := packet.NewDatagram(netaddr.Addr(i), 123, netaddr.Addr(100000+i), 80, make([]byte, 100))
		observeOne(e, dg, vtime.Epoch.Add(time.Duration(i)*time.Millisecond))
	}
	e.Flush(vtime.Epoch.Add(time.Hour))
	if len(exports) < n {
		t.Fatalf("%d exports, want at least %d", len(exports), n)
	}
	return exports[:n]
}

// TestCollectorReordering delivers a late export between two in-order ones:
// UDP reordering must be classified as Reordered, not as a loss, and must
// not cascade into a spurious gap on the next in-order datagram.
func TestCollectorReordering(t *testing.T) {
	exports := makeExports(t, 4)
	c := NewCollector()
	for _, i := range []int{0, 2, 1, 3} { // export 1 arrives late
		if err := c.Ingest(exports[i]); err != nil {
			t.Fatal(err)
		}
	}
	if c.SeqGaps != 1 {
		t.Fatalf("SeqGaps = %d, want 1 (the hole while export 1 was in flight)", c.SeqGaps)
	}
	if c.Reordered != 1 {
		t.Fatalf("Reordered = %d, want 1 (the late arrival)", c.Reordered)
	}
	// All four exports' records were still accumulated.
	var total int64
	for _, ex := range exports {
		_, recs, err := Decode(ex)
		if err != nil {
			t.Fatal(err)
		}
		total += int64(len(recs))
	}
	if c.Flows != total {
		t.Fatalf("Flows = %d, want %d (reordered records must still count)", c.Flows, total)
	}
}

// TestCollectorDuplication replays an export datagram (a retransmit or a
// mirrored path): the duplicate counts as Reordered, never as a gap, and
// subsequent in-order exports remain gap-free.
func TestCollectorDuplication(t *testing.T) {
	exports := makeExports(t, 3)
	c := NewCollector()
	for _, i := range []int{0, 1, 1, 2} { // export 1 delivered twice
		if err := c.Ingest(exports[i]); err != nil {
			t.Fatal(err)
		}
	}
	if c.SeqGaps != 0 {
		t.Fatalf("SeqGaps = %d, want 0 (a duplicate is not a loss)", c.SeqGaps)
	}
	if c.Reordered != 1 {
		t.Fatalf("Reordered = %d, want 1 (the duplicate)", c.Reordered)
	}
}

// TestCollectorInOrderClean is the control: a clean contiguous train
// produces neither gaps nor reorders.
func TestCollectorInOrderClean(t *testing.T) {
	exports := makeExports(t, 5)
	c := NewCollector()
	for _, ex := range exports {
		if err := c.Ingest(ex); err != nil {
			t.Fatal(err)
		}
	}
	if c.SeqGaps != 0 || c.Reordered != 0 {
		t.Fatalf("clean train: SeqGaps=%d Reordered=%d, want 0/0", c.SeqGaps, c.Reordered)
	}
}

// TestFabricToCollector wires the exporter as a fabric tap: reflected
// attack traffic must arrive at the collector with byte totals matching
// the fabric's own accounting of IP bytes.
func TestFabricToCollector(t *testing.T) {
	var clock vtime.Clock
	sched := vtime.NewScheduler(&clock)
	nw := netsim.New(sched, nil)
	c := NewCollector()
	e := NewExporter(clock.Now(), func(b []byte) { c.Ingest(b) })
	nw.AddTap(e)

	srv := ntpd.New(ntpd.Config{Addr: netaddr.MustParseAddr("10.0.0.2"),
		MonlistEnabled: true, Profile: ntpd.Profile{TTL: 64}})
	nw.Register(srv.Addr(), srv)
	scanner := netaddr.MustParseAddr("198.51.100.9")
	nw.Register(scanner, netsim.HostFunc(func(*netsim.Network, *packet.Datagram, time.Time) {}))
	for i := 0; i < 10; i++ {
		srv.Record(netaddr.Addr(0x0b000000+uint32(i)), ntp.Port, ntp.ModeClient, 4, 1, clock.Now())
	}
	nw.SendUDP(scanner, 57915, srv.Addr(), ntp.Port, netsim.TTLLinux,
		ntp.NewMonlistRequest(ntp.ImplXNTPD, ntp.ReqMonGetList1))
	sched.Drain()
	e.Flush(clock.Now().Add(time.Hour))

	if c.Flows < 2 { // probe flow + response flow
		t.Fatalf("collector saw %d flows", c.Flows)
	}
	if c.ByDstPort[ntp.Port] == 0 {
		t.Fatal("no bytes toward port 123 in the flow data")
	}
	if c.ByDstPort[57915] == 0 {
		t.Fatal("no response bytes back to the scanner in the flow data")
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
