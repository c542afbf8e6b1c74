package ntpd

import (
	"testing"
	"time"

	"ntpddos/internal/netaddr"
	"ntpddos/internal/netsim"
	"ntpddos/internal/ntp"
	"ntpddos/internal/packet"
	"ntpddos/internal/vtime"
)

func testHarness() (*netsim.Network, *vtime.Scheduler) {
	sched := vtime.NewScheduler()
	return netsim.New(sched, nil), sched
}

func vulnerableServer(addr string) *Server {
	return New(Config{
		Addr:           netaddr.MustParseAddr(addr),
		Stratum:        2,
		Profile:        Profile{SystemString: "linux", VersionString: "ntpd 4.2.4p8 2009", TTL: 64},
		MonlistEnabled: true,
		Mode6Enabled:   true,
	})
}

// collector gathers packets delivered to one address. It deep-copies each
// datagram because the fabric recycles the delivered struct (and its payload
// buffer) as soon as HandlePacket returns.
type collector struct {
	packets []*packet.Datagram
}

func (c *collector) HandlePacket(_ *netsim.Network, dg *packet.Datagram, _ time.Time) {
	cp := *dg
	cp.Payload = append([]byte(nil), dg.Payload...)
	c.packets = append(c.packets, &cp)
}

// decodeTable reassembles a monlist response into its entries, checking
// that the fragments decode and that only the last clears the More flag.
func decodeTable(t *testing.T, frags [][]byte) []ntp.MonEntry {
	t.Helper()
	var all []ntp.MonEntry
	for i, f := range frags {
		m, es, err := ntp.ParseMonlistResponse(f)
		if err != nil {
			t.Fatalf("fragment %d: %v", i, err)
		}
		if m.More != (i < len(frags)-1) {
			t.Fatalf("fragment %d of %d: More = %v", i, len(frags), m.More)
		}
		all = append(all, es...)
	}
	return all
}

func TestClientGetsServerReply(t *testing.T) {
	nw, sched := testHarness()
	srv := vulnerableServer("10.0.0.2")
	nw.Register(srv.Addr(), srv)
	client := netaddr.MustParseAddr("10.0.0.1")
	col := &collector{}
	nw.Register(client, col)

	req := ntp.NewClientRequest(nw.Now()).AppendTo(nil)
	nw.SendUDP(client, 33000, srv.Addr(), ntp.Port, netsim.TTLLinux, req)
	sched.Drain()

	if len(col.packets) != 1 {
		t.Fatalf("client got %d packets", len(col.packets))
	}
	var h ntp.Header
	if err := h.DecodeFromBytes(col.packets[0].Payload); err != nil {
		t.Fatal(err)
	}
	if h.Mode != ntp.ModeServer || h.Stratum != 2 {
		t.Fatalf("reply header %+v", h)
	}
}

func TestMonlistReflectionToSpoofedVictim(t *testing.T) {
	nw, sched := testHarness()
	srv := vulnerableServer("10.0.0.2")
	nw.Register(srv.Addr(), srv)

	victim := netaddr.MustParseAddr("203.0.113.7")
	vcol := &collector{}
	nw.Register(victim, vcol)

	// Prime the MRU with some history so the response is multi-entry.
	base := nw.Now()
	for i := 0; i < 10; i++ {
		srv.Record(netaddr.Addr(0x0a000100+uint32(i)), 123, ntp.ModeClient, 4, 1, base)
	}

	bot := netaddr.MustParseAddr("192.0.2.50")
	probe := ntp.NewMonlistRequest(ntp.ImplXNTPD, ntp.ReqMonGetList1)
	nw.SendSpoofed(bot, victim, 80, srv.Addr(), ntp.Port, netsim.TTLWindows, probe)
	sched.Drain()

	if len(vcol.packets) == 0 {
		t.Fatal("victim received nothing — reflection failed")
	}
	var entries []ntp.MonEntry
	for _, p := range vcol.packets {
		if p.IP.Src != srv.Addr() || p.UDP.DstPort != 80 {
			t.Fatalf("victim packet from %v to port %d", p.IP.Src, p.UDP.DstPort)
		}
		_, es, err := ntp.ParseMonlistResponse(p.Payload)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, es...)
	}
	// The spoofed victim itself must now be in the table, recorded with the
	// attacked port and mode 7 — exactly how the paper identifies victims.
	found := false
	for _, e := range entries {
		if e.Addr == victim {
			found = true
			if e.Port != 80 || e.Mode != ntp.ModePrivate {
				t.Fatalf("victim entry %+v", e)
			}
		}
	}
	if !found {
		t.Fatal("victim not recorded in monlist table")
	}
}

func TestVictimEntryIsFirst(t *testing.T) {
	// The probe source should appear topmost (most recent) in the table.
	nw, sched := testHarness()
	srv := vulnerableServer("10.0.0.2")
	nw.Register(srv.Addr(), srv)
	for i := 0; i < 5; i++ {
		srv.Record(netaddr.Addr(100+uint32(i)), 123, ntp.ModeClient, 4, 1, nw.Now())
	}
	scanner := netaddr.MustParseAddr("198.51.100.9")
	col := &collector{}
	nw.Register(scanner, col)
	nw.SendUDP(scanner, 57915, srv.Addr(), ntp.Port, netsim.TTLLinux,
		ntp.NewMonlistRequest(ntp.ImplXNTPD, ntp.ReqMonGetList1))
	sched.Drain()
	if len(col.packets) == 0 {
		t.Fatal("no response")
	}
	_, entries, err := ntp.ParseMonlistResponse(col.packets[0].Payload)
	if err != nil {
		t.Fatal(err)
	}
	if entries[0].Addr != scanner {
		t.Fatalf("topmost entry is %v, want the scanner", entries[0].Addr)
	}
	if entries[0].LastSeen != 0 {
		t.Fatalf("scanner LastSeen = %d, want 0", entries[0].LastSeen)
	}
}

func TestPatchedServerSilent(t *testing.T) {
	nw, sched := testHarness()
	srv := vulnerableServer("10.0.0.2")
	srv.Patch()
	nw.Register(srv.Addr(), srv)
	scanner := netaddr.MustParseAddr("198.51.100.9")
	col := &collector{}
	nw.Register(scanner, col)
	nw.SendUDP(scanner, 57915, srv.Addr(), ntp.Port, netsim.TTLLinux,
		ntp.NewMonlistRequest(ntp.ImplXNTPD, ntp.ReqMonGetList1))
	sched.Drain()
	if len(col.packets) != 0 {
		t.Fatalf("patched server replied with %d packets", len(col.packets))
	}
	if srv.IsAmplifier() {
		t.Fatal("patched server still reports amplifier")
	}
}

func TestImplementationMismatchIgnored(t *testing.T) {
	// A daemon accepting only XNTPD_OLD must ignore an XNTPD probe — the
	// §3.1 under-counting mechanism.
	nw, sched := testHarness()
	srv := New(Config{
		Addr: netaddr.MustParseAddr("10.0.0.2"), MonlistEnabled: true,
		Implementation: ntp.ImplXNTPDOld, Profile: Profile{TTL: 64},
	})
	nw.Register(srv.Addr(), srv)
	scanner := netaddr.MustParseAddr("198.51.100.9")
	col := &collector{}
	nw.Register(scanner, col)
	nw.SendUDP(scanner, 1, srv.Addr(), ntp.Port, netsim.TTLLinux,
		ntp.NewMonlistRequest(ntp.ImplXNTPD, ntp.ReqMonGetList1))
	sched.Drain()
	if len(col.packets) != 0 {
		t.Fatal("mismatched implementation answered")
	}
	// The universal implementation value is accepted by everyone.
	nw.SendUDP(scanner, 1, srv.Addr(), ntp.Port, netsim.TTLLinux,
		ntp.NewMonlistRequest(ntp.ImplUniv, ntp.ReqMonGetList1))
	sched.Drain()
	if len(col.packets) == 0 {
		t.Fatal("universal implementation ignored")
	}
}

func TestMRUCapAt600(t *testing.T) {
	srv := vulnerableServer("10.0.0.2")
	now := vtime.Epoch
	for i := 0; i < 1000; i++ {
		srv.Record(netaddr.Addr(uint32(i)), 123, ntp.ModeClient, 4, 1, now)
	}
	if srv.MRULen() != ntp.MaxMonlistEntries {
		t.Fatalf("MRU length %d, want %d", srv.MRULen(), ntp.MaxMonlistEntries)
	}
	// The oldest 400 must have been evicted.
	entries := decodeTable(t, srv.monlistFragments(ntp.ReqMonGetList1, now))
	if len(entries) != ntp.MaxMonlistEntries {
		t.Fatalf("monlist carries %d entries, want %d", len(entries), ntp.MaxMonlistEntries)
	}
	for _, e := range entries {
		if uint32(e.Addr) < 400 {
			t.Fatalf("evicted entry %v still present", e.Addr)
		}
	}
}

func TestRecordAggregatesByAddr(t *testing.T) {
	srv := vulnerableServer("10.0.0.2")
	a := netaddr.MustParseAddr("10.5.5.5")
	t0 := vtime.Epoch
	srv.Record(a, 100, ntp.ModeClient, 4, 1, t0)
	srv.Record(a, 200, ntp.ModePrivate, 2, 9, t0.Add(90*time.Second))
	if srv.MRULen() != 1 {
		t.Fatalf("MRU length %d, want 1", srv.MRULen())
	}
	e := decodeTable(t, srv.monlistFragments(ntp.ReqMonGetList1, t0.Add(100*time.Second)))[0]
	if e.Count != 10 {
		t.Fatalf("count = %d, want 10", e.Count)
	}
	if e.Port != 200 || e.Mode != ntp.ModePrivate {
		t.Fatalf("latest port/mode not kept: %+v", e)
	}
	if e.LastSeen != 10 {
		t.Fatalf("LastSeen = %d, want 10", e.LastSeen)
	}
	if e.AvgInterval != 10 { // 90 seconds / (10-1) packets
		t.Fatalf("AvgInterval = %d, want 10", e.AvgInterval)
	}
}

func TestMode6VersionResponse(t *testing.T) {
	nw, sched := testHarness()
	srv := New(Config{
		Addr: netaddr.MustParseAddr("10.0.0.2"), Stratum: 16, Mode6Enabled: true,
		Profile: Profile{SystemString: "cisco", VersionString: "ntpd IOS 12.4(3) compiled Jan 7 2008", TTL: 255},
	})
	nw.Register(srv.Addr(), srv)
	scanner := netaddr.MustParseAddr("198.51.100.9")
	col := &collector{}
	nw.Register(scanner, col)
	nw.SendUDP(scanner, 5000, srv.Addr(), ntp.Port, netsim.TTLLinux, ntp.NewReadVarRequest(3))
	sched.Drain()
	if len(col.packets) == 0 {
		t.Fatal("no version response")
	}
	var frags []*ntp.Mode6
	for _, p := range col.packets {
		m, err := ntp.DecodeMode6(p.Payload)
		if err != nil {
			t.Fatal(err)
		}
		frags = append(frags, m)
	}
	text, err := ntp.ReassembleMode6(frags)
	if err != nil {
		t.Fatal(err)
	}
	v := ntp.ParseSystemVariables(text)
	if v.System != "cisco" || v.Stratum != 16 || v.RefID != "INIT" {
		t.Fatalf("variables = %+v", v)
	}
}

func TestMode6DisabledSilent(t *testing.T) {
	nw, sched := testHarness()
	srv := New(Config{Addr: netaddr.MustParseAddr("10.0.0.2"), Mode6Enabled: false, Profile: Profile{TTL: 64}})
	nw.Register(srv.Addr(), srv)
	scanner := netaddr.MustParseAddr("198.51.100.9")
	col := &collector{}
	nw.Register(scanner, col)
	nw.SendUDP(scanner, 5000, srv.Addr(), ntp.Port, netsim.TTLLinux, ntp.NewReadVarRequest(3))
	sched.Drain()
	if len(col.packets) != 0 {
		t.Fatal("disabled mode 6 answered")
	}
}

func TestMegaAmpReplays(t *testing.T) {
	nw, sched := testHarness()
	srv := New(Config{
		Addr:           netaddr.MustParseAddr("10.0.0.2"),
		MonlistEnabled: true,
		MegaAmp:        true,
		MegaRepeats:    1000,
		MegaEvents:     10,
		MegaInterval:   time.Second,
		Profile:        Profile{SystemString: "junos", TTL: 64},
	})
	nw.Register(srv.Addr(), srv)
	scanner := netaddr.MustParseAddr("198.51.100.9")
	col := &collector{}
	nw.Register(scanner, col)
	nw.SendUDP(scanner, 5000, srv.Addr(), ntp.Port, netsim.TTLLinux,
		ntp.NewMonlistRequest(ntp.ImplXNTPD, ntp.ReqMonGetList1))
	sched.Drain()

	var total int64
	for _, p := range col.packets {
		total += p.Rep
	}
	// One real probe → 1 direct response + 1000 replayed responses
	// (Rep-weighted). Each response here is a single fragment (tiny table).
	if total < 1000 {
		t.Fatalf("mega amp delivered %d response packets, want >= 1000", total)
	}
	// The replays must have inflated the scanner's count in the table. The
	// storm's own sends reused the table cached at the probe, so ask for it
	// past the ten-minute cache window to see the counts as they stand.
	entries := decodeTable(t, srv.monlistFragments(ntp.ReqMonGetList1, nw.Now().Add(11*time.Minute)))
	var scannerCount uint32
	for _, e := range entries {
		if e.Addr == scanner {
			scannerCount = e.Count
		}
	}
	if scannerCount < 1000 {
		t.Fatalf("scanner count = %d, want >= 1000 (replay re-counting)", scannerCount)
	}
}

func TestMegaAmpReplayCooldown(t *testing.T) {
	nw, sched := testHarness()
	srv := New(Config{
		Addr: netaddr.MustParseAddr("10.0.0.2"), MonlistEnabled: true,
		MegaAmp: true, MegaRepeats: 100, MegaEvents: 5, MegaInterval: time.Second,
		Profile: Profile{TTL: 64},
	})
	nw.Register(srv.Addr(), srv)
	scanner := netaddr.MustParseAddr("198.51.100.9")
	col := &collector{}
	nw.Register(scanner, col)
	probe := ntp.NewMonlistRequest(ntp.ImplXNTPD, ntp.ReqMonGetList1)

	// Two probes inside one replay window: the storm fires once.
	nw.SendUDP(scanner, 1, srv.Addr(), ntp.Port, netsim.TTLLinux, probe)
	sched.RunUntil(nw.Now().Add(2 * time.Second)) // mid-storm
	nw.SendUDP(scanner, 1, srv.Addr(), ntp.Port, netsim.TTLLinux, probe)
	sched.Drain()
	var total int64
	for _, p := range col.packets {
		total += p.Rep
	}
	if total > 110 { // 100 replays + 2 direct responses, with slack
		t.Fatalf("mid-storm probe restarted the replay: %d packets", total)
	}

	// A probe after the storm (e.g. next week's scan) re-triggers it.
	col.packets = nil
	sched.RunUntil(nw.Now().Add(time.Hour))
	nw.SendUDP(scanner, 1, srv.Addr(), ntp.Port, netsim.TTLLinux, probe)
	sched.Drain()
	total = 0
	for _, p := range col.packets {
		total += p.Rep
	}
	if total < 100 {
		t.Fatalf("later probe did not re-trigger the storm: %d packets", total)
	}
}

func TestNonNTPPortIgnored(t *testing.T) {
	nw, sched := testHarness()
	srv := vulnerableServer("10.0.0.2")
	nw.Register(srv.Addr(), srv)
	scanner := netaddr.MustParseAddr("198.51.100.9")
	col := &collector{}
	nw.Register(scanner, col)
	nw.SendUDP(scanner, 1, srv.Addr(), 124, netsim.TTLLinux,
		ntp.NewMonlistRequest(ntp.ImplXNTPD, ntp.ReqMonGetList1))
	sched.Drain()
	if len(col.packets) != 0 || srv.QueriesSeen != 0 {
		t.Fatal("packet to wrong port processed")
	}
}

func TestFullTableResponseVolume(t *testing.T) {
	// A primed 600-entry table must return 100 fragments whose aggregate
	// on-wire size gives the famous monlist BAF of several hundred.
	nw, sched := testHarness()
	srv := vulnerableServer("10.0.0.2")
	nw.Register(srv.Addr(), srv)
	for i := 0; i < 600; i++ {
		srv.Record(netaddr.Addr(0x0b000000+uint32(i)), 123, ntp.ModeClient, 4, 1, nw.Now())
	}
	scanner := netaddr.MustParseAddr("198.51.100.9")
	col := &collector{}
	nw.Register(scanner, col)
	nw.SendUDP(scanner, 1, srv.Addr(), ntp.Port, netsim.TTLLinux,
		ntp.NewMonlistRequest(ntp.ImplXNTPD, ntp.ReqMonGetList1))
	sched.Drain()
	if len(col.packets) != 100 {
		t.Fatalf("full table -> %d packets, want 100", len(col.packets))
	}
	var bytes int64
	for _, p := range col.packets {
		bytes += int64(p.OnWire())
	}
	baf := float64(bytes) / 84.0
	if baf < 400 || baf > 800 {
		t.Fatalf("primed-table BAF = %.0f, want several hundred", baf)
	}
}

// TestRespondMatchesHandlePacket pins the two transport paths together: for
// every query type, the payloads Respond returns must be exactly what the
// fabric path delivers.
func TestRespondMatchesHandlePacket(t *testing.T) {
	build := func() *Server {
		srv := New(Config{
			Addr: netaddr.MustParseAddr("10.0.0.2"), Stratum: 3,
			MonlistEnabled: true, Mode6Enabled: true, ExtraVarBytes: 100,
			Peers:   []netaddr.Addr{netaddr.MustParseAddr("129.6.15.28")},
			Profile: Profile{SystemString: "linux", VersionString: "ntpd 4.2.6 2011", TTL: 64},
		})
		for i := 0; i < 10; i++ {
			srv.Record(netaddr.Addr(0x0a000100+uint32(i)), 123, ntp.ModeClient, 4, 1, vtime.Epoch)
		}
		return srv
	}
	queries := map[string][]byte{
		"monlist": ntp.NewMonlistRequest(ntp.ImplXNTPD, ntp.ReqMonGetList1),
		"peers":   ntp.NewMonlistRequestPadded(ntp.ImplXNTPD, ntp.ReqPeerList),
		"readvar": ntp.NewReadVarRequest(3),
		"mode3":   ntp.NewClientRequest(vtime.Epoch).AppendTo(nil),
	}
	src := netaddr.MustParseAddr("198.51.100.9")
	for name, q := range queries {
		// Fabric path.
		nw, sched := testHarness()
		fab := build()
		nw.Register(fab.Addr(), fab)
		col := &collector{}
		nw.Register(src, col)
		nw.SendUDP(src, 4000, fab.Addr(), ntp.Port, netsim.TTLLinux, q)
		sched.Drain()

		// Direct path against an identically-prepared server at the same
		// virtual instant the fabric delivered the query.
		direct := build()
		arrival := vtime.Epoch.Add(netsim.PathLatency(src, direct.Addr()))
		responses := direct.Respond(q, src, 4000, arrival)

		if len(responses) != len(col.packets) {
			t.Fatalf("%s: Respond %d packets vs fabric %d", name, len(responses), len(col.packets))
		}
		for i := range responses {
			if string(responses[i]) != string(col.packets[i].Payload) {
				t.Fatalf("%s: payload %d differs between transports", name, i)
			}
		}
	}
}
