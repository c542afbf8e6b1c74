package reflector

import (
	"bytes"
	"testing"
	"time"

	"ntpddos/internal/dns"
	"ntpddos/internal/netaddr"
	"ntpddos/internal/netsim"
	"ntpddos/internal/ntp"
	"ntpddos/internal/packet"
	"ntpddos/internal/vtime"
)

// TestMonlistProfileMatchesLegacyTrigger pins the refactoring contract: the
// monlist profile's request bytes and port are exactly what the attack
// engine hard-coded before the abstraction, so campaign datagrams — and
// therefore the golden digests — are byte-identical.
func TestMonlistProfileMatchesLegacyTrigger(t *testing.T) {
	p := MustLookup(Monlist)
	want := ntp.NewMonlistRequestPadded(ntp.ImplXNTPD, ntp.ReqMonGetList1)
	if !bytes.Equal(p.Request, want) {
		t.Fatalf("monlist request drifted from the padded ntpdc probe:\n got %x\nwant %x", p.Request, want)
	}
	if p.Port != ntp.Port {
		t.Fatalf("monlist port = %d, want %d", p.Port, ntp.Port)
	}
	if !p.Stateful {
		t.Fatal("monlist must be stateful (priming semantics)")
	}
}

func TestLookup(t *testing.T) {
	if p := MustLookup(""); p.Vector != Monlist {
		t.Fatalf("empty vector resolved to %q, want monlist", p.Vector)
	}
	for _, v := range Vectors() {
		p, err := Lookup(v)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", v, err)
		}
		if p.Vector != v || len(p.Request) == 0 || p.Port == 0 || p.BAF <= 1 {
			t.Fatalf("profile %q incomplete: %+v", v, p)
		}
	}
	if _, err := Lookup("carrier-pigeon"); err == nil {
		t.Fatal("unknown vector accepted")
	}
	if Valid("carrier-pigeon") || !Valid("") || !Valid(SSDP) {
		t.Fatal("Valid disagrees with Lookup")
	}
}

// TestDNSANYRequestDecodes checks the trigger is a well-formed recursive
// ANY query — what dns.Resolver answers with its fat TXT set.
func TestDNSANYRequestDecodes(t *testing.T) {
	m, err := dns.Decode(MustLookup(DNSANY).Request)
	if err != nil {
		t.Fatal(err)
	}
	if m.Response || !m.Recursion || m.Question.Type != dns.TypeANY {
		t.Fatalf("bad ANY trigger: %+v", m)
	}
}

// newTestNet builds a permissive single-switch fabric.
func newTestNet() (*netsim.Network, *vtime.Scheduler) {
	clock := &vtime.Clock{}
	sched := vtime.NewScheduler(clock)
	return netsim.New(sched, func(origin, claimed netaddr.Addr) bool { return true }), sched
}

// capTap records rep-weighted bytes per destination.
type capTap struct {
	packets int64
	bytes   int64
}

func (c *capTap) ObserveTrain(hdr *packet.Datagram, payloads [][]byte, reps []int64, now time.Time) {
	for i, p := range payloads {
		c.packets += reps[i]
		c.bytes += int64(packet.OnWireBytesForUDPPayload(len(p))) * reps[i]
	}
}

// driveVector sends one profile trigger at a reflector host and returns the
// reflected byte/packet totals observed at the victim side.
func driveVector(t *testing.T, v Vector, host netsim.Host, addr netaddr.Addr) *capTap {
	t.Helper()
	nw, sched := newTestNet()
	nw.Register(addr, host)
	tap := &capTap{}
	nw.AddTap(tap)
	p := MustLookup(v)
	victim := netaddr.MustParseAddr("203.0.113.7")
	bot := netaddr.MustParseAddr("198.51.100.9")
	dg := packet.NewDatagram(victim, 80, addr, p.Port, p.Request)
	dg.IP.TTL = netsim.TTLWindows
	if !nw.SendFrom(bot, dg) {
		t.Fatalf("%s trigger not sent", v)
	}
	sched.RunUntil(vtime.Epoch.Add(time.Minute))
	return tap
}

// TestSSDPAmplifies drives one M-SEARCH through an SSDPNode and checks the
// response multiplies into several fat datagrams.
func TestSSDPAmplifies(t *testing.T) {
	addr := netaddr.MustParseAddr("192.0.2.50")
	node := NewSSDPNode(addr)
	tap := driveVector(t, SSDP, node, addr)
	// Trigger + Services responses.
	if want := int64(1 + node.Services); tap.packets != want {
		t.Fatalf("observed %d packets, want %d", tap.packets, want)
	}
	trigger := int64(len(MustLookup(SSDP).Request)) + 46
	if tap.bytes < 10*trigger {
		t.Fatalf("SSDP amplification too small: %d bytes vs %d trigger", tap.bytes, trigger)
	}
	if node.QueriesSeen != 1 || node.BytesSent == 0 {
		t.Fatalf("node accounting: %d queries, %d bytes", node.QueriesSeen, node.BytesSent)
	}
}

// TestChargenAmplifies drives the one-byte trigger through a ChargenNode.
func TestChargenAmplifies(t *testing.T) {
	addr := netaddr.MustParseAddr("192.0.2.51")
	node := NewChargenNode(addr)
	tap := driveVector(t, Chargen, node, addr)
	if tap.packets != 2 { // trigger + single reply
		t.Fatalf("observed %d packets, want 2", tap.packets)
	}
	if node.BytesSent < int64(DefaultChargenReplyLen) {
		t.Fatalf("chargen reply too small: %d bytes", node.BytesSent)
	}
}

// TestDNSResolverAnswersProfileTrigger closes the loop with the existing
// open-resolver host: the profile's trigger elicits the multi-kilobyte ANY
// response.
func TestDNSResolverAnswersProfileTrigger(t *testing.T) {
	addr := netaddr.MustParseAddr("192.0.2.52")
	res := dns.NewResolver(addr, true)
	tap := driveVector(t, DNSANY, res, addr)
	if res.QueriesSeen != 1 {
		t.Fatalf("resolver saw %d queries, want 1", res.QueriesSeen)
	}
	if res.BytesSent < int64(res.AmpPayload) {
		t.Fatalf("ANY response too small: %d bytes vs %d payload", res.BytesSent, res.AmpPayload)
	}
	if tap.packets != 2 {
		t.Fatalf("observed %d packets, want 2", tap.packets)
	}
}

// TestRepBatchingPreserved pins that reflector hosts carry the trigger's
// Rep through to responses — the engine's batching contract.
func TestRepBatchingPreserved(t *testing.T) {
	addr := netaddr.MustParseAddr("192.0.2.53")
	node := NewChargenNode(addr)
	nw, sched := newTestNet()
	nw.Register(addr, node)
	tap := &capTap{}
	nw.AddTap(tap)
	dg := packet.NewDatagram(netaddr.MustParseAddr("203.0.113.8"), 80, addr, ChargenPort,
		MustLookup(Chargen).Request)
	dg.Rep = 50
	nw.SendFrom(netaddr.MustParseAddr("198.51.100.9"), dg)
	sched.RunUntil(vtime.Epoch.Add(time.Minute))
	if tap.packets != 100 { // 50 triggers + 50 replies
		t.Fatalf("rep-weighted packets = %d, want 100", tap.packets)
	}
	if node.QueriesSeen != 50 {
		t.Fatalf("QueriesSeen = %d, want 50", node.QueriesSeen)
	}
}
