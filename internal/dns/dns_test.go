package dns

import (
	"testing"
	"time"

	"ntpddos/internal/netaddr"
	"ntpddos/internal/netsim"
	"ntpddos/internal/packet"
	"ntpddos/internal/vtime"
)

func TestMessageRoundTrip(t *testing.T) {
	m := NewQuery(0x1234, "example.com", TypeANY)
	raw, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 0x1234 || got.Response || !got.Recursion {
		t.Fatalf("header mismatch: %+v", got)
	}
	if got.Question.Name != "example.com" || got.Question.Type != TypeANY || got.Question.Class != 1 {
		t.Fatalf("question mismatch: %+v", got.Question)
	}
}

func TestResponseRoundTripWithAnswers(t *testing.T) {
	m := &Message{ID: 9, Response: true, RecAvail: true,
		Question: Question{Name: "big.zone", Type: TypeANY, Class: 1},
		Answers: []Record{
			{Name: "big.zone", Type: TypeTXT, Class: 1, TTL: 3600, Data: []byte("hello")},
			{Name: "big.zone", Type: TypeA, Class: 1, TTL: 60, Data: []byte{1, 2, 3, 4}},
		}}
	raw, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Answers) != 2 || string(got.Answers[0].Data) != "hello" ||
		got.Answers[1].Type != TypeA {
		t.Fatalf("answers mismatch: %+v", got.Answers)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for _, b := range [][]byte{nil, {1, 2, 3}, make([]byte, 12)} {
		if _, err := Decode(b); err == nil && b == nil {
			t.Fatal("nil decoded")
		}
	}
	// A header claiming a question but providing none.
	bad := make([]byte, 12)
	bad[5] = 1 // QDCOUNT=1 but no question bytes
	bad[12-1] = 0
	if _, err := Decode(bad[:12]); err == nil {
		t.Fatal("truncated question accepted")
	}
}

func TestEncodeRejectsBadLabels(t *testing.T) {
	m := NewQuery(1, "bad..name", TypeA)
	if _, err := m.Encode(); err == nil {
		t.Fatal("empty label accepted")
	}
}

func harness() (*netsim.Network, *vtime.Scheduler) {
	sched := vtime.NewScheduler()
	return netsim.New(sched, nil), sched
}

// collector deep-copies delivered datagrams: the fabric recycles the struct
// and payload buffer as soon as HandlePacket returns.
type collector struct{ packets []*packet.Datagram }

func (c *collector) HandlePacket(_ *netsim.Network, dg *packet.Datagram, _ time.Time) {
	cp := *dg
	cp.Payload = append([]byte(nil), dg.Payload...)
	c.packets = append(c.packets, &cp)
}

func TestOpenResolverAmplifies(t *testing.T) {
	nw, sched := harness()
	res := NewResolver(netaddr.MustParseAddr("10.0.0.53"), true)
	nw.Register(res.Addr, res)
	victim := netaddr.MustParseAddr("203.0.113.1")
	col := &collector{}
	nw.Register(victim, col)

	q, _ := NewQuery(7, "abused.zone", TypeANY).Encode()
	bot := netaddr.MustParseAddr("192.0.2.1")
	nw.SendSpoofed(bot, victim, 80, res.Addr, Port, netsim.TTLWindows, q)
	sched.Drain()

	if len(col.packets) != 1 {
		t.Fatalf("victim got %d packets", len(col.packets))
	}
	queryWire := packet.OnWireBytesForUDPPayload(len(q))
	respWire := col.packets[0].OnWire()
	baf := float64(respWire) / float64(queryWire)
	if baf < 10 {
		t.Fatalf("ANY amplification = %.1fx, want >= 10x", baf)
	}
	got, err := Decode(col.packets[0].Payload)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Response || got.ID != 7 {
		t.Fatalf("response header %+v", got)
	}
}

func TestClosedResolverSilent(t *testing.T) {
	nw, sched := harness()
	res := NewResolver(netaddr.MustParseAddr("10.0.0.53"), false)
	nw.Register(res.Addr, res)
	client := netaddr.MustParseAddr("10.0.0.1")
	col := &collector{}
	nw.Register(client, col)
	q, _ := NewQuery(7, "example.com", TypeA).Encode()
	nw.SendUDP(client, 4000, res.Addr, Port, netsim.TTLLinux, q)
	sched.Drain()
	if len(col.packets) != 0 {
		t.Fatal("closed resolver answered")
	}
	if res.QueriesSeen != 1 {
		t.Fatalf("QueriesSeen = %d", res.QueriesSeen)
	}
}

func TestAQueryModestResponse(t *testing.T) {
	nw, sched := harness()
	res := NewResolver(netaddr.MustParseAddr("10.0.0.53"), true)
	nw.Register(res.Addr, res)
	client := netaddr.MustParseAddr("10.0.0.1")
	col := &collector{}
	nw.Register(client, col)
	q, _ := NewQuery(7, "example.com", TypeA).Encode()
	nw.SendUDP(client, 4000, res.Addr, Port, netsim.TTLLinux, q)
	sched.Drain()
	if len(col.packets) != 1 {
		t.Fatal("no A answer")
	}
	got, _ := Decode(col.packets[0].Payload)
	if len(got.Answers) != 1 || got.Answers[0].Type != TypeA {
		t.Fatalf("answers = %+v", got.Answers)
	}
}

func TestResolverIgnoresResponses(t *testing.T) {
	// Reflected responses arriving at a resolver must not trigger replies
	// (no infinite reflection loops between resolvers).
	nw, sched := harness()
	res := NewResolver(netaddr.MustParseAddr("10.0.0.53"), true)
	nw.Register(res.Addr, res)
	resp := &Message{ID: 1, Response: true, Question: Question{Name: "x.y", Type: TypeA, Class: 1}}
	raw, _ := resp.Encode()
	nw.SendUDP(netaddr.MustParseAddr("10.9.9.9"), 53, res.Addr, Port, netsim.TTLLinux, raw)
	sched.Drain()
	if res.BytesSent != 0 {
		t.Fatal("resolver answered a response packet")
	}
}
