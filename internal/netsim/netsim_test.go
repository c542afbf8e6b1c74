package netsim

import (
	"testing"
	"time"

	"ntpddos/internal/netaddr"
	"ntpddos/internal/packet"
	"ntpddos/internal/vtime"
)

func newNet(policy SpoofPolicy) (*Network, *vtime.Scheduler) {
	sched := vtime.NewScheduler()
	return New(sched, policy), sched
}

// copyDatagram deep-copies a delivered datagram so a test can inspect it
// after Drain: the fabric recycles the struct and its payload buffer the
// moment HandlePacket returns.
func copyDatagram(dg *packet.Datagram) *packet.Datagram {
	cp := *dg
	cp.Payload = append([]byte(nil), dg.Payload...)
	return &cp
}

func TestDeliveryToRegisteredHost(t *testing.T) {
	net, sched := newNet(nil)
	dst := netaddr.MustParseAddr("10.0.0.2")
	src := netaddr.MustParseAddr("10.0.0.1")
	var got *packet.Datagram
	net.Register(dst, HostFunc(func(_ *Network, dg *packet.Datagram, _ time.Time) {
		got = copyDatagram(dg)
	}))
	if !net.SendUDP(src, 5000, dst, 123, TTLLinux, []byte("hi")) {
		t.Fatal("send refused")
	}
	sched.Drain()
	if got == nil {
		t.Fatal("packet not delivered")
	}
	if string(got.Payload) != "hi" || got.UDP.DstPort != 123 {
		t.Fatalf("delivered %+v", got)
	}
	s := net.Stats()
	if s.Sent != 1 || s.Delivered != 1 || s.Dark != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDarkSpaceCountsButDoesNotDeliver(t *testing.T) {
	net, sched := newNet(nil)
	net.SendUDP(1, 1, 2, 2, TTLLinux, []byte("x"))
	sched.Drain()
	s := net.Stats()
	if s.Dark != 1 || s.Delivered != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestSpoofBlockedByPolicy(t *testing.T) {
	victim := netaddr.MustParseAddr("203.0.113.5")
	amp := netaddr.MustParseAddr("198.51.100.1")
	bot := netaddr.MustParseAddr("192.0.2.9")
	deny := func(origin, claimed netaddr.Addr) bool { return false }
	net, sched := newNet(deny)
	delivered := false
	net.Register(amp, HostFunc(func(_ *Network, _ *packet.Datagram, _ time.Time) {
		delivered = true
	}))
	if net.SendSpoofed(bot, victim, 80, amp, 123, TTLWindows, []byte("q")) {
		t.Fatal("spoofed send accepted under deny-all policy")
	}
	sched.Drain()
	if delivered {
		t.Fatal("spoofed packet delivered")
	}
	if net.Stats().DroppedSpoof != 1 {
		t.Fatalf("stats = %+v", net.Stats())
	}
}

func TestSpoofAllowedByPolicy(t *testing.T) {
	victim := netaddr.MustParseAddr("203.0.113.5")
	amp := netaddr.MustParseAddr("198.51.100.1")
	bot := netaddr.MustParseAddr("192.0.2.9")
	net, sched := newNet(nil) // nil policy = no BCP38 anywhere
	var got *packet.Datagram
	net.Register(amp, HostFunc(func(_ *Network, dg *packet.Datagram, _ time.Time) {
		got = copyDatagram(dg)
	}))
	net.SendSpoofed(bot, victim, 80, amp, 123, TTLWindows, []byte("q"))
	sched.Drain()
	if got == nil {
		t.Fatal("spoofed packet not delivered")
	}
	if got.IP.Src != victim || got.UDP.SrcPort != 80 {
		t.Fatalf("amplifier sees src %v:%d, want victim 203.0.113.5:80", got.IP.Src, got.UDP.SrcPort)
	}
}

func TestOwnAddressNeverConsultsPolicy(t *testing.T) {
	calls := 0
	policy := func(origin, claimed netaddr.Addr) bool { calls++; return false }
	net, _ := newNet(policy)
	net.SendUDP(7, 1, 8, 2, TTLLinux, []byte("x"))
	if calls != 0 {
		t.Fatal("policy consulted for non-spoofed packet")
	}
}

func TestTTLDecrementMatchesPathHops(t *testing.T) {
	net, sched := newNet(nil)
	src := netaddr.MustParseAddr("10.1.1.1")
	dst := netaddr.MustParseAddr("10.2.2.2")
	var gotTTL uint8
	net.Register(dst, HostFunc(func(_ *Network, dg *packet.Datagram, _ time.Time) {
		gotTTL = dg.IP.TTL
	}))
	net.SendUDP(src, 1, dst, 2, TTLLinux, []byte("x"))
	sched.Drain()
	want := TTLLinux - PathHops(src, dst)
	if int(gotTTL) != want {
		t.Fatalf("TTL = %d, want %d", gotTTL, want)
	}
	if gotTTL < 64-23 || gotTTL > 64-8 {
		t.Fatalf("TTL %d outside the Linux fingerprint band", gotTTL)
	}
}

func TestTTLExpiry(t *testing.T) {
	net, sched := newNet(nil)
	dst := netaddr.MustParseAddr("10.2.2.2")
	delivered := false
	net.Register(dst, HostFunc(func(_ *Network, _ *packet.Datagram, _ time.Time) {
		delivered = true
	}))
	if net.SendUDP(netaddr.MustParseAddr("10.1.1.1"), 1, dst, 2, 3 /*tiny TTL*/, []byte("x")) {
		t.Fatal("expired packet reported as sent")
	}
	sched.Drain()
	if delivered {
		t.Fatal("expired packet delivered")
	}
}

func TestTapSeesAllPacketsIncludingDark(t *testing.T) {
	net, sched := newNet(nil)
	seen := 0
	net.AddTap(tapFunc(func(_ *packet.Datagram, payloads [][]byte, _ []int64, _ time.Time) { seen += len(payloads) }))
	net.Register(5, HostFunc(func(_ *Network, _ *packet.Datagram, _ time.Time) {}))
	net.SendUDP(1, 1, 5, 2, TTLLinux, []byte("a")) // delivered
	net.SendUDP(1, 1, 9, 2, TTLLinux, []byte("b")) // dark
	sched.Drain()
	if seen != 2 {
		t.Fatalf("tap saw %d packets, want 2", seen)
	}
}

type tapFunc func(hdr *packet.Datagram, payloads [][]byte, reps []int64, now time.Time)

func (f tapFunc) ObserveTrain(hdr *packet.Datagram, payloads [][]byte, reps []int64, now time.Time) {
	f(hdr, payloads, reps, now)
}

func TestDeliveryHasLatency(t *testing.T) {
	net, sched := newNet(nil)
	src := netaddr.MustParseAddr("10.1.1.1")
	dst := netaddr.MustParseAddr("10.2.2.2")
	var at time.Time
	net.Register(dst, HostFunc(func(_ *Network, _ *packet.Datagram, now time.Time) {
		at = now
	}))
	start := net.Now()
	net.SendUDP(src, 1, dst, 2, TTLLinux, []byte("x"))
	sched.Drain()
	if got := at.Sub(start); got != PathLatency(src, dst) {
		t.Fatalf("delivery latency = %v, want %v", got, PathLatency(src, dst))
	}
	if at.Sub(start) < 10*time.Millisecond {
		t.Fatal("latency below floor")
	}
}

func TestPathPropertiesDeterministic(t *testing.T) {
	a, b := netaddr.Addr(12345), netaddr.Addr(67890)
	if PathHops(a, b) != PathHops(a, b) || PathLatency(a, b) != PathLatency(a, b) {
		t.Fatal("path properties not deterministic")
	}
}

func TestReRegisterReplacesHost(t *testing.T) {
	net, sched := newNet(nil)
	first, second := false, false
	net.Register(5, HostFunc(func(_ *Network, _ *packet.Datagram, _ time.Time) { first = true }))
	net.Register(5, HostFunc(func(_ *Network, _ *packet.Datagram, _ time.Time) { second = true }))
	net.SendUDP(1, 1, 5, 2, TTLLinux, []byte("x"))
	sched.Drain()
	if first || !second {
		t.Fatalf("first=%v second=%v", first, second)
	}
	net.Unregister(5)
	if net.IsRegistered(5) {
		t.Fatal("Unregister failed")
	}
}

func TestHostCanReplyFromHandler(t *testing.T) {
	// Request/response through the fabric: the scanner→amplifier pattern.
	net, sched := newNet(nil)
	server := netaddr.MustParseAddr("10.0.0.2")
	client := netaddr.MustParseAddr("10.0.0.1")
	var reply *packet.Datagram
	net.Register(server, HostFunc(func(nw *Network, dg *packet.Datagram, _ time.Time) {
		nw.SendUDP(server, dg.UDP.DstPort, dg.IP.Src, dg.UDP.SrcPort, TTLLinux, []byte("pong"))
	}))
	net.Register(client, HostFunc(func(_ *Network, dg *packet.Datagram, _ time.Time) {
		reply = copyDatagram(dg)
	}))
	net.SendUDP(client, 4000, server, 123, TTLLinux, []byte("ping"))
	sched.Drain()
	if reply == nil || string(reply.Payload) != "pong" {
		t.Fatalf("reply = %+v", reply)
	}
	if reply.UDP.SrcPort != 123 || reply.UDP.DstPort != 4000 {
		t.Fatalf("reply ports %d->%d", reply.UDP.SrcPort, reply.UDP.DstPort)
	}
}

func TestBytesOnWireAccounting(t *testing.T) {
	net, sched := newNet(nil)
	net.SendUDP(1, 1, 2, 2, TTLLinux, make([]byte, 8))
	sched.Drain()
	if got := net.Stats().BytesOnWire; got != 84 {
		t.Fatalf("BytesOnWire = %d, want 84 (minimum frame)", got)
	}
}
