package reflector

import (
	"bytes"
	"fmt"
	"time"

	"ntpddos/internal/dns"
	"ntpddos/internal/netaddr"
	"ntpddos/internal/netsim"
	"ntpddos/internal/packet"
)

// The DNS-ANY reflector population is internal/dns.Resolver — open
// recursive resolvers already on the fabric for the §6.2 pool-overlap
// analysis. This file adds fabric hosts for the two vectors that had none:
// naive UPnP devices (SSDP) and chargen services.

// dnsANYQuery builds the trigger payload for the DNSANY profile: one
// recursive ANY query for a fat zone. The ID is fixed — booters reuse a
// constant ID across spoofed triggers, and determinism wants one byte
// sequence per profile.
func dnsANYQuery() []byte {
	q := dns.NewQuery(0x1337, "amp.example.com", dns.TypeANY)
	raw, err := q.Encode()
	if err != nil {
		panic(err) // static input; cannot fail
	}
	return raw
}

// SSDPNode is a naive UPnP device: it answers a unicast M-SEARCH ssdp:all
// with one HTTP/1.1 200 OK datagram per advertised service — the
// multiplicative response that makes consumer gear a 30.8× amplifier.
type SSDPNode struct {
	Addr netaddr.Addr
	// Services is how many response datagrams one discovery elicits
	// (root device + embedded devices + service types).
	Services int

	QueriesSeen int64
	BytesSent   int64
}

// DefaultSSDPServices is a typical consumer device's advertisement count.
const DefaultSSDPServices = 10

// NewSSDPNode builds a device with the typical advertisement count.
func NewSSDPNode(addr netaddr.Addr) *SSDPNode {
	return &SSDPNode{Addr: addr, Services: DefaultSSDPServices}
}

var ssdpMSearch = []byte("M-SEARCH")

// ssdpServiceTypes cycles the ST lines of successive response datagrams.
var ssdpServiceTypes = []string{
	"upnp:rootdevice",
	"urn:schemas-upnp-org:device:InternetGatewayDevice:1",
	"urn:schemas-upnp-org:device:WANDevice:1",
	"urn:schemas-upnp-org:device:WANConnectionDevice:1",
	"urn:schemas-upnp-org:service:WANIPConnection:1",
	"urn:schemas-upnp-org:service:WANPPPConnection:1",
	"urn:schemas-upnp-org:service:Layer3Forwarding:1",
	"urn:schemas-upnp-org:device:MediaServer:1",
	"urn:schemas-upnp-org:service:ContentDirectory:1",
	"urn:schemas-upnp-org:service:ConnectionManager:1",
}

// ssdpResponse renders the i-th 200 OK datagram a device at addr emits.
func ssdpResponse(addr netaddr.Addr, i int) []byte {
	st := ssdpServiceTypes[i%len(ssdpServiceTypes)]
	return []byte(fmt.Sprintf("HTTP/1.1 200 OK\r\n"+
		"CACHE-CONTROL: max-age=1800\r\n"+
		"EXT:\r\n"+
		"LOCATION: http://%s:5000/rootDesc.xml\r\n"+
		"SERVER: Linux/2.6 UPnP/1.0 MiniUPnPd/1.8\r\n"+
		"ST: %s\r\n"+
		"USN: uuid:824ff22b-8c7d-41c5-a131-44f534e12555::%s\r\n\r\n",
		addr, st, st))
}

// HandlePacket implements netsim.Host.
func (n *SSDPNode) HandlePacket(nw *netsim.Network, dg *packet.Datagram, now time.Time) {
	if dg.UDP.DstPort != SSDPPort || !bytes.HasPrefix(dg.Payload, ssdpMSearch) {
		return
	}
	rep := dg.Rep
	if rep <= 0 {
		rep = 1
	}
	n.QueriesSeen += rep
	responses := make([][]byte, n.Services)
	for i := range responses {
		responses[i] = ssdpResponse(n.Addr, i)
	}
	out := packet.NewDatagram(n.Addr, SSDPPort, dg.IP.Src, dg.UDP.SrcPort, nil)
	out.IP.TTL = MustLookup(SSDP).ResponseTTL
	out.Rep = rep
	if nw.SendTrain(n.Addr, out, responses) {
		for _, r := range responses {
			n.BytesSent += int64(packet.OnWireBytesForUDPPayload(len(r))) * rep
		}
	}
}

// ChargenNode is an RFC 864 UDP character-generation service: any datagram
// elicits a reply of "a random number (between 0 and 512) of characters" —
// in practice implementations pin a size, which with a one-byte trigger is
// the 358.8× amplification chargen is abused for.
type ChargenNode struct {
	Addr netaddr.Addr
	// ReplyLen is the reply payload size (RFC caps UDP chargen at 512).
	ReplyLen int

	QueriesSeen int64
	BytesSent   int64
}

// DefaultChargenReplyLen is the reply size of the common implementations.
const DefaultChargenReplyLen = 512

// NewChargenNode builds a chargen service with the common reply size.
func NewChargenNode(addr netaddr.Addr) *ChargenNode {
	return &ChargenNode{Addr: addr, ReplyLen: DefaultChargenReplyLen}
}

// ChargenPayload renders n bytes of the RFC 864 rotating printable pattern.
func ChargenPayload(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(' ' + (i % 95))
	}
	return out
}

// HandlePacket implements netsim.Host.
func (c *ChargenNode) HandlePacket(nw *netsim.Network, dg *packet.Datagram, now time.Time) {
	if dg.UDP.DstPort != ChargenPort {
		return
	}
	rep := dg.Rep
	if rep <= 0 {
		rep = 1
	}
	c.QueriesSeen += rep
	out := packet.NewDatagram(c.Addr, ChargenPort, dg.IP.Src, dg.UDP.SrcPort,
		ChargenPayload(c.ReplyLen))
	out.IP.TTL = MustLookup(Chargen).ResponseTTL
	out.Rep = rep
	if nw.SendFrom(c.Addr, out) {
		c.BytesSent += int64(out.OnWire()) * rep
	}
}
