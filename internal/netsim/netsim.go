// Package netsim is the simulated Internet fabric: it delivers UDP/IPv4
// datagrams between registered hosts under virtual time, enforcing (or, for
// the ~quarter of networks without BCP 38/84, failing to enforce) source
// address validation — the misconfiguration that makes reflection attacks
// possible (§1).
//
// The fabric also hosts the measurement infrastructure: taps observe every
// packet (the darknet telescope, the ISP flow collectors, the global
// telemetry aggregator are all taps), and packets destined to unregistered
// addresses simply vanish after the taps have seen them — which is exactly
// what a darknet is. Dark space is decided when a train is sent: a train
// reaches a host only if its destination has a host both when it is sent and
// when it arrives. A train to an address with no host is observed, counted
// dark and ends there, with no copy and no scheduler item; a train whose
// host leaves in flight is counted dark on arrival.
//
// The fabric's unit of work is a train: one header and N payloads, the shape
// of a fragmented reply such as a 100-packet monlist table. A train resolves
// its path (spoof policy, hops, latency, link faults, host binding) once, is
// shown to each tap in one ObserveTrain call, and is one scheduler event,
// scheduled its path latency after the send, yet stays exactly the sequence
// of one-payload sends it replaces: each payload is counted and handed to
// the destination host on its own, in send order, and a tap's result is the
// same as if it had seen the payloads one at a time.
//
// The tap contract: hdr is the delivered header (TTL already decremented,
// Payload nil, Rep zero) and payload i carries reps[i], always at least 1.
// payloads are the sender's own slices and reps the fabric's, both valid
// only during the call; a tap must neither retain nor mutate them, and must
// not send. An unimpaired train repeats its one Rep. Under fault injection
// the call carries the train's survivors with their post-loss Reps, each
// duplicate right after its original, after every fault draw of the train:
// the (payload, Rep) sequence a tap sees is the one a sequence of
// one-payload sends would show it, in one call per train that has a
// survivor.
package netsim

import (
	"time"

	"ntpddos/internal/metrics"
	"ntpddos/internal/netaddr"
	"ntpddos/internal/packet"
	"ntpddos/internal/rng"
	"ntpddos/internal/vtime"
)

// Host receives datagrams addressed to a registered address.
type Host interface {
	// HandlePacket is invoked at the packet's (virtual) arrival time. The
	// datagram's TTL has already been decremented by the path length.
	HandlePacket(net *Network, dg *packet.Datagram, now time.Time)
}

// HostFunc adapts a function to the Host interface.
type HostFunc func(net *Network, dg *packet.Datagram, now time.Time)

// HandlePacket implements Host.
func (f HostFunc) HandlePacket(net *Network, dg *packet.Datagram, now time.Time) {
	f(net, dg, now)
}

// Tap observes every packet traversing the fabric (after TTL decrement,
// before delivery), one train per call: payloads share hdr's addressing, and
// payload i stands for reps[i] datagrams (see the package doc for the full
// contract). Taps must not mutate or retain hdr, payloads or reps.
type Tap interface {
	ObserveTrain(hdr *packet.Datagram, payloads [][]byte, reps []int64, now time.Time)
}

// SpoofPolicy reports whether a host at origin may emit a packet claiming
// the given source address. Networks deploying BCP 38/84 return false for
// any src outside their own space.
type SpoofPolicy func(origin, claimed netaddr.Addr) bool

// Stats counts fabric activity. All counters honour the Rep batching
// multiplier: one datagram with Rep = n counts as n packets.
type Stats struct {
	Sent      int64 // packets accepted from senders
	Delivered int64 // packets handed to a registered host
	// Dark counts packets to unregistered addresses (incl. darknet): counted
	// when sent, or on arrival if the host left in flight.
	Dark         int64
	DroppedSpoof int64 // spoofed packets blocked by BCP38 at the source
	DroppedLoss  int64 // packets lost in transit by the impairment stage
	DroppedFlap  int64 // packets swallowed whole by a downed-link flap window
	Duplicated   int64 // extra in-transit copies materialized by the impairment stage
	Reordered    int64 // packets detoured onto a slower path (bounded reordering)
	BytesOnWire  int64 // total on-wire bytes of accepted packets
}

// Network is the fabric. It is single-threaded and driven entirely by the
// scheduler, keeping the simulation deterministic.
//
// Datagram ownership: SendTrain (and SendFrom, a one-payload train) copies
// the caller's header and payload bytes into a pooled train when the
// destination has a host, so senders may reuse their datagram and payload
// buffers the moment the call returns. A train reaches a host only if its
// destination has a host both when it is sent and when it arrives, so a
// send to an address with no host is observed and counted dark without a
// copy. Taps see the sender's own payloads during the send, before it
// returns; the copy serves delivery alone. Hosts are shown a fabric-owned
// datagram that is re-pointed at the next payload once HandlePacket
// returns, and the train is recycled once delivered: hosts and taps must
// not retain the *Datagram or its payloads past the call — copy what must
// outlive it.
type Network struct {
	sched  *vtime.Scheduler
	policy SpoofPolicy
	hosts  map[netaddr.Addr]Host
	// hostsGen counts Register/Unregister calls, so a train can carry the
	// host found at its send and delivery looks again only after a re-bind.
	hostsGen uint64
	taps     []Tap
	stats    Stats
	m        *Metrics
	impair   *impairState // nil unless SetImpairment armed a nonzero config

	// trains holds idle in-flight trains by buffer size class (train.go).
	// Single-threaded like everything else on the fabric, so plain slices
	// beat sync.Pool.
	trains [trainClasses][]*train

	// tapView is the header taps are shown: the sent header as delivered.
	// It never holds a payload. tapReps backs the reps of a tap call, and
	// tapPayloads an impaired train's survivors; it is cleared after each
	// call so it never pins a sender's buffer. deliverView is the datagram
	// hosts are shown, re-pointed at one payload of a train per call and
	// cleared afterwards, so it never pins a train's buffer. The two views
	// are distinct because a host's HandlePacket may send, which observes.
	tapView     packet.Datagram
	tapPayloads [][]byte
	tapReps     []int64
	deliverView packet.Datagram

	// sendScratch backs the SendUDP/SendSpoofed convenience wrappers, and
	// sendOne is SendFrom's one-payload train: since SendTrain copies
	// before returning, both are reused by every send without allocating.
	sendScratch packet.Datagram
	sendOne     [1][]byte
}

// Metrics is the fabric's optional live instrumentation. All counters are
// Rep-weighted, mirroring Stats; writes are atomic and never touch RNG or
// scheduler state, so an instrumented run is behaviourally identical to an
// uninstrumented one.
type Metrics struct {
	Sent         *metrics.Counter
	Delivered    *metrics.Counter
	Dark         *metrics.Counter
	DroppedSpoof *metrics.Counter
	Expired      *metrics.Counter
	Bytes        *metrics.Counter
	TapFanout    *metrics.Counter
	Duplicated   *metrics.Counter
	Reordered    *metrics.Counter
	Hosts        *metrics.Gauge
	// Dropped partitions every in-or-before-transit drop by cause
	// (spoof | ttl | loss | flap); the legacy unlabeled counters above keep
	// counting in parallel. Children are pre-resolved for the hot path.
	Dropped   *metrics.CounterVec
	dropSpoof *metrics.Counter
	dropTTL   *metrics.Counter
	dropLoss  *metrics.Counter
	dropFlap  *metrics.Counter
}

// NewMetrics registers the fabric family on r (nil r yields no-op metrics).
func NewMetrics(r *metrics.Registry) *Metrics {
	m := &Metrics{
		Sent: r.NewCounter("ntpsim_fabric_packets_sent_total",
			"Rep-weighted packets accepted from senders."),
		Delivered: r.NewCounter("ntpsim_fabric_packets_delivered_total",
			"Rep-weighted packets handed to a registered host."),
		Dark: r.NewCounter("ntpsim_fabric_packets_dark_total",
			"Rep-weighted packets to unregistered addresses (darknet)."),
		DroppedSpoof: r.NewCounter("ntpsim_fabric_packets_spoof_dropped_total",
			"Rep-weighted spoofed packets blocked by BCP38 at the source."),
		Expired: r.NewCounter("ntpsim_fabric_packets_ttl_expired_total",
			"Rep-weighted packets whose TTL expired in transit."),
		Bytes: r.NewCounter("ntpsim_fabric_bytes_sent_total",
			"Rep-weighted on-wire bytes of accepted packets."),
		TapFanout: r.NewCounter("ntpsim_fabric_tap_observations_total",
			"Tap observations (one per attached tap per real datagram)."),
		Duplicated: r.NewCounter("ntpsim_fabric_packets_duplicated_total",
			"Rep-weighted extra in-transit copies from the impairment stage."),
		Reordered: r.NewCounter("ntpsim_fabric_packets_reordered_total",
			"Rep-weighted packets detoured onto a slower path (bounded reordering)."),
		Hosts: r.NewGauge("ntpsim_fabric_hosts",
			"Currently registered fabric hosts."),
		Dropped: r.NewCounterVec("ntpsim_fabric_packets_dropped_total",
			"Rep-weighted packets dropped in or before transit, by cause.", "cause"),
	}
	m.dropSpoof = m.Dropped.With("spoof")
	m.dropTTL = m.Dropped.With("ttl")
	m.dropLoss = m.Dropped.With("loss")
	m.dropFlap = m.Dropped.With("flap")
	return m
}

// SetMetrics attaches (or, with nil, detaches) live instrumentation.
func (n *Network) SetMetrics(m *Metrics) {
	n.m = m
	if m != nil {
		m.Hosts.SetInt(int64(len(n.hosts)))
	}
}

// New builds a fabric on the given scheduler. A nil policy permits all
// spoofing (a fully BCP38-free Internet).
func New(sched *vtime.Scheduler, policy SpoofPolicy) *Network {
	if policy == nil {
		policy = func(_, _ netaddr.Addr) bool { return true }
	}
	return &Network{sched: sched, policy: policy, hosts: make(map[netaddr.Addr]Host)}
}

// Scheduler returns the underlying scheduler, letting hosts schedule their
// own timed behaviour (retransmissions, the mega-amplifier replay loop).
func (n *Network) Scheduler() *vtime.Scheduler { return n.sched }

// Now returns the current virtual time.
func (n *Network) Now() time.Time { return n.sched.Now() }

// Register binds a host to an address. Registering over an existing binding
// replaces it (DHCP churn re-binds residential amplifiers this way).
func (n *Network) Register(a netaddr.Addr, h Host) {
	n.hosts[a] = h
	n.hostsGen++
	if n.m != nil {
		n.m.Hosts.SetInt(int64(len(n.hosts)))
	}
}

// Unregister removes a binding.
func (n *Network) Unregister(a netaddr.Addr) {
	delete(n.hosts, a)
	n.hostsGen++
	if n.m != nil {
		n.m.Hosts.SetInt(int64(len(n.hosts)))
	}
}

// IsRegistered reports whether an address has a live host.
func (n *Network) IsRegistered(a netaddr.Addr) bool {
	_, ok := n.hosts[a]
	return ok
}

// NumHosts returns the number of registered hosts.
func (n *Network) NumHosts() int { return len(n.hosts) }

// AddTap attaches an observer to the fabric.
func (n *Network) AddTap(t Tap) { n.taps = append(n.taps, t) }

// Stats returns a snapshot of the fabric counters.
func (n *Network) Stats() Stats { return n.stats }

// pairHash mixes a (src, dst) pair into a deterministic 64-bit value used to
// derive per-path properties without consuming randomness.
func pairHash(a, b netaddr.Addr) uint64 {
	return rng.Mix64(uint64(a)<<32 | uint64(b))
}

// PathHops returns the deterministic hop count between two addresses,
// between 8 and 23 — the range that turns a Linux TTL of 64 into the ~54
// and a Windows TTL of 128 into the ~109 observed at the CSU tap (§7.2).
func PathHops(src, dst netaddr.Addr) int {
	return 8 + int(pairHash(src, dst)%16)
}

// PathLatency returns the deterministic one-way latency between two
// addresses, between 10ms and 240ms.
func PathLatency(src, dst netaddr.Addr) time.Duration {
	return 10*time.Millisecond + time.Duration(pairHash(dst, src)%230)*time.Millisecond
}

// SendFrom injects a datagram into the fabric from a host whose true
// address is origin: a one-payload train (see SendTrain). The payload
// reference is dropped afterwards so the fabric never pins a sender's buffer.
func (n *Network) SendFrom(origin netaddr.Addr, dg *packet.Datagram) bool {
	n.sendOne[0] = dg.Payload
	ok := n.SendTrain(origin, dg, n.sendOne[:])
	n.sendOne[0] = nil
	return ok
}

// SendTrain injects a train from a host whose true address is origin: one
// datagram per payload, all sharing hdr's addressing, TTL and Rep (hdr's own
// Payload is ignored). A train is exactly the sequence of one-payload sends
// it replaces — every payload is counted and delivered on its own, in order,
// and each tap ends as if it had observed them one by one — but the path is
// resolved once, each tap observes the train in one call, the payloads are
// copied into one pooled buffer, and the train occupies one scheduler item.
//
// The destination is looked up once, after the spoof and TTL checks. If no
// host is bound there, the taps still see the train and every payload is
// counted dark at once; nothing is copied or scheduled, so a host that binds
// the address afterwards does not receive it.
//
// If the IP source differs from origin, the spoof policy decides whether the
// train leaves the source network at all. SendTrain returns false when the
// train was dropped at the source or expired in transit (or has no
// payloads); faults injected in transit and dark destinations still return
// true.
func (n *Network) SendTrain(origin netaddr.Addr, hdr *packet.Datagram, payloads [][]byte) bool {
	k := int64(len(payloads))
	if k == 0 {
		return false
	}
	rep := hdr.Rep
	if rep <= 0 {
		rep = 1
	}
	if hdr.IP.Src != origin && !n.policy(origin, hdr.IP.Src) {
		n.stats.DroppedSpoof += rep * k
		if n.m != nil {
			n.m.DroppedSpoof.Add(rep * k)
			n.m.dropSpoof.Add(rep * k)
		}
		return false
	}
	size, wire := 0, int64(0)
	for _, p := range payloads {
		size += len(p)
		wire += int64(packet.OnWireBytesForUDPPayload(len(p)))
	}
	n.stats.Sent += rep * k
	n.stats.BytesOnWire += wire * rep
	if n.m != nil {
		n.m.Sent.Add(rep * k)
		n.m.Bytes.Add(wire * rep)
	}

	// The path is computed from the true origin: TTL decay reveals the
	// sender's distance regardless of the claimed source — the very signal
	// the §7.2 TTL analysis exploits.
	dst := hdr.IP.Dst
	hops := PathHops(origin, dst)
	if int(hdr.IP.TTL) <= hops {
		if n.m != nil {
			n.m.Expired.Add(rep * k)
			n.m.dropTTL.Add(rep * k)
		}
		return false // expired in transit
	}
	host := n.hosts[dst]
	latency := PathLatency(origin, dst)
	if n.impair != nil {
		n.sendImpaired(origin, hdr, payloads, hops, rep, size, host, latency)
		return true
	}
	if len(n.taps) > 0 {
		reps := n.tapReps[:0]
		for range payloads {
			reps = append(reps, rep)
		}
		n.tapReps = reps
		n.observe(hdr, hops, payloads, reps, n.Now())
	}
	if host == nil {
		n.countDark(rep * k)
		return true
	}
	t := n.newTrain(hdr, hops, rep, size, host)
	for _, p := range payloads {
		t.add(p)
	}
	n.sched.After(latency, t.fire)
	return true
}

// sendImpaired is SendTrain's transit stage under fault injection. The flap
// window and per-link loss rate are properties of the path, decided once;
// the loss, duplication and reorder draws, delays included, stay per
// payload, in the order a sequence of one-payload sends would make them, so
// the fault stream is the same however the payloads were grouped and
// whether or not the destination has a host (nil host: dark). A dark
// destination counts each survivor and its duplicates; for a bound one,
// survivors on the base path ride one train, and a reordered payload and
// every duplicate travel alone. Every delay is a duration from now: the path
// latency, plus a reorder detour, plus a duplicate's own lag. Taps then see
// every survivor, each followed by its duplicate, in one call.
func (n *Network) sendImpaired(origin netaddr.Addr, hdr *packet.Datagram, payloads [][]byte, hops int, rep int64, size int, host Host, latency time.Duration) {
	st := n.impair
	dst := hdr.IP.Dst
	now := n.Now()
	// Flap windows swallow the train whole: the sender saw it leave.
	if st.linkDown(origin, dst, now) {
		lost := rep * int64(len(payloads))
		n.stats.DroppedFlap += lost
		if n.m != nil {
			n.m.dropFlap.Add(lost)
		}
		return
	}
	loss := st.linkLoss(origin, dst)
	seen, reps := n.tapPayloads[:0], n.tapReps[:0]
	var base *train
	for _, p := range payloads {
		r := rep
		if lost := st.src.Binomial(r, loss); lost > 0 {
			n.stats.DroppedLoss += lost
			if n.m != nil {
				n.m.dropLoss.Add(lost)
			}
			r -= lost
			if r == 0 {
				continue
			}
		}
		dups := st.src.Binomial(r, st.cfg.Dup)
		if dups > 0 {
			n.stats.Duplicated += dups
			if n.m != nil {
				n.m.Duplicated.Add(dups)
			}
		}
		delay := latency
		reordered := st.cfg.Reorder > 0 && st.src.Bool(st.cfg.Reorder)
		if reordered {
			delay += time.Duration(st.src.Int64N(int64(reorderDelay))) + time.Millisecond
			n.stats.Reordered += r
			if n.m != nil {
				n.m.Reordered.Add(r)
			}
		}
		seen, reps = append(seen, p), append(reps, r)
		var dupDelay time.Duration
		if dups > 0 {
			// Duplicates are real wire packets: taps see them right after
			// the original, and they arrive on their own (slower) schedule.
			seen, reps = append(seen, p), append(reps, dups)
			dupDelay = delay + time.Duration(st.src.Int64N(int64(100*time.Millisecond))) + time.Millisecond
		}

		if host == nil {
			n.countDark(r + dups)
			continue
		}
		if reordered {
			t := n.newTrain(hdr, hops, r, len(p), host)
			t.add(p)
			n.sched.After(delay, t.fire)
		} else {
			if base == nil {
				base = n.newTrain(hdr, hops, rep, size, host)
				n.sched.After(latency, base.fire)
			}
			base.addRep(p, r)
		}
		if dups > 0 {
			d := n.newTrain(hdr, hops, dups, len(p), host)
			d.add(p)
			n.sched.After(dupDelay, d.fire)
		}
	}
	if len(seen) > 0 {
		n.observe(hdr, hops, seen, reps, now)
	}
	clear(seen)
	n.tapPayloads, n.tapReps = seen[:0], reps[:0]
}

// countDark counts packets that reach no host.
func (n *Network) countDark(packets int64) {
	n.stats.Dark += packets
	if n.m != nil {
		n.m.Dark.Add(packets)
	}
}

// observe shows the sender's payloads, payload i carrying reps[i], to every
// tap in one call per tap, under hdr's delivered header after hops.
func (n *Network) observe(hdr *packet.Datagram, hops int, payloads [][]byte, reps []int64, now time.Time) {
	if len(n.taps) == 0 {
		return
	}
	v := &n.tapView
	deliveredHeader(v, hdr, hops)
	for _, tap := range n.taps {
		tap.ObserveTrain(v, payloads, reps, now)
	}
	if n.m != nil {
		n.m.TapFanout.Add(int64(len(n.taps) * len(payloads)))
	}
}

// deliveredHeader sets v to hdr as it arrives after hops: TTL decremented,
// no payload and no Rep.
func deliveredHeader(v, hdr *packet.Datagram, hops int) {
	*v = *hdr
	v.Payload = nil
	v.Rep = 0
	v.IP.TTL -= uint8(hops)
}

// deliver runs a train at its arrival instant, as the train's scheduler
// event. A train whose host left in flight is counted dark in one step; a
// registered host gets one HandlePacket per payload, in send order. A train
// goes to the host found at its send unless an address was bound or
// unbound since, and a re-bind by a handler mid-train reaches the next
// payload. The train returns to the pool once delivered.
func (n *Network) deliver(t *train, now time.Time) {
	v := &n.deliverView
	dst := t.hdr.IP.Dst
	gen := n.hostsGen
	host := t.host
	if t.gen != gen {
		host = n.hosts[dst]
	}
	for i := range t.ends {
		if host == nil {
			n.countDark(t.repSum(i))
			break
		}
		*v = t.hdr
		v.Payload = t.payload(i)
		v.Rep = t.rep(i)
		n.stats.Delivered += v.Rep
		if n.m != nil {
			n.m.Delivered.Add(v.Rep)
		}
		host.HandlePacket(n, v, now)
		if n.hostsGen != gen {
			gen = n.hostsGen
			host = n.hosts[dst]
		}
	}
	v.Payload = nil
	n.freeTrain(t)
}

// SendUDP is a convenience wrapper building and sending a datagram whose IP
// source is the true origin (no spoofing), with the sender's OS default TTL.
func (n *Network) SendUDP(origin netaddr.Addr, srcPort uint16, dst netaddr.Addr, dstPort uint16, ttl uint8, payload []byte) bool {
	return n.sendScratchFrom(origin, origin, srcPort, dst, dstPort, ttl, payload)
}

// SendSpoofed builds and sends a datagram whose IP source is forged to
// victim — the attacker→amplifier trigger packet of a reflection attack.
func (n *Network) SendSpoofed(origin netaddr.Addr, victim netaddr.Addr, victimPort uint16, dst netaddr.Addr, dstPort uint16, ttl uint8, payload []byte) bool {
	return n.sendScratchFrom(origin, victim, victimPort, dst, dstPort, ttl, payload)
}

// sendScratchFrom assembles the datagram in the network's scratch struct and
// injects it. The payload reference is dropped afterwards so the fabric never
// pins a sender's buffer.
func (n *Network) sendScratchFrom(origin, src netaddr.Addr, srcPort uint16, dst netaddr.Addr, dstPort uint16, ttl uint8, payload []byte) bool {
	dg := &n.sendScratch
	dg.IP = packet.IPv4{TTL: ttl, Protocol: packet.ProtocolUDP, Src: src, Dst: dst}
	dg.UDP = packet.UDP{SrcPort: srcPort, DstPort: dstPort}
	dg.Payload = payload
	dg.Rep = 1
	ok := n.SendFrom(origin, dg)
	dg.Payload = nil
	return ok
}

// OS default initial TTLs — the fingerprints behind the paper's observation
// that scanners look like Linux (TTL mode 54) while attack spoofers look
// like Windows bots (TTL mode 109).
const (
	TTLLinux   = 64
	TTLWindows = 128
)
