// Package netflow implements the NetFlow v5 export format and a flow-cache
// exporter — the substrate behind the paper's global dataset: "Arbor
// Networks collects traffic data, via appliances that export network flow
// statistics" (§2.1). The regional views can export their traffic as real
// v5 datagrams, and a collector reassembles per-protocol volume from them.
//
// Wire format per Cisco's spec: a 24-byte header followed by up to 30
// 48-byte flow records.
package netflow

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"ntpddos/internal/netaddr"
	"ntpddos/internal/packet"
)

// Version is the only export version this package speaks.
const Version = 5

// HeaderLen and RecordLen are the fixed v5 sizes.
const (
	HeaderLen  = 24
	RecordLen  = 48
	MaxRecords = 30
)

// Record is one v5 flow record.
type Record struct {
	SrcAddr  netaddr.Addr
	DstAddr  netaddr.Addr
	NextHop  netaddr.Addr
	Packets  uint32
	Octets   uint32
	First    uint32 // sysUptime ms at flow start
	Last     uint32 // sysUptime ms at flow end
	SrcPort  uint16
	DstPort  uint16
	TCPFlags uint8
	Protocol uint8
	TOS      uint8
	SrcAS    uint16
	DstAS    uint16
}

// Header is the v5 export header.
type Header struct {
	Count            uint16
	SysUptimeMs      uint32
	UnixSecs         uint32
	UnixNsecs        uint32
	FlowSequence     uint32
	EngineType       uint8
	EngineID         uint8
	SamplingInterval uint16
}

// Errors.
var (
	ErrTruncated  = errors.New("netflow: truncated export")
	ErrBadVersion = errors.New("netflow: not a v5 export")
)

// Encode serializes a header plus records into one export datagram.
func Encode(h Header, records []Record) ([]byte, error) {
	if len(records) > MaxRecords {
		return nil, fmt.Errorf("netflow: %d records exceed the v5 limit of %d", len(records), MaxRecords)
	}
	h.Count = uint16(len(records))
	b := make([]byte, 0, HeaderLen+len(records)*RecordLen)
	b = binary.BigEndian.AppendUint16(b, Version)
	b = binary.BigEndian.AppendUint16(b, h.Count)
	b = binary.BigEndian.AppendUint32(b, h.SysUptimeMs)
	b = binary.BigEndian.AppendUint32(b, h.UnixSecs)
	b = binary.BigEndian.AppendUint32(b, h.UnixNsecs)
	b = binary.BigEndian.AppendUint32(b, h.FlowSequence)
	b = append(b, h.EngineType, h.EngineID)
	b = binary.BigEndian.AppendUint16(b, h.SamplingInterval)
	for _, r := range records {
		b = binary.BigEndian.AppendUint32(b, uint32(r.SrcAddr))
		b = binary.BigEndian.AppendUint32(b, uint32(r.DstAddr))
		b = binary.BigEndian.AppendUint32(b, uint32(r.NextHop))
		b = binary.BigEndian.AppendUint16(b, 0) // input ifindex
		b = binary.BigEndian.AppendUint16(b, 0) // output ifindex
		b = binary.BigEndian.AppendUint32(b, r.Packets)
		b = binary.BigEndian.AppendUint32(b, r.Octets)
		b = binary.BigEndian.AppendUint32(b, r.First)
		b = binary.BigEndian.AppendUint32(b, r.Last)
		b = binary.BigEndian.AppendUint16(b, r.SrcPort)
		b = binary.BigEndian.AppendUint16(b, r.DstPort)
		b = append(b, 0, r.TCPFlags, r.Protocol, r.TOS)
		b = binary.BigEndian.AppendUint16(b, r.SrcAS)
		b = binary.BigEndian.AppendUint16(b, r.DstAS)
		b = append(b, 0, 0, 0, 0) // masks + pad
	}
	return b, nil
}

// Decode parses one export datagram.
func Decode(data []byte) (Header, []Record, error) {
	var h Header
	if len(data) < HeaderLen {
		return h, nil, ErrTruncated
	}
	if binary.BigEndian.Uint16(data) != Version {
		return h, nil, ErrBadVersion
	}
	h.Count = binary.BigEndian.Uint16(data[2:])
	h.SysUptimeMs = binary.BigEndian.Uint32(data[4:])
	h.UnixSecs = binary.BigEndian.Uint32(data[8:])
	h.UnixNsecs = binary.BigEndian.Uint32(data[12:])
	h.FlowSequence = binary.BigEndian.Uint32(data[16:])
	h.EngineType = data[20]
	h.EngineID = data[21]
	h.SamplingInterval = binary.BigEndian.Uint16(data[22:])
	want := HeaderLen + int(h.Count)*RecordLen
	if len(data) < want {
		return h, nil, fmt.Errorf("%w: %d records need %d bytes, have %d",
			ErrTruncated, h.Count, want, len(data))
	}
	records := make([]Record, h.Count)
	for i := range records {
		off := HeaderLen + i*RecordLen
		rec := data[off:]
		records[i] = Record{
			SrcAddr:  netaddr.Addr(binary.BigEndian.Uint32(rec[0:])),
			DstAddr:  netaddr.Addr(binary.BigEndian.Uint32(rec[4:])),
			NextHop:  netaddr.Addr(binary.BigEndian.Uint32(rec[8:])),
			Packets:  binary.BigEndian.Uint32(rec[16:]),
			Octets:   binary.BigEndian.Uint32(rec[20:]),
			First:    binary.BigEndian.Uint32(rec[24:]),
			Last:     binary.BigEndian.Uint32(rec[28:]),
			SrcPort:  binary.BigEndian.Uint16(rec[32:]),
			DstPort:  binary.BigEndian.Uint16(rec[34:]),
			TCPFlags: rec[37],
			Protocol: rec[38],
			TOS:      rec[39],
			SrcAS:    binary.BigEndian.Uint16(rec[40:]),
			DstAS:    binary.BigEndian.Uint16(rec[42:]),
		}
	}
	return h, records, nil
}

// flowKey identifies a flow-cache entry.
type flowKey struct {
	src, dst         netaddr.Addr
	srcPort, dstPort uint16
	proto            uint8
}

type flowState struct {
	packets uint64
	octets  uint64
	first   time.Time
	last    time.Time
}

// Exporter is a flow cache in front of a v5 emitter: packets aggregate into
// flows, and flows are flushed when idle (InactiveTimeout), long-lived
// (ActiveTimeout) or on demand — the standard router behaviour.
type Exporter struct {
	// Emit receives encoded v5 export datagrams.
	Emit func(datagram []byte)
	// Boot anchors the sysUptime clock.
	Boot time.Time
	// ActiveTimeout and InactiveTimeout control flushing.
	ActiveTimeout   time.Duration
	InactiveTimeout time.Duration

	cache   map[flowKey]*flowState
	pending []Record
	seq     uint32
	now     time.Time
}

// NewExporter builds an exporter with the Cisco default timeouts
// (30 minutes active, 15 seconds inactive).
func NewExporter(boot time.Time, emit func([]byte)) *Exporter {
	return &Exporter{
		Emit: emit, Boot: boot,
		ActiveTimeout: 30 * time.Minute, InactiveTimeout: 15 * time.Second,
		cache: make(map[flowKey]*flowState),
	}
}

// ObserveTrain implements netsim.Tap: each payload is accounted in order,
// as its own datagram, with its own Rep.
func (e *Exporter) ObserveTrain(hdr *packet.Datagram, payloads [][]byte, reps []int64, now time.Time) {
	for i, p := range payloads {
		e.observe(hdr, len(p), reps[i], now)
	}
}

// observe accounts rep datagrams with hdr's addressing and a UDP payload of
// payloadLen bytes.
func (e *Exporter) observe(hdr *packet.Datagram, payloadLen int, rep int64, now time.Time) {
	e.advance(now)
	key := flowKey{src: hdr.IP.Src, dst: hdr.IP.Dst,
		srcPort: hdr.UDP.SrcPort, dstPort: hdr.UDP.DstPort, proto: hdr.IP.Protocol}
	f, ok := e.cache[key]
	if !ok {
		f = &flowState{first: now}
		e.cache[key] = f
	}
	f.packets += uint64(rep)
	f.octets += uint64(packet.IPv4HeaderLen+packet.UDPHeaderLen+payloadLen) * uint64(rep)
	f.last = now
}

// advance expires flows against the new time.
func (e *Exporter) advance(now time.Time) {
	if now.Before(e.now) {
		now = e.now
	}
	e.now = now
	for key, f := range e.cache {
		if now.Sub(f.last) > e.InactiveTimeout || now.Sub(f.first) > e.ActiveTimeout {
			e.expire(key, f)
		}
	}
	e.flushPending(false)
}

// expire converts a cache entry to pending records (splitting counters that
// overflow the 32-bit v5 fields, as real exporters do).
func (e *Exporter) expire(key flowKey, f *flowState) {
	delete(e.cache, key)
	packets, octets := f.packets, f.octets
	for packets > 0 || octets > 0 {
		p := packets
		if p > 1<<32-1 {
			p = 1<<32 - 1
		}
		o := octets
		if o > 1<<32-1 {
			o = 1<<32 - 1
		}
		e.pending = append(e.pending, Record{
			SrcAddr: key.src, DstAddr: key.dst,
			SrcPort: key.srcPort, DstPort: key.dstPort, Protocol: key.proto,
			Packets: uint32(p), Octets: uint32(o),
			First: e.uptimeMs(f.first), Last: e.uptimeMs(f.last),
		})
		packets -= p
		octets -= o
	}
}

func (e *Exporter) uptimeMs(t time.Time) uint32 {
	return uint32(t.Sub(e.Boot) / time.Millisecond)
}

// flushPending emits full export datagrams; when force is set, partial ones
// too.
func (e *Exporter) flushPending(force bool) {
	for len(e.pending) >= MaxRecords || (force && len(e.pending) > 0) {
		n := len(e.pending)
		if n > MaxRecords {
			n = MaxRecords
		}
		batch := e.pending[:n]
		e.pending = e.pending[n:]
		h := Header{
			SysUptimeMs:  e.uptimeMs(e.now),
			UnixSecs:     uint32(e.now.Unix()),
			UnixNsecs:    uint32(e.now.Nanosecond()),
			FlowSequence: e.seq,
		}
		e.seq += uint32(n)
		if dg, err := Encode(h, batch); err == nil && e.Emit != nil {
			e.Emit(dg)
		}
	}
}

// Flush expires everything and emits all pending records.
func (e *Exporter) Flush(now time.Time) {
	e.advance(now)
	for key, f := range e.cache {
		e.expire(key, f)
	}
	e.flushPending(true)
}

// CacheLen reports live flows (for tests and monitoring).
func (e *Exporter) CacheLen() int { return len(e.cache) }

// Collector tallies decoded exports back into per-port byte counts — the
// consumer side an analytics vendor runs.
type Collector struct {
	Flows     int64
	Packets   int64
	Octets    int64
	ByDstPort map[uint16]int64
	LastSeq   uint32
	// SeqGaps counts exports that arrived with a sequence number ahead of
	// the expected one (flows lost in transit); Reordered counts exports
	// that arrived behind it (late, duplicated, or out-of-order datagrams —
	// UDP transport makes all three routine). A reordered export still has
	// its records accumulated; real collectors cannot tell a retransmit
	// from a late first arrival without keeping a full sequence window.
	SeqGaps     int64
	Reordered   int64
	seqExpected uint32
	started     bool
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{ByDstPort: make(map[uint16]int64)}
}

// Ingest decodes one export datagram and accumulates it, tracking flow
// sequence gaps (lost exports) like a real collector.
func (c *Collector) Ingest(datagram []byte) error {
	h, records, err := Decode(datagram)
	if err != nil {
		return err
	}
	if c.started && h.FlowSequence != c.seqExpected {
		// Signed distance classifies the miss: ahead means flows were lost
		// upstream, behind means this export is late or duplicated.
		if int32(h.FlowSequence-c.seqExpected) > 0 {
			c.SeqGaps++
		} else {
			c.Reordered++
		}
	}
	if !c.started || int32(h.FlowSequence-c.seqExpected) >= 0 {
		// Late arrivals do not move the expectation: the next in-order
		// export after a reordered one should not count as a second gap.
		c.seqExpected = h.FlowSequence + uint32(len(records))
		c.LastSeq = h.FlowSequence
	}
	c.started = true
	for _, r := range records {
		c.Flows++
		c.Packets += int64(r.Packets)
		c.Octets += int64(r.Octets)
		c.ByDstPort[r.DstPort] += int64(r.Octets)
	}
	return nil
}
