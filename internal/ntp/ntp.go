// Package ntp implements the Network Time Protocol wire formats the paper's
// measurement machinery depends on:
//
//   - the 48-byte mode 3/4 client/server header (RFC 5905) used by normal
//     time synchronization traffic and by our stratum analysis;
//   - the mode 7 "private" protocol of ntpdc, whose MON_GETLIST/MON_GETLIST_1
//     (monlist) request is the amplification vector the paper studies;
//   - the mode 6 "control" protocol of ntpq, whose read-variables (version)
//     request is the secondary vector of §3.3.
//
// Layouts mirror the semantics of ntp_request.h / RFC 1305 appendix B: the
// monlist response is fragmented into packets carrying at most 500 bytes of
// item data (6 entries of 72 bytes for GETLIST_1, 20 entries of 24 bytes for
// the legacy GETLIST), and mode 6 responses fragment with offset/count
// bookkeeping — these fragmentation rules are what make a 600-entry monlist
// table worth ~100 response packets to an attacker.
package ntp

import (
	"encoding/binary"
	"errors"
	"time"

	"ntpddos/internal/netaddr"
)

// Port is the well-known NTP UDP port.
const Port = 123

// NTP association modes.
const (
	ModeReserved   = 0
	ModeSymActive  = 1
	ModeSymPassive = 2
	ModeClient     = 3
	ModeServer     = 4
	ModeBroadcast  = 5
	ModeControl    = 6 // ntpq: version/readvar — the §3.3 vector
	ModePrivate    = 7 // ntpdc: monlist — the paper's primary vector
)

// VersionNumber is the protocol version our packets carry. ntpdc mode 7
// traffic conventionally uses version 2 regardless of the daemon version.
const VersionNumber = 2

// StratumUnsynchronized is the stratum value (16) that marks a server as not
// synchronized to any time source — §3.3 finds a comical 19% of the global
// NTP population in this state.
const StratumUnsynchronized = 16

// Era is the offset between the NTP timestamp epoch (1900) and Unix (1970).
const Era = 2208988800

// Errors shared by the decoders.
var (
	ErrTruncated = errors.New("ntp: truncated packet")
	ErrBadMode   = errors.New("ntp: unexpected mode")
)

// Mode extracts the association mode from the first byte of any NTP packet,
// which is how a traffic classifier (our darknet, the ISP taps) bins NTP
// packets without deeper parsing.
func Mode(payload []byte) (int, bool) {
	if len(payload) == 0 {
		return 0, false
	}
	return int(payload[0] & 0x07), true
}

// Header is the 48-byte mode 3/4/5 NTP header of RFC 5905.
type Header struct {
	LeapIndicator  uint8 // 2 bits
	Version        uint8 // 3 bits
	Mode           uint8 // 3 bits
	Stratum        uint8
	Poll           int8
	Precision      int8
	RootDelay      uint32
	RootDispersion uint32
	ReferenceID    uint32
	ReferenceTime  uint64
	OriginTime     uint64
	ReceiveTime    uint64
	TransmitTime   uint64
}

// HeaderLen is the encoded size of Header.
const HeaderLen = 48

// ToNTPTime converts a wall-clock instant to a 64-bit NTP timestamp.
func ToNTPTime(t time.Time) uint64 {
	secs := uint64(t.Unix() + Era)
	frac := uint64(t.Nanosecond()) << 32 / 1e9
	return secs<<32 | frac
}

// UnixNanoToNTP converts an instant given as Unix nanoseconds to a 64-bit
// NTP timestamp. It equals ToNTPTime(time.Unix(0, ns)) for every int64:
// instants before 1970 floor to the second below, as Time.Unix does.
func UnixNanoToNTP(ns int64) uint64 {
	secs, nsec := ns/1e9, ns%1e9
	if nsec < 0 {
		secs--
		nsec += 1e9
	}
	return uint64(secs+Era)<<32 | uint64(nsec)<<32/1e9
}

// AppendTo serializes the header.
func (h *Header) AppendTo(b []byte) []byte {
	b = append(b, h.LeapIndicator<<6|h.Version<<3|h.Mode,
		h.Stratum, byte(h.Poll), byte(h.Precision))
	b = binary.BigEndian.AppendUint32(b, h.RootDelay)
	b = binary.BigEndian.AppendUint32(b, h.RootDispersion)
	b = binary.BigEndian.AppendUint32(b, h.ReferenceID)
	b = binary.BigEndian.AppendUint64(b, h.ReferenceTime)
	b = binary.BigEndian.AppendUint64(b, h.OriginTime)
	b = binary.BigEndian.AppendUint64(b, h.ReceiveTime)
	b = binary.BigEndian.AppendUint64(b, h.TransmitTime)
	return b
}

// DecodeFromBytes parses a 48-byte header.
func (h *Header) DecodeFromBytes(data []byte) error {
	if len(data) < HeaderLen {
		return ErrTruncated
	}
	h.LeapIndicator = data[0] >> 6
	h.Version = data[0] >> 3 & 0x07
	h.Mode = data[0] & 0x07
	h.Stratum = data[1]
	h.Poll = int8(data[2])
	h.Precision = int8(data[3])
	h.RootDelay = binary.BigEndian.Uint32(data[4:])
	h.RootDispersion = binary.BigEndian.Uint32(data[8:])
	h.ReferenceID = binary.BigEndian.Uint32(data[12:])
	h.ReferenceTime = binary.BigEndian.Uint64(data[16:])
	h.OriginTime = binary.BigEndian.Uint64(data[24:])
	h.ReceiveTime = binary.BigEndian.Uint64(data[32:])
	h.TransmitTime = binary.BigEndian.Uint64(data[40:])
	return nil
}

// NewClientRequest builds a mode 3 client request with the transmit
// timestamp set from now.
func NewClientRequest(now time.Time) *Header {
	h := &Header{}
	h.SetClientRequest(now)
	return h
}

// SetClientRequest overwrites h with a mode 3 client request — the scratch
// counterpart of NewClientRequest for hot paths that reuse one Header.
func (h *Header) SetClientRequest(now time.Time) {
	*h = Header{Version: 4, Mode: ModeClient, Poll: 6, Precision: -20,
		TransmitTime: ToNTPTime(now)}
}

// NewServerReply builds the mode 4 reply a server with the given stratum
// sends to req.
func NewServerReply(req *Header, stratum uint8, now time.Time) *Header {
	h := &Header{}
	h.SetServerReply(req, stratum, now)
	return h
}

// SetServerReply overwrites h with the mode 4 reply to req — the scratch
// counterpart of NewServerReply. req may alias h.
func (h *Header) SetServerReply(req *Header, stratum uint8, now time.Time) {
	ts := ToNTPTime(now)
	li := uint8(0)
	if stratum == StratumUnsynchronized {
		li = 3 // alarm condition: clock not synchronized
	}
	*h = Header{
		LeapIndicator: li,
		Version:       req.Version,
		Mode:          ModeServer,
		Stratum:       stratum,
		Poll:          req.Poll,
		Precision:     -20,
		OriginTime:    req.TransmitTime,
		ReceiveTime:   ts,
		TransmitTime:  ts,
	}
}

// AddrToWire converts a netaddr.Addr to the network byte order uint32 used
// inside monlist entries.
func AddrToWire(a netaddr.Addr) uint32 { return uint32(a) }

// AddrFromWire converts a wire uint32 back to a netaddr.Addr.
func AddrFromWire(u uint32) netaddr.Addr { return netaddr.Addr(u) }
