// Client-side mode 3/4 synchronization codec: the poll request a
// disciplined client emits, the hardened decoder for the mode 4 reply it
// gets back, and the kiss-o'-death (KoD) vocabulary of RFC 5905 §7.4 —
// stratum-0 replies whose reference ID carries a four-character ASCII code
// telling the client to back off (RATE) or go away (DENY/RSTR). Forged KoD
// packets are CVE-2015-7704/7705: clients that honor kiss codes without
// validating the origin timestamp can be silenced by an off-path attacker,
// which is exactly the attack internal/timeattack models.
package ntp

import (
	"errors"
	"time"
)

// Kiss-o'-death codes the sync discipline reacts to. Any other printable
// code decodes cleanly and is passed through for the client to ignore.
const (
	KissRATE = "RATE" // reduce poll rate (client backs off its poll interval)
	KissDENY = "DENY" // access denied (client must stop the association)
	KissRSTR = "RSTR" // access restricted (treated like DENY by the discipline)
)

// ErrBadReply marks a structurally-valid header that cannot be a usable
// mode 4 reply: bad version, zero transmit timestamp, impossible stratum,
// or a stratum-0 packet whose reference ID is not a printable kiss code.
var ErrBadReply = errors.New("ntp: malformed server reply")

// FromNTPTime converts a 64-bit NTP timestamp back to a wall-clock instant.
// The inverse of ToNTPTime for timestamps within the simulated window.
func FromNTPTime(ts uint64) time.Time {
	secs := int64(ts>>32) - Era
	frac := ts & 0xffffffff
	return time.Unix(secs, int64(frac*1e9>>32)).UTC()
}

// NTPToUnixNano converts a 64-bit NTP timestamp to Unix nanoseconds. It
// equals FromNTPTime(ts).UnixNano() for every timestamp: era 0 runs from
// 1900 to 2036, well inside the ±292 years int64 nanoseconds span.
func NTPToUnixNano(ts uint64) int64 {
	return (int64(ts>>32)-Era)*1e9 + int64((ts&0xffffffff)*1e9>>32)
}

// NewPollRequest builds the mode 3 poll a disciplined client sends. The
// transmit timestamp doubles as the origin cookie: a genuine reply must echo
// xmt in its origin field, which is what defeats blind off-path spoofing.
func NewPollRequest(poll int8, xmt uint64) Header {
	return Header{Version: 4, Mode: ModeClient, Poll: poll, Precision: -20,
		TransmitTime: xmt}
}

// KissRefID packs a kiss code ("RATE", "DENY", ...) into the reference-ID
// word of a stratum-0 reply. Codes shorter than four characters are padded
// with NULs, longer ones truncated — matching ntpd's refid handling.
func KissRefID(code string) uint32 {
	var id uint32
	for i := 0; i < 4; i++ {
		id <<= 8
		if i < len(code) {
			id |= uint32(code[i])
		}
	}
	return id
}

// kissFromRefID recovers the printable kiss code from a stratum-0 reference
// ID, or "" when the word is not a plausible code (which makes the packet
// malformed rather than a KoD).
func kissFromRefID(id uint32) string {
	var buf [4]byte
	n := 0
	for i := 0; i < 4; i++ {
		c := byte(id >> (24 - 8*i))
		if c == 0 {
			break
		}
		if c < 0x21 || c > 0x7e {
			return ""
		}
		buf[i] = c
		n = i + 1
	}
	if n == 0 {
		return ""
	}
	return string(buf[:n])
}

// NewKissReply builds the stratum-0 kiss-o'-death reply a server (or a
// CVE-2015-7704-style forger) sends: leap alarm, the code in the reference
// ID, and the claimed origin echo.
func NewKissReply(origin uint64, code string, now time.Time) Header {
	return Header{
		LeapIndicator: 3, // unsynchronized: KoD packets carry the alarm bits
		Version:       4,
		Mode:          ModeServer,
		Stratum:       0,
		ReferenceID:   KissRefID(code),
		OriginTime:    origin,
		ReceiveTime:   ToNTPTime(now),
		TransmitTime:  ToNTPTime(now),
	}
}

// SyncReply is a decoded, structurally-validated mode 4 reply. Kiss is
// non-empty exactly when the packet is a stratum-0 kiss-o'-death.
type SyncReply struct {
	Header
	Kiss string
}

// DecodeSyncReply parses and hardens a candidate mode 4 reply. It rejects
// truncated packets, wrong modes, impossible versions and strata, zero
// transmit timestamps, and stratum-0 packets without a printable kiss code —
// the malformed-reply surface a client exposed to attacker packets must
// survive. Trailing bytes (extension fields, MACs) are ignored. The reply
// is returned by value, so decoding a genuine one allocates nothing; on
// error it is the zero SyncReply.
func DecodeSyncReply(data []byte) (SyncReply, error) {
	var r SyncReply
	if err := r.DecodeFromBytes(data); err != nil {
		return SyncReply{}, err
	}
	if r.Mode != ModeServer {
		return SyncReply{}, ErrBadMode
	}
	if r.Version < 1 || r.Version > 4 {
		return SyncReply{}, ErrBadReply
	}
	if r.Stratum == 0 {
		r.Kiss = kissFromRefID(r.ReferenceID)
		if r.Kiss == "" {
			return SyncReply{}, ErrBadReply
		}
		return r, nil
	}
	if r.Stratum > StratumUnsynchronized {
		return SyncReply{}, ErrBadReply
	}
	if r.TransmitTime == 0 {
		return SyncReply{}, ErrBadReply
	}
	return r, nil
}

// CheckOrigin reports whether the reply echoes the request's transmit
// cookie — the RFC 5905 test an off-path spoofer cannot pass blind.
// Vulnerable clients in the simulation skip this check.
func (r *SyncReply) CheckOrigin(xmt uint64) bool {
	return xmt != 0 && r.OriginTime == xmt
}
