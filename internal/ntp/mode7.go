package ntp

import (
	"encoding/binary"
	"fmt"

	"ntpddos/internal/netaddr"
)

// Mode 7 (ntpdc private protocol) constants, following ntp_request.h.
const (
	// Implementation numbers. The paper (§3.1) notes ntpdc tries two
	// implementation values one at a time, and that the ONP scans only used
	// one of them — a source of amplifier under-counting we reproduce.
	ImplUniv     = 0
	ImplXNTPDOld = 2
	ImplXNTPD    = 3

	// Request codes.
	ReqPeerList    = 0  // peer list: the "showpeers" data, low amplification
	ReqMonGetList  = 20 // legacy monlist, 24-byte entries
	ReqMonGetList1 = 42 // monlist_1, 72-byte entries — the attack favourite

	// Error codes carried in the err field of responses.
	InfoOK        = 0
	InfoErrImpl   = 1 // implementation number mismatch
	InfoErrReq    = 2 // unknown request code
	InfoErrFmt    = 3 // format error
	InfoErrNoData = 4 // no data available (empty monitor table)

	// Mode7HeaderLen is the fixed request/response header size.
	Mode7HeaderLen = 8

	// MaxItemData is the item-data budget per response packet; ntpd packs
	// at most 500 bytes of items into one mode 7 fragment.
	MaxItemData = 500

	// MonEntrySizeV1 is the MON_GETLIST_1 item size (info_monitor_1).
	MonEntrySizeV1 = 72
	// MonEntrySizeLegacy is the MON_GETLIST item size (info_monitor).
	MonEntrySizeLegacy = 24
	// PeerEntrySize is the REQ_PEER_LIST item size (info_peer_list).
	PeerEntrySize = 8

	// MaxMonlistEntries is the monitor-table cap: "the maximum number of
	// table entries that the monlist command returns (which we've confirmed
	// empirically) is 600".
	MaxMonlistEntries = 600
)

// EntriesPerPacket returns how many items of the given size fit in one
// response fragment.
func EntriesPerPacket(itemSize int) int {
	if itemSize <= 0 {
		panic("ntp: non-positive item size")
	}
	return MaxItemData / itemSize
}

// Mode7 is a parsed private-mode packet.
type Mode7 struct {
	Response       bool
	More           bool
	Sequence       uint8 // 0..127, fragment sequence for responses
	Implementation uint8
	Request        uint8
	Err            uint8
	NItems         uint16 // 12 bits on the wire
	ItemSize       uint16 // 12 bits on the wire
	Data           []byte
}

// AppendTo serializes the packet.
func (m *Mode7) AppendTo(b []byte) []byte {
	b0 := byte(VersionNumber<<3 | ModePrivate)
	if m.Response {
		b0 |= 0x80
	}
	if m.More {
		b0 |= 0x40
	}
	b = append(b, b0, m.Sequence&0x7f, m.Implementation, m.Request)
	b = binary.BigEndian.AppendUint16(b, uint16(m.Err&0x0f)<<12|m.NItems&0x0fff)
	b = binary.BigEndian.AppendUint16(b, m.ItemSize&0x0fff)
	return append(b, m.Data...)
}

// DecodeMode7 parses a private-mode packet.
func DecodeMode7(payload []byte) (*Mode7, error) {
	m := &Mode7{}
	if err := m.DecodeFromBytes(payload); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeFromBytes parses a private-mode packet into the receiver without
// allocating: Data aliases payload and the prior contents of m are
// overwritten, so one scratch Mode7 can classify an entire packet stream.
func (m *Mode7) DecodeFromBytes(payload []byte) error {
	if len(payload) < Mode7HeaderLen {
		return ErrTruncated
	}
	if payload[0]&0x07 != ModePrivate {
		return ErrBadMode
	}
	*m = Mode7{
		Response:       payload[0]&0x80 != 0,
		More:           payload[0]&0x40 != 0,
		Sequence:       payload[1] & 0x7f,
		Implementation: payload[2],
		Request:        payload[3],
	}
	en := binary.BigEndian.Uint16(payload[4:])
	m.Err = uint8(en >> 12)
	m.NItems = en & 0x0fff
	m.ItemSize = binary.BigEndian.Uint16(payload[6:]) & 0x0fff
	m.Data = payload[Mode7HeaderLen:]
	if int(m.NItems)*int(m.ItemSize) > len(m.Data) {
		return fmt.Errorf("%w: %d items of %d bytes in %d data bytes",
			ErrTruncated, m.NItems, m.ItemSize, len(m.Data))
	}
	return nil
}

// NewMonlistRequest builds the canonical 8-byte monlist probe — the packet
// attack scripts, zmap probes and the ONP scanner all send. It fits inside
// the 64-byte minimum Ethernet frame, which is why the BAF denominator is
// always 84 on-wire bytes.
func NewMonlistRequest(impl, reqCode uint8) []byte {
	m := Mode7{Implementation: impl, Request: reqCode}
	return m.AppendTo(make([]byte, 0, Mode7HeaderLen))
}

// RequestDataLen is the zero-padded data area of a full ntpdc request
// packet (ntp_request.h pads requests to a 40-byte data field).
const RequestDataLen = 40

// NewMonlistRequestPadded builds the 48-byte ntpdc-style request (8-byte
// header plus the zeroed 40-byte data area). Booters commonly reuse
// ntpdc-derived code, so their triggers carry this padding — which is why
// locally-measured UDP *payload* amplification ratios (§7, footnote 3) are
// several times smaller than the ONP probe's on-wire BAF.
func NewMonlistRequestPadded(impl, reqCode uint8) []byte {
	m := Mode7{Implementation: impl, Request: reqCode,
		Data: make([]byte, RequestDataLen)}
	return m.AppendTo(make([]byte, 0, Mode7HeaderLen+RequestDataLen))
}

// MonEntry is one monitor-table item — the paper's Table 3 row. Fields mirror
// the semantics of ntpd's info_monitor_1: who talked to this server, how
// much, in what mode, and how recently. For DDoS victims the Addr is the
// *spoofed* source, i.e. the victim.
type MonEntry struct {
	Addr        netaddr.Addr // remote address (client or spoofed victim)
	DAddr       netaddr.Addr // local destination address
	Count       uint32       // packets received from Addr
	Mode        uint8        // client's association mode (3/4 normal; 6/7 abuse)
	Version     uint8
	Port        uint16 // client source port — the victim's attacked port
	AvgInterval uint32 // average inter-arrival time, seconds
	LastSeen    uint32 // seconds since last packet from Addr
	Restr       uint32 // restriction flags
}

// MonLastSeenOffset is where LastSeen sits within an item of either layout:
// the one field that changes with the time of the query alone, so a cached
// item is brought up to date by rewriting these four bytes.
const MonLastSeenOffset = 4

// MonlistItemSize returns the item size of a monlist request code:
// MonEntrySizeLegacy for ReqMonGetList and MonEntrySizeV1 otherwise.
func MonlistItemSize(reqCode uint8) int {
	if reqCode == ReqMonGetList {
		return MonEntrySizeLegacy
	}
	return MonEntrySizeV1
}

// PutItem encodes e into item, whose length selects the layout: the 72-byte
// MON_GETLIST_1 info_monitor_1 or the 24-byte MON_GETLIST info_monitor. Every
// byte of item is written.
func (e *MonEntry) PutItem(item []byte) {
	binary.BigEndian.PutUint32(item[0:], e.AvgInterval)
	binary.BigEndian.PutUint32(item[MonLastSeenOffset:], e.LastSeen)
	binary.BigEndian.PutUint32(item[8:], e.Restr)
	binary.BigEndian.PutUint32(item[12:], e.Count)
	binary.BigEndian.PutUint32(item[16:], AddrToWire(e.Addr))
	if len(item) == MonEntrySizeLegacy {
		binary.BigEndian.PutUint16(item[20:], e.Port)
		item[22], item[23] = e.Mode, e.Version
		return
	}
	binary.BigEndian.PutUint32(item[20:], AddrToWire(e.DAddr))
	binary.BigEndian.PutUint32(item[24:], 0) // flags
	binary.BigEndian.PutUint16(item[28:], e.Port)
	item[30], item[31] = e.Mode, e.Version
	// v6_flag, unused, then addr6 and daddr6, all zero in IPv4 entries.
	clear(item[32:MonEntrySizeV1])
}

// decodeEntry parses one item of the given size.
func decodeEntry(data []byte, itemSize int) (MonEntry, error) {
	var e MonEntry
	if len(data) < itemSize {
		return e, ErrTruncated
	}
	switch itemSize {
	case MonEntrySizeV1:
		e.AvgInterval = binary.BigEndian.Uint32(data[0:])
		e.LastSeen = binary.BigEndian.Uint32(data[4:])
		e.Restr = binary.BigEndian.Uint32(data[8:])
		e.Count = binary.BigEndian.Uint32(data[12:])
		e.Addr = AddrFromWire(binary.BigEndian.Uint32(data[16:]))
		e.DAddr = AddrFromWire(binary.BigEndian.Uint32(data[20:]))
		e.Port = binary.BigEndian.Uint16(data[28:])
		e.Mode = data[30]
		e.Version = data[31]
	case MonEntrySizeLegacy:
		e.AvgInterval = binary.BigEndian.Uint32(data[0:])
		e.LastSeen = binary.BigEndian.Uint32(data[4:])
		e.Restr = binary.BigEndian.Uint32(data[8:])
		e.Count = binary.BigEndian.Uint32(data[12:])
		e.Addr = AddrFromWire(binary.BigEndian.Uint32(data[16:]))
		e.Port = binary.BigEndian.Uint16(data[20:])
		e.Mode = data[22]
		e.Version = data[23]
	default:
		return e, fmt.Errorf("ntp: unsupported monlist item size %d", itemSize)
	}
	return e, nil
}

// BuildMonlistResponse fragments entries into mode 7 response packets for
// the given request code (which fixes the item size). An empty table yields
// a single InfoErrNoData response, as ntpd does. Entries beyond the 600-item
// table cap must be trimmed by the caller (the daemon), not here: this
// function is pure wire formatting.
func BuildMonlistResponse(entries []MonEntry, impl, reqCode uint8) [][]byte {
	frags := FrameMonlistResponse(nil, len(entries), impl, reqCode)
	size := MonlistItemSize(reqCode)
	for p := range entries {
		entries[p].PutItem(MonlistItem(frags, p, size))
	}
	return frags
}

// FrameMonlistResponse sizes frags for an n-item response to reqCode and
// writes every fragment header, leaving the item bytes of each reused buffer
// as they were: item p of the previous framing with the same request code is
// still at MonlistItem(frags, p, size) if it is still inside the response.
// The caller writes each item at its position. n == 0 frames the single
// InfoErrNoData fragment.
//
// The returned slice reuses frags' backing array and its buffers, including
// those past len(frags) left by an earlier larger framing, so a daemon that
// re-encodes its table in place produces no garbage. A missing buffer, or
// one too small for its fragment (sized for the other item layout), is
// replaced by a new one at the full-fragment capacity that starts with the
// old one's bytes, so those stay where they were.
func FrameMonlistResponse(frags [][]byte, n int, impl, reqCode uint8) [][]byte {
	size := MonlistItemSize(reqCode)
	per := EntriesPerPacket(size)
	fragCap := Mode7HeaderLen + per*size
	nfrags := max(1, (n+per-1)/per)
	// Index f of spare is read before out's append overwrites it.
	spare := frags[:cap(frags)]
	out := frags[:0]
	for f := 0; f < nfrags; f++ {
		items := min(per, n-f*per)
		m := Mode7{
			Response:       true,
			More:           f < nfrags-1,
			Sequence:       uint8(f % 128),
			Implementation: impl,
			Request:        reqCode,
			NItems:         uint16(items),
			ItemSize:       uint16(size),
		}
		if n == 0 {
			m.Err, m.NItems, m.ItemSize = InfoErrNoData, 0, 0
		}
		need := Mode7HeaderLen + items*size
		var buf []byte
		if f < len(spare) {
			buf = spare[f]
		}
		if cap(buf) < need {
			buf = append(make([]byte, 0, fragCap), buf[:cap(buf)]...)
		}
		// AppendTo writes the header over the first eight bytes in place;
		// the item bytes behind it stay untouched.
		out = append(out, m.AppendTo(buf[:0])[:need])
	}
	return out
}

// MonlistItems returns the item bytes of one fragment framed by
// FrameMonlistResponse: its NItems items, packed behind the header.
func MonlistItems(frag []byte) []byte { return frag[Mode7HeaderLen:] }

// MonlistItem returns the size bytes of item p, counted from the first item
// of the first fragment, in fragments framed by FrameMonlistResponse for
// size-byte items.
func MonlistItem(frags [][]byte, p, size int) []byte {
	// Constant unsigned divisors: a rebuild calls this for every item it
	// shifts.
	var f, k uint
	if size == MonEntrySizeV1 {
		f, k = uint(p)/(MaxItemData/MonEntrySizeV1), uint(p)%(MaxItemData/MonEntrySizeV1)
	} else {
		f, k = uint(p)/(MaxItemData/MonEntrySizeLegacy), uint(p)%(MaxItemData/MonEntrySizeLegacy)
	}
	off := Mode7HeaderLen + k*uint(size)
	return frags[f][off : off+uint(size) : off+uint(size)]
}

// PeerEntry is one REQ_PEER_LIST item: an upstream association of the
// daemon. The paper notes commands like showpeers return more data than
// sent but with "typically lower amplification than monlist" — a daemon has
// a handful of peers versus up to 600 monitor entries.
type PeerEntry struct {
	Addr  netaddr.Addr
	Port  uint16
	HMode uint8 // association mode toward the peer
	Flags uint8
}

func (e *PeerEntry) append(b []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, AddrToWire(e.Addr))
	b = binary.BigEndian.AppendUint16(b, e.Port)
	return append(b, e.HMode, e.Flags)
}

// BuildPeerListResponse fragments peers into mode 7 response packets.
func BuildPeerListResponse(peers []PeerEntry, impl uint8) [][]byte {
	if len(peers) == 0 {
		m := Mode7{Response: true, Implementation: impl, Request: ReqPeerList,
			Err: InfoErrNoData}
		return [][]byte{m.AppendTo(nil)}
	}
	perPacket := EntriesPerPacket(PeerEntrySize)
	var out [][]byte
	for i := 0; i < len(peers); i += perPacket {
		end := i + perPacket
		if end > len(peers) {
			end = len(peers)
		}
		chunk := peers[i:end]
		data := make([]byte, 0, len(chunk)*PeerEntrySize)
		for j := range chunk {
			data = chunk[j].append(data)
		}
		m := Mode7{
			Response: true, More: end < len(peers),
			Sequence:       uint8(i / perPacket % 128),
			Implementation: impl, Request: ReqPeerList,
			NItems: uint16(len(chunk)), ItemSize: PeerEntrySize,
			Data: data,
		}
		out = append(out, m.AppendTo(nil))
	}
	return out
}

// ParsePeerListResponse decodes the peers of one response packet.
func ParsePeerListResponse(payload []byte) (*Mode7, []PeerEntry, error) {
	m, err := DecodeMode7(payload)
	if err != nil {
		return nil, nil, err
	}
	if !m.Response {
		return m, nil, fmt.Errorf("ntp: not a response packet")
	}
	if m.Err != InfoOK {
		return m, nil, nil
	}
	if m.ItemSize != PeerEntrySize {
		return m, nil, fmt.Errorf("ntp: peer list item size %d", m.ItemSize)
	}
	peers := make([]PeerEntry, 0, m.NItems)
	for i := 0; i < int(m.NItems); i++ {
		rec := m.Data[i*PeerEntrySize:]
		peers = append(peers, PeerEntry{
			Addr:  AddrFromWire(binary.BigEndian.Uint32(rec)),
			Port:  binary.BigEndian.Uint16(rec[4:]),
			HMode: rec[6],
			Flags: rec[7],
		})
	}
	return m, peers, nil
}

// ParseMonlistResponse decodes the entries of one response packet. It is the
// receiving half of BuildMonlistResponse and the primitive the core package
// uses to rebuild monitor tables "just as the NTP tools would do" (§4.2).
func ParseMonlistResponse(payload []byte) (*Mode7, []MonEntry, error) {
	m, err := DecodeMode7(payload)
	if err != nil {
		return nil, nil, err
	}
	if !m.Response {
		return m, nil, fmt.Errorf("ntp: not a response packet")
	}
	if m.Err != InfoOK {
		return m, nil, nil
	}
	entries := make([]MonEntry, 0, m.NItems)
	for i := 0; i < int(m.NItems); i++ {
		e, err := decodeEntry(m.Data[i*int(m.ItemSize):], int(m.ItemSize))
		if err != nil {
			return m, entries, err
		}
		entries = append(entries, e)
	}
	return m, entries, nil
}
