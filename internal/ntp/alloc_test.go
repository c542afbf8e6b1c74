package ntp

import (
	"encoding/binary"
	"testing"
	"time"
)

// Package-level sinks keep the compiler from optimizing the measured work
// away.
var (
	allocSinkBuf []byte
	allocSinkU64 uint64
)

// TestPacketCodecZeroAlloc is the regression wall for the wire codecs on the
// simulator's hot paths: mode 3/4 header encode+decode, mode 7 (monlist)
// encode+decode, and mode 6 (readvar) decode must not allocate when given a
// buffer with capacity / a scratch struct.
func TestPacketCodecZeroAlloc(t *testing.T) {
	now := time.Unix(1385856000, 123456789) // 2013-12-01, mid-campaign
	buf := make([]byte, 0, 1024)

	t.Run("mode3-encode", func(t *testing.T) {
		var h Header
		if n := testing.AllocsPerRun(100, func() {
			h.SetClientRequest(now)
			allocSinkBuf = h.AppendTo(buf[:0])
		}); n != 0 {
			t.Errorf("mode 3 encode: %.1f allocs/op, want 0", n)
		}
	})

	t.Run("mode4-encode", func(t *testing.T) {
		var req, rep Header
		req.SetClientRequest(now)
		if n := testing.AllocsPerRun(100, func() {
			rep.SetServerReply(&req, 2, now)
			allocSinkBuf = rep.AppendTo(buf[:0])
		}); n != 0 {
			t.Errorf("mode 4 encode: %.1f allocs/op, want 0", n)
		}
	})

	t.Run("mode34-decode", func(t *testing.T) {
		wire := NewServerReply(NewClientRequest(now), 2, now).AppendTo(nil)
		var h Header
		if n := testing.AllocsPerRun(100, func() {
			if err := h.DecodeFromBytes(wire); err != nil {
				t.Fatal(err)
			}
			allocSinkU64 = h.TransmitTime
		}); n != 0 {
			t.Errorf("mode 3/4 decode: %.1f allocs/op, want 0", n)
		}
	})

	// A disciplined client's poll, encoded into its per-client scratch
	// array, and the genuine mode 4 reply it decodes.
	t.Run("poll-encode", func(t *testing.T) {
		var scratch [HeaderLen]byte
		xmt := ToNTPTime(now)
		if n := testing.AllocsPerRun(100, func() {
			req := NewPollRequest(6, xmt)
			allocSinkBuf = req.AppendTo(scratch[:0])
		}); n != 0 {
			t.Errorf("poll encode: %.1f allocs/op, want 0", n)
		}
	})

	t.Run("sync-reply-decode", func(t *testing.T) {
		var req Header
		req.SetClientRequest(now)
		wire := NewServerReply(&req, 2, now).AppendTo(nil)
		if n := testing.AllocsPerRun(100, func() {
			r, err := DecodeSyncReply(wire)
			if err != nil || r.Kiss != "" || !r.CheckOrigin(req.TransmitTime) {
				t.Fatalf("genuine reply decoded as %+v, %v", r, err)
			}
			allocSinkU64 = r.TransmitTime
		}); n != 0 {
			t.Errorf("mode 4 sync reply decode: %.1f allocs/op, want 0", n)
		}
	})

	// The kiss-o'-death codes the discipline reacts to decode to their
	// constants.
	t.Run("kiss-decode", func(t *testing.T) {
		var wires [][]byte
		for _, code := range []string{KissRATE, KissDENY, KissRSTR} {
			kod := NewKissReply(0, code, now)
			wires = append(wires, kod.AppendTo(nil))
		}
		if n := testing.AllocsPerRun(100, func() {
			for _, wire := range wires {
				r, err := DecodeSyncReply(wire)
				if err != nil || r.Kiss == "" {
					t.Fatalf("kiss decoded as %+v, %v", r, err)
				}
				allocSinkU64 += uint64(len(r.Kiss))
			}
		}) / float64(len(wires)); n != 0 {
			t.Errorf("kiss decode: %.1f allocs/op, want 0", n)
		}
	})

	t.Run("mode7-encode", func(t *testing.T) {
		entry := MonEntry{Addr: 0x0a000001, DAddr: 0x0a000002, Count: 42,
			Mode: ModePrivate, Version: 2, Port: 123}
		data := make([]byte, MonEntrySizeV1)
		entry.PutItem(data)
		m := Mode7{Response: true, Implementation: ImplXNTPD, Request: ReqMonGetList1,
			NItems: 1, ItemSize: MonEntrySizeV1, Data: data}
		if n := testing.AllocsPerRun(100, func() {
			allocSinkBuf = m.AppendTo(buf[:0])
		}); n != 0 {
			t.Errorf("mode 7 encode: %.1f allocs/op, want 0", n)
		}
	})

	// A warm in-place rebuild of a full table: reframe the cached
	// fragments, shift every item one slot toward the tail, encode a new
	// head item and patch every LastSeen. It must reuse every buffer.
	t.Run("monlist-reencode", func(t *testing.T) {
		entries := benchEntries(MaxMonlistEntries)
		frags := BuildMonlistResponse(entries, ImplXNTPD, ReqMonGetList1)
		head := MonEntry{Addr: 0x0a000001, DAddr: 0x0a000002, Count: 1, Mode: ModePrivate, Version: 2, Port: 80}
		var lastSeen uint32
		if n := testing.AllocsPerRun(100, func() {
			frags = FrameMonlistResponse(frags, MaxMonlistEntries, ImplXNTPD, ReqMonGetList1)
			lastSeen++
			for p := MaxMonlistEntries - 1; p > 0; p-- {
				item := MonlistItem(frags, p, MonEntrySizeV1)
				copy(item, MonlistItem(frags, p-1, MonEntrySizeV1))
				binary.BigEndian.PutUint32(item[MonLastSeenOffset:], lastSeen)
			}
			head.PutItem(MonlistItem(frags, 0, MonEntrySizeV1))
		}); n != 0 {
			t.Errorf("monlist re-encode: %.1f allocs/op, want 0", n)
		}
		if len(frags) != 100 {
			t.Fatalf("re-encoded %d fragments, want 100", len(frags))
		}
	})

	t.Run("mode7-decode", func(t *testing.T) {
		wire := NewMonlistRequestPadded(ImplXNTPD, ReqMonGetList1)
		var m Mode7
		if n := testing.AllocsPerRun(100, func() {
			if err := m.DecodeFromBytes(wire); err != nil {
				t.Fatal(err)
			}
			allocSinkU64 = uint64(m.Request)
		}); n != 0 {
			t.Errorf("mode 7 decode: %.1f allocs/op, want 0", n)
		}
	})

	t.Run("mode6-decode", func(t *testing.T) {
		wire := NewReadVarRequest(7)
		var m Mode6
		if n := testing.AllocsPerRun(100, func() {
			if err := m.DecodeFromBytes(wire); err != nil {
				t.Fatal(err)
			}
			allocSinkU64 = uint64(m.Sequence)
		}); n != 0 {
			t.Errorf("mode 6 decode: %.1f allocs/op, want 0", n)
		}
	})
}
