package ntp

import (
	"testing"
	"time"

	"ntpddos/internal/netaddr"
)

// Fuzz targets for the NTP wire decoders: every parser must be total —
// return an error on malformed input, never panic or over-read. Seed
// corpora are real encodings produced by the package's own builders, so
// the fuzzer starts from structurally valid packets and mutates inward.

func FuzzDecodeMode7(f *testing.F) {
	f.Add(NewMonlistRequest(ImplXNTPD, ReqMonGetList1))
	f.Add(NewMonlistRequestPadded(ImplXNTPD, ReqMonGetList))
	entries := []MonEntry{
		{Addr: netaddr.MustParseAddr("192.0.2.1"), Port: 80, Mode: ModePrivate, Count: 1000, AvgInterval: 2, LastSeen: 7},
		{Addr: netaddr.MustParseAddr("198.51.100.9"), Port: 123, Mode: ModeClient, Count: 12, AvgInterval: 64},
	}
	for _, frag := range BuildMonlistResponse(entries, ImplXNTPD, ReqMonGetList1) {
		f.Add(frag)
	}
	for _, frag := range BuildPeerListResponse([]PeerEntry{{Addr: netaddr.MustParseAddr("203.0.113.5")}}, ImplXNTPD) {
		f.Add(frag)
	}
	f.Add([]byte{0x97, 0x00, 0x03, 0x2a})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMode7(data)
		if err != nil {
			// Malformed must also be rejected by the higher-level parsers.
			if _, _, err2 := ParseMonlistResponse(data); err2 == nil {
				t.Fatal("ParseMonlistResponse accepted what DecodeMode7 rejected")
			}
			return
		}
		// Anything that decodes must re-encode to something decodable.
		if _, err := DecodeMode7(m.AppendTo(nil)); err != nil {
			t.Fatalf("re-encoded mode 7 packet does not decode: %v", err)
		}
		// The entry parsers must stay within bounds on any decodable packet.
		_, _, _ = ParseMonlistResponse(data)
		_, _, _ = ParsePeerListResponse(data)
	})
}

func FuzzDecodeMode6(f *testing.F) {
	f.Add(NewReadVarRequest(7))
	for _, frag := range BuildReadVarResponse(7, SystemVariables{
		Version: "ntpd 4.2.4p8", Processor: "x86_64", System: "Linux", Stratum: 2,
	}.Encode()) {
		f.Add(frag)
	}
	f.Add([]byte{0x16, 0x82, 0x00, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMode6(data)
		if err != nil {
			return
		}
		if _, err := DecodeMode6(m.AppendTo(nil)); err != nil {
			t.Fatalf("re-encoded mode 6 packet does not decode: %v", err)
		}
		// Reassembly over a decoded fragment must not panic regardless of
		// offset/count claims in the header.
		_, _ = ReassembleMode6([]*Mode6{m})
	})
}

func FuzzDecodeSyncReply(f *testing.F) {
	now := time.Unix(1385856000, 0).UTC()
	req := NewPollRequest(6, ToNTPTime(now))
	f.Add(req.AppendTo(nil))
	f.Add(NewServerReply(&req, 2, now.Add(40*time.Millisecond)).AppendTo(nil))
	f.Add(NewServerReply(&req, StratumUnsynchronized, now).AppendTo(nil))
	for _, kod := range []Header{NewKissReply(req.TransmitTime, KissRATE, now), NewKissReply(0, KissDENY, now)} {
		f.Add(kod.AppendTo(nil))
	}
	f.Add(make([]byte, 48))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeSyncReply(data)
		if err != nil {
			// A rejected reply carries nothing a caller could act on.
			if r != (SyncReply{}) {
				t.Fatalf("rejected reply (%v) returned a non-zero value %+v", err, r)
			}
			return
		}
		// Anything accepted must re-encode to a reply that decodes to the
		// same header and kiss classification.
		r2, err := DecodeSyncReply(r.Header.AppendTo(nil))
		if err != nil {
			t.Fatalf("re-encoded sync reply does not decode: %v", err)
		}
		if r.Header != r2.Header || r.Kiss != r2.Kiss {
			t.Fatalf("sync reply round trip diverged:\n%+v\n%+v", r, r2)
		}
		// Decoded invariants the discipline depends on.
		if r.Kiss != "" && r.Stratum != 0 {
			t.Fatalf("kiss code %q on stratum %d", r.Kiss, r.Stratum)
		}
		if r.Kiss == "" && r.TransmitTime == 0 {
			t.Fatal("accepted a non-KoD reply with zero transmit timestamp")
		}
		_ = r.CheckOrigin(req.TransmitTime)
	})
}

func FuzzDecodeHeader(f *testing.F) {
	f.Add(NewClientRequest(time.Unix(1385856000, 0).UTC()).AppendTo(nil))
	f.Add(make([]byte, 48))
	f.Fuzz(func(t *testing.T, data []byte) {
		var h Header
		if err := h.DecodeFromBytes(data); err != nil {
			return
		}
		round := h.AppendTo(nil)
		var h2 Header
		if err := h2.DecodeFromBytes(round); err != nil {
			t.Fatalf("re-encoded header does not decode: %v", err)
		}
		if h != h2 {
			t.Fatalf("header round trip diverged:\n%+v\n%+v", h, h2)
		}
	})
}
