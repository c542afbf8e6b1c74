package ntp

import (
	"bytes"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"ntpddos/internal/netaddr"
)

func TestMonlistRequestIsCanonical(t *testing.T) {
	// The attack/scan probe everyone sends: 17 00 03 2a + 4 zero bytes.
	raw := NewMonlistRequest(ImplXNTPD, ReqMonGetList1)
	want := []byte{0x17, 0x00, 0x03, 0x2a, 0x00, 0x00, 0x00, 0x00}
	if !bytes.Equal(raw, want) {
		t.Fatalf("monlist probe = %x, want %x", raw, want)
	}
}

func TestMode7RoundTrip(t *testing.T) {
	m := Mode7{
		Response: true, More: true, Sequence: 99,
		Implementation: ImplXNTPD, Request: ReqMonGetList1,
		Err: InfoErrNoData, NItems: 0, ItemSize: 0,
	}
	raw := m.AppendTo(nil)
	got, err := DecodeMode7(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Response != m.Response || got.More != m.More || got.Sequence != m.Sequence ||
		got.Implementation != m.Implementation || got.Request != m.Request || got.Err != m.Err {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, m)
	}
}

func TestDecodeMode7RejectsWrongMode(t *testing.T) {
	raw := []byte{0x16, 0, 0, 0, 0, 0, 0, 0} // mode 6, not 7
	if _, err := DecodeMode7(raw); err == nil {
		t.Fatal("mode 6 packet decoded as mode 7")
	}
}

func TestDecodeMode7RejectsOverflowItems(t *testing.T) {
	m := Mode7{Response: true, NItems: 100, ItemSize: 72}
	raw := m.AppendTo(nil) // no data at all
	if _, err := DecodeMode7(raw); err == nil {
		t.Fatal("item count exceeding data not rejected")
	}
}

func TestEntriesPerPacket(t *testing.T) {
	if n := EntriesPerPacket(MonEntrySizeV1); n != 6 {
		t.Fatalf("GETLIST_1 entries per packet = %d, want 6", n)
	}
	if n := EntriesPerPacket(MonEntrySizeLegacy); n != 20 {
		t.Fatalf("legacy entries per packet = %d, want 20", n)
	}
}

func randomEntries(r *rand.Rand, n int) []MonEntry {
	entries := make([]MonEntry, n)
	for i := range entries {
		entries[i] = MonEntry{
			Addr:        netaddr.Addr(r.Uint32()),
			DAddr:       netaddr.Addr(r.Uint32()),
			Count:       r.Uint32(),
			Mode:        uint8(r.IntN(8)),
			Version:     uint8(2 + r.IntN(3)),
			Port:        uint16(r.Uint32()),
			AvgInterval: r.Uint32(),
			LastSeen:    r.Uint32(),
			Restr:       r.Uint32(),
		}
	}
	return entries
}

func reassemble(t *testing.T, packets [][]byte) []MonEntry {
	t.Helper()
	var all []MonEntry
	for i, p := range packets {
		m, entries, err := ParseMonlistResponse(p)
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		wantMore := i < len(packets)-1
		if m.More != wantMore {
			t.Fatalf("packet %d More = %v, want %v", i, m.More, wantMore)
		}
		all = append(all, entries...)
	}
	return all
}

func TestMonlistResponseRoundTripV1(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{1, 5, 6, 7, 600} {
		entries := randomEntries(r, n)
		packets := BuildMonlistResponse(entries, ImplXNTPD, ReqMonGetList1)
		wantPackets := (n + 5) / 6
		if len(packets) != wantPackets {
			t.Fatalf("%d entries -> %d packets, want %d", n, len(packets), wantPackets)
		}
		got := reassemble(t, packets)
		if len(got) != n {
			t.Fatalf("reassembled %d entries, want %d", len(got), n)
		}
		for i := range got {
			if got[i] != entries[i] {
				t.Fatalf("entry %d mismatch:\n got %+v\nwant %+v", i, got[i], entries[i])
			}
		}
	}
}

func TestMonlistResponseRoundTripLegacy(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	entries := randomEntries(r, 45)
	packets := BuildMonlistResponse(entries, ImplXNTPDOld, ReqMonGetList)
	if len(packets) != 3 { // 20 + 20 + 5
		t.Fatalf("45 legacy entries -> %d packets, want 3", len(packets))
	}
	got := reassemble(t, packets)
	if len(got) != 45 {
		t.Fatalf("reassembled %d entries", len(got))
	}
	for i := range got {
		// The legacy format does not carry DAddr; everything else must match.
		want := entries[i]
		want.DAddr = 0
		if got[i] != want {
			t.Fatalf("entry %d mismatch:\n got %+v\nwant %+v", i, got[i], want)
		}
	}
}

func TestEmptyTableYieldsNoDataError(t *testing.T) {
	packets := BuildMonlistResponse(nil, ImplXNTPD, ReqMonGetList1)
	if len(packets) != 1 {
		t.Fatalf("empty table -> %d packets", len(packets))
	}
	m, entries, err := ParseMonlistResponse(packets[0])
	if err != nil {
		t.Fatal(err)
	}
	if m.Err != InfoErrNoData || len(entries) != 0 {
		t.Fatalf("empty table response = err %d, %d entries", m.Err, len(entries))
	}
}

func TestFullTableResponseSize(t *testing.T) {
	// A primed 600-entry table must produce 100 fragments of 440 payload
	// bytes (8 header + 6*72 items) — the packet arithmetic that makes
	// monlist the paper's headline amplification vector.
	r := rand.New(rand.NewPCG(5, 6))
	packets := BuildMonlistResponse(randomEntries(r, MaxMonlistEntries), ImplXNTPD, ReqMonGetList1)
	if len(packets) != 100 {
		t.Fatalf("full table -> %d packets, want 100", len(packets))
	}
	for i, p := range packets {
		if len(p) != Mode7HeaderLen+6*MonEntrySizeV1 {
			t.Fatalf("fragment %d payload = %d bytes", i, len(p))
		}
	}
}

func TestParseMonlistRejectsRequest(t *testing.T) {
	req := NewMonlistRequest(ImplXNTPD, ReqMonGetList1)
	if _, _, err := ParseMonlistResponse(req); err == nil {
		t.Fatal("request parsed as response")
	}
}

func TestMonEntryRoundTripProperty(t *testing.T) {
	f := func(addr, daddr, count, avgInt, lastSeen, restr uint32, port uint16, mode, version uint8) bool {
		e := MonEntry{
			Addr: netaddr.Addr(addr), DAddr: netaddr.Addr(daddr),
			Count: count, Mode: mode & 7, Version: version,
			Port: port, AvgInterval: avgInt, LastSeen: lastSeen, Restr: restr,
		}
		// PutItem must write every byte: the daemon re-encodes into
		// buffers that still hold an older item.
		raw := bytes.Repeat([]byte{0xff}, MonEntrySizeV1)
		e.PutItem(raw)
		got, err := decodeEntry(raw, MonEntrySizeV1)
		return err == nil && got == e && bytes.Count(raw[32:], []byte{0}) == MonEntrySizeV1-32
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestFrameMonlistResponseKeepsItems pins the in-place framing contract:
// reframing rewrites every header and length but no item byte, reuses the
// buffers past len(frags) that a larger framing left behind, and frames an
// empty table as the single InfoErrNoData fragment.
func TestFrameMonlistResponseKeepsItems(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 8))
	for _, reqCode := range []uint8{ReqMonGetList1, ReqMonGetList} {
		entries := randomEntries(r, MaxMonlistEntries)
		if reqCode == ReqMonGetList {
			for i := range entries {
				entries[i].DAddr = 0 // not carried by the legacy layout
			}
		}
		frags := BuildMonlistResponse(entries, ImplXNTPDOld, reqCode)
		first := &frags[0][0]
		for _, n := range []int{599, 13, 6, 5, 1, 0, 7, 600} {
			frags = FrameMonlistResponse(frags, n, ImplXNTPDOld, reqCode)
			want := BuildMonlistResponse(entries[:n], ImplXNTPDOld, reqCode)
			if len(frags) != len(want) {
				t.Fatalf("code %d, %d items: %d fragments, want %d", reqCode, n, len(frags), len(want))
			}
			for i := range want {
				if !bytes.Equal(frags[i], want[i]) {
					t.Fatalf("code %d, %d items: fragment %d\n got %x\nwant %x", reqCode, n, i, frags[i], want[i])
				}
			}
			if &frags[0][0] != first {
				t.Fatalf("code %d, %d items: fragment 0 reallocated", reqCode, n)
			}
		}
		// Growing back to the full table found every item still in place,
		// so the shrunk framings dropped none of the buffers.
		if got := reassemble(t, frags); len(got) != MaxMonlistEntries || got[MaxMonlistEntries-1] != entries[MaxMonlistEntries-1] {
			t.Fatalf("code %d: regrown table lost its items", reqCode)
		}
	}

	// Buffers sized for 72-byte items hold 18 legacy items at most; a
	// fragment that grows to 20 moves to a larger buffer with its items.
	entries := randomEntries(r, 2*EntriesPerPacket(MonEntrySizeLegacy))
	for i := range entries {
		entries[i].DAddr = 0
	}
	frags := BuildMonlistResponse(randomEntries(r, MaxMonlistEntries), ImplXNTPD, ReqMonGetList1)
	frags = FrameMonlistResponse(frags, 34, ImplXNTPD, ReqMonGetList)
	for p := 0; p < 34; p++ {
		entries[p].PutItem(MonlistItem(frags, p, MonEntrySizeLegacy))
	}
	frags = FrameMonlistResponse(frags, 40, ImplXNTPD, ReqMonGetList)
	for p := 34; p < 40; p++ {
		entries[p].PutItem(MonlistItem(frags, p, MonEntrySizeLegacy))
	}
	want := BuildMonlistResponse(entries, ImplXNTPD, ReqMonGetList)
	for i := range want {
		if !bytes.Equal(frags[i], want[i]) {
			t.Fatalf("grown legacy fragment %d\n got %x\nwant %x", i, frags[i], want[i])
		}
	}
}

func TestDecodeEntryUnsupportedSize(t *testing.T) {
	if _, err := decodeEntry(make([]byte, 100), 50); err == nil {
		t.Fatal("unsupported item size accepted")
	}
}
