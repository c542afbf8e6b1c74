package ntp

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"
	"time"
)

func TestNTPTimeRoundTrip(t *testing.T) {
	for _, instant := range []time.Time{
		time.Date(2013, 9, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2014, 1, 10, 13, 37, 42, 125_000_000, time.UTC),
		time.Date(2014, 5, 1, 23, 59, 59, 999_000_000, time.UTC),
	} {
		got := FromNTPTime(ToNTPTime(instant))
		if d := got.Sub(instant); d < -time.Microsecond || d > time.Microsecond {
			t.Errorf("FromNTPTime(ToNTPTime(%v)) = %v (off by %v)", instant, got, d)
		}
	}
}

// TestUnixNanoConversionsExact pins the integer conversions the
// disciplined client runs on to the time.Time reference conversions, bit
// for bit: random values over the whole domain, both fraction edges, both
// ends of NTP era 0, and the Unix epoch, where Go's truncating division
// and Time.Unix's floor part ways.
func TestUnixNanoConversionsExact(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	const eraEnd = (1<<32-1-Era)*1e9 + 999_999_999 // last Unix ns inside era 0

	stamps := []uint64{
		0,                 // start of era 0, 1900-01-01
		0xffffffff,        // largest fraction in the first second
		1 << 32,           // zero fraction
		Era << 32,         // the Unix epoch
		Era<<32 - 1,       // a fraction edge just before it
		1<<64 - 1,         // end of era 0, 2036-02-07
		(1<<32 - 1) << 32, // end of era 0 with a zero fraction
		ToNTPTime(time.Date(2013, 12, 1, 0, 0, 0, 0, time.UTC)),
	}
	for i := 0; i < 100_000; i++ {
		stamps = append(stamps, r.Uint64())
	}
	for _, ts := range stamps {
		if got, want := NTPToUnixNano(ts), FromNTPTime(ts).UnixNano(); got != want {
			t.Fatalf("NTPToUnixNano(%#x) = %d, want FromNTPTime's %d", ts, got, want)
		}
	}

	nanos := []int64{
		0, 1, -1, // the Unix epoch: floor, not truncation, below it
		999_999_999, 1e9, 1e9 + 1, -999_999_999, -1e9, -1e9 - 1, -1e9 + 1,
		-Era * 1e9,   // start of era 0
		-Era*1e9 - 1, // just before it, wrapping to the end of era -1
		eraEnd,       // end of era 0
		eraEnd + 1,   // start of era 1, wrapping to NTP 0
		math.MinInt64, math.MaxInt64,
		1385856000_123456789, // 2013-12-01, mid-window
	}
	for i := 0; i < 100_000; i++ {
		nanos = append(nanos, int64(r.Uint64()))                   // anywhere in int64
		nanos = append(nanos, -Era*1e9+r.Int64N(eraEnd+Era*1e9+1)) // inside era 0
	}
	for _, ns := range nanos {
		if got, want := UnixNanoToNTP(ns), ToNTPTime(time.Unix(0, ns)); got != want {
			t.Fatalf("UnixNanoToNTP(%d) = %#x, want ToNTPTime's %#x", ns, got, want)
		}
	}
}

func TestDecodeSyncReplyGenuine(t *testing.T) {
	now := time.Date(2013, 12, 1, 0, 0, 0, 0, time.UTC)
	req := NewPollRequest(6, ToNTPTime(now))
	rep := NewServerReply(&req, 2, now.Add(80*time.Millisecond))
	r, err := DecodeSyncReply(rep.AppendTo(nil))
	if err != nil {
		t.Fatal(err)
	}
	if r.Kiss != "" {
		t.Fatalf("genuine reply classified as KoD %q", r.Kiss)
	}
	if !r.CheckOrigin(req.TransmitTime) {
		t.Fatal("origin echo failed for a genuine reply")
	}
	if r.CheckOrigin(req.TransmitTime + 1) {
		t.Fatal("origin check passed for a mismatched cookie")
	}
}

func TestDecodeSyncReplyKiss(t *testing.T) {
	now := time.Date(2013, 12, 1, 0, 0, 0, 0, time.UTC)
	for _, code := range []string{KissRATE, KissDENY, KissRSTR, "STEP"} {
		kod := NewKissReply(42, code, now)
		r, err := DecodeSyncReply(kod.AppendTo(nil))
		if err != nil {
			t.Fatalf("%s: %v", code, err)
		}
		if r.Kiss != code {
			t.Fatalf("kiss = %q, want %q", r.Kiss, code)
		}
	}
}

func TestDecodeSyncReplyRejectsMalformed(t *testing.T) {
	now := time.Date(2013, 12, 1, 0, 0, 0, 0, time.UTC)
	req := NewPollRequest(6, ToNTPTime(now))
	good := NewServerReply(&req, 2, now)

	mutate := func(f func(h *Header)) []byte {
		h := *good
		f(&h)
		return h.AppendTo(nil)
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"truncated", good.AppendTo(nil)[:47], ErrTruncated},
		{"empty", nil, ErrTruncated},
		{"mode 3", req.AppendTo(nil), ErrBadMode},
		{"mode 7", []byte{0x97, 0, 0, 0}, ErrTruncated},
		{"version 0", mutate(func(h *Header) { h.Version = 0 }), ErrBadReply},
		{"version 7", mutate(func(h *Header) { h.Version = 7 }), ErrBadReply},
		{"stratum 17", mutate(func(h *Header) { h.Stratum = 17 }), ErrBadReply},
		{"zero transmit", mutate(func(h *Header) { h.TransmitTime = 0 }), ErrBadReply},
		{"stratum 0, binary refid", mutate(func(h *Header) {
			h.Stratum = 0
			h.ReferenceID = 0x01020304
		}), ErrBadReply},
		{"stratum 0, zero refid", mutate(func(h *Header) {
			h.Stratum = 0
			h.ReferenceID = 0
		}), ErrBadReply},
	}
	for _, c := range cases {
		if _, err := DecodeSyncReply(c.data); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

func TestKissRefIDRoundTrip(t *testing.T) {
	for _, code := range []string{"RATE", "DENY", "RSTR", "X"} {
		if got := kissFromRefID(KissRefID(code)); got != code {
			t.Errorf("kissFromRefID(KissRefID(%q)) = %q", code, got)
		}
	}
	if got := kissFromRefID(KissRefID("TOOLONG")); got != "TOOL" {
		t.Errorf("overlong code truncated to %q, want TOOL", got)
	}
}
