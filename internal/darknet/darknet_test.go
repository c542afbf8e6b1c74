package darknet

import (
	"testing"
	"time"

	"ntpddos/internal/netaddr"
	"ntpddos/internal/packet"
	"ntpddos/internal/vtime"
)

func probe(src, dst netaddr.Addr, dstPort uint16, rep int64) *packet.Datagram {
	dg := packet.NewDatagram(src, 40000, dst, dstPort, make([]byte, 8))
	dg.Rep = rep
	return dg
}

func newScope() *Telescope {
	return New(netaddr.MustParsePrefix("35.0.0.0/8"))
}

func TestCoversOnlyInsidePrefix(t *testing.T) {
	s := newScope()
	if s.Covers(netaddr.MustParseAddr("36.0.0.1")) {
		t.Fatal("covered address outside prefix")
	}
	covered := 0
	for i := 0; i < 4096; i++ {
		a := netaddr.Addr(35<<24 | uint32(i)<<8 | 1)
		if s.Covers(a) {
			covered++
		}
	}
	frac := float64(covered) / 4096
	if frac < 0.70 || frac > 0.80 {
		t.Fatalf("coverage fraction = %.3f, want ≈0.75", frac)
	}
}

func TestCoverageDeterministicPer24(t *testing.T) {
	s := newScope()
	a := netaddr.MustParseAddr("35.10.20.1")
	b := netaddr.MustParseAddr("35.10.20.200")
	if s.Covers(a) != s.Covers(b) {
		t.Fatal("coverage differs within one /24")
	}
}

func TestObserveCountsNTPOnly(t *testing.T) {
	s := newScope()
	// Find a covered dark /24.
	var dst netaddr.Addr
	for i := 0; ; i++ {
		dst = netaddr.Addr(35<<24|uint32(i)<<8) + 7
		if s.Covers(dst) {
			break
		}
	}
	now := vtime.Epoch.Add(100 * 24 * time.Hour)
	scanner := netaddr.MustParseAddr("198.51.100.5")
	observeOne(s, probe(scanner, dst, 123, 1), now)
	observeOne(s, probe(scanner, dst, 53, 1), now) // DNS scan: ignored here
	if got := s.NTPPackets.At(vtime.Month(now)); got != 1 {
		t.Fatalf("NTP packets = %v, want 1", got)
	}
	if s.ScannersOn(now) != 1 {
		t.Fatalf("scanners = %d", s.ScannersOn(now))
	}
}

func TestBenignClassification(t *testing.T) {
	s := newScope()
	var dst netaddr.Addr
	for i := 0; ; i++ {
		dst = netaddr.Addr(35<<24|uint32(i)<<8) + 7
		if s.Covers(dst) {
			break
		}
	}
	research := netaddr.MustParseAddr("141.211.1.1")
	evil := netaddr.MustParseAddr("192.0.2.66")
	s.RegisterBenign(research)
	now := vtime.Epoch.Add(120 * 24 * time.Hour)
	observeOne(s, probe(research, dst, 123, 10), now)
	observeOne(s, probe(evil, dst, 123, 10), now)
	rows := s.MonthlyVolume()
	if len(rows) != 1 {
		t.Fatalf("%d monthly rows", len(rows))
	}
	if rows[0].BenignFraction != 0.5 {
		t.Fatalf("benign fraction = %v, want 0.5", rows[0].BenignFraction)
	}
}

func TestRepWeighting(t *testing.T) {
	s := newScope()
	var dst netaddr.Addr
	for i := 0; ; i++ {
		dst = netaddr.Addr(35<<24|uint32(i)<<8) + 7
		if s.Covers(dst) {
			break
		}
	}
	now := vtime.Epoch
	observeOne(s, probe(netaddr.Addr(1), dst, 123, 500), now)
	if got := s.NTPPackets.At(vtime.Month(now)); got != 500 {
		t.Fatalf("Rep-weighted packets = %v", got)
	}
}

func TestMonthlyVolumeNormalization(t *testing.T) {
	s := newScope()
	want := float64(1<<24/256) * 0.75
	if got := s.EffectiveDark24s(); got != want {
		t.Fatalf("EffectiveDark24s = %v, want %v", got, want)
	}
}

func TestScannerSeriesDaily(t *testing.T) {
	s := newScope()
	var dst netaddr.Addr
	for i := 0; ; i++ {
		dst = netaddr.Addr(35<<24|uint32(i)<<8) + 7
		if s.Covers(dst) {
			break
		}
	}
	d1 := vtime.Epoch.Add(24 * time.Hour)
	d2 := vtime.Epoch.Add(48 * time.Hour)
	observeOne(s, probe(netaddr.Addr(1), dst, 123, 1), d1)
	observeOne(s, probe(netaddr.Addr(2), dst, 123, 1), d1)
	observeOne(s, probe(netaddr.Addr(1), dst, 123, 1), d1.Add(time.Hour)) // dup same day
	observeOne(s, probe(netaddr.Addr(3), dst, 123, 1), d2)
	pts := s.ScannerSeries()
	if len(pts) != 2 || pts[0].Value != 2 || pts[1].Value != 1 {
		t.Fatalf("scanner series = %+v", pts)
	}
}

// observeOne shows tap one datagram the way the fabric does: as a
// one-payload train under a header that carries no payload and no Rep, with
// the datagram's Rep (at least 1) in reps.
func observeOne(tap interface {
	ObserveTrain(hdr *packet.Datagram, payloads [][]byte, reps []int64, now time.Time)
}, dg *packet.Datagram, now time.Time) {
	hdr := *dg
	hdr.Payload, hdr.Rep = nil, 0
	tap.ObserveTrain(&hdr, [][]byte{dg.Payload}, []int64{max(dg.Rep, 1)}, now)
}
