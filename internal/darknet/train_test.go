package darknet

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"ntpddos/internal/netaddr"
	"ntpddos/internal/packet"
	"ntpddos/internal/rng"
	"ntpddos/internal/vtime"
)

// TestTrainMatchesOnePayloadCalls is the differential wall for the per-train
// telescope: seeded random trains fed to one telescope as single
// ObserveTrain calls and to a twin as one-payload calls must leave every
// series, scanner set and source footprint bit-identical. Each payload has
// its own Rep, as under fault injection: loss may thin it, and a duplicate
// of Rep 1 or 2 may follow it, so Rep-40 trains carry Rep-1 payloads.
func TestTrainMatchesOnePayloadCalls(t *testing.T) {
	trains, singles := newScope(), newScope()
	benign := netaddr.MustParseAddr("198.51.100.1")
	trains.RegisterBenign(benign)
	singles.RegisterBenign(benign)
	srcs := []netaddr.Addr{benign, netaddr.MustParseAddr("198.51.100.2"), netaddr.MustParseAddr("203.0.113.9")}

	src := rng.New(20140210)
	now := vtime.Epoch
	mixed := 0
	for i := 0; i < 4000; i++ {
		if src.Bool(0.7) {
			now = now.Add(time.Duration(src.IntN(6*3600)) * time.Second)
		}
		dst := netaddr.Addr(35<<24 | uint32(src.IntN(1<<24)))
		if src.Bool(0.2) {
			dst = netaddr.Addr(36<<24 | uint32(src.IntN(1<<24))) // outside the prefix
		}
		hdr := packet.NewDatagram(srcs[src.IntN(len(srcs))], 40000, dst, []uint16{123, 123, 53}[src.IntN(3)], nil)
		hdr.Rep = 0
		rep := []int64{1, 1, 2, 40}[src.IntN(4)]
		var payloads [][]byte
		var reps []int64
		for n := 1 + src.IntN(9); n > 0; n-- {
			p := make([]byte, src.IntN(480))
			r := rep
			if src.Bool(0.2) {
				r = 1 + src.Int64N(rep)
			}
			payloads, reps = append(payloads, p), append(reps, r)
			if src.Bool(0.25) {
				payloads, reps = append(payloads, p), append(reps, 1+src.Int64N(2))
			}
		}
		if slices.Contains(reps, 1) && slices.Max(reps) > 1 {
			mixed++
		}
		trains.ObserveTrain(hdr, payloads, reps, now)
		for j := range payloads {
			singles.ObserveTrain(hdr, payloads[j:j+1], reps[j:j+1], now)
		}
	}
	if trains.BenignNTPPackets.Len() == 0 || trains.UniqueScanners().Len() < len(srcs) || mixed < 500 {
		t.Fatalf("random trains miss a branch: %d benign months, %d scanners, %d trains mixing Rep 1 and more",
			trains.BenignNTPPackets.Len(), trains.UniqueScanners().Len(), mixed)
	}
	a, b := strings.Split(dumpScope(trains), "\n"), strings.Split(dumpScope(singles), "\n")
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			t.Fatalf("telescope state differs at line %d:\n  trains  %s\n  singles %s", i, a[i], b[i])
		}
	}
	if len(a) != len(b) {
		t.Fatalf("telescope dumps: trains %d lines, singles %d", len(a), len(b))
	}
}

// dumpScope renders everything a telescope exposes, floats by their bits.
func dumpScope(s *Telescope) string {
	var b strings.Builder
	for _, p := range s.NTPPackets.Points() {
		fmt.Fprintf(&b, "ntp %d %016x\n", p.Time.UnixNano(), math.Float64bits(p.Value))
	}
	for _, p := range s.BenignNTPPackets.Points() {
		fmt.Fprintf(&b, "benign %d %016x\n", p.Time.UnixNano(), math.Float64bits(p.Value))
	}
	for _, r := range s.MonthlyVolume() {
		fmt.Fprintf(&b, "month %d %016x %016x\n", r.Month.UnixNano(), math.Float64bits(r.PacketsPer24),
			math.Float64bits(r.BenignFraction))
	}
	days := make([]time.Time, 0, len(s.scannersByDay))
	for d := range s.scannersByDay {
		days = append(days, d)
	}
	sort.Slice(days, func(i, j int) bool { return days[i].Before(days[j]) })
	for _, d := range days {
		fmt.Fprintf(&b, "day %d %v\n", d.UnixNano(), s.scannersByDay[d].Sorted())
	}
	for _, a := range s.UniqueScanners().Sorted() {
		bins, _ := s.SourceSpread(a)
		fmt.Fprintf(&b, "source %v", a)
		for _, v := range bins {
			fmt.Fprintf(&b, " %016x", math.Float64bits(v))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "scanner-like %d\n", s.ScannerLikeSources(0.5))
	return b.String()
}
