package ispview

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"ntpddos/internal/asdb"
	"ntpddos/internal/metrics"
	"ntpddos/internal/netaddr"
	"ntpddos/internal/ntp"
	"ntpddos/internal/packet"
	"ntpddos/internal/rng"
	"ntpddos/internal/stats"
	"ntpddos/internal/vtime"
)

// randomTrain draws one train: source and destination each inside or
// outside the view, NTP, DNS or other ports, Rep 1 (scanner probes) or more
// (attack batches), and 1 to 9 payloads of mixed lengths and NTP modes —
// mode 7 and mode 6 requests and responses, mode 3, truncated and
// undecodable mode 7, and empty payloads.
func randomTrain(src *rng.Source, inside, outside []netaddr.Addr) (*packet.Datagram, [][]byte) {
	pick := func() netaddr.Addr {
		if src.Bool(0.5) {
			return inside[src.IntN(len(inside))]
		}
		return outside[src.IntN(len(outside))]
	}
	ports := []uint16{ntp.Port, ntp.Port, 53, 40000}
	hdr := packet.NewDatagram(pick(), ports[src.IntN(len(ports))], pick(), ports[src.IntN(len(ports))], nil)
	hdr.IP.TTL = uint8(40 + src.IntN(80))
	hdr.Rep = []int64{1, 1, 2, 40}[src.IntN(4)]
	payloads := make([][]byte, 1+src.IntN(9))
	for i := range payloads {
		n := 8 + src.IntN(460)
		if src.Bool(0.05) {
			n = src.IntN(8) // empty or truncated
		}
		p := make([]byte, n)
		for j := range p {
			p[j] = byte(src.Uint64())
		}
		if n > 0 {
			p[0] = []byte{0x17, 0x97, 0x16, 0x96, 0x1b}[src.IntN(5)] // mode 7, 6, 3; R bit or not
		}
		if n >= 8 && src.Bool(0.8) {
			copy(p[4:8], []byte{0, 0, 0, 0}) // no items: a decodable mode 7 header
		}
		if n > 1 && p[0] == 0x96 {
			p[0], p[1] = 0x16, p[1]|0x80 // mode 6 carries its R bit in byte 1
		}
		payloads[i] = p
	}
	return hdr, payloads
}

// trainsEnd bounds the differential test's traffic and baselines: 4000
// trains at a mean spacing of 21 minutes.
var trainsEnd = vtime.Epoch.Add(3000 * time.Hour)

// TestTrainMatchesOnePayloadCalls is the differential wall for the per-train
// view: seeded random trains fed to one view as single ObserveTrain calls and
// to a twin as one-payload calls must leave every series, histogram, table,
// and metric bit-identical, including the series that hold fractional
// baselines added before any traffic.
func TestTrainMatchesOnePayloadCalls(t *testing.T) {
	inPrefix := netaddr.MustParsePrefix("198.108.0.0/16")
	newView := func() (*View, *metrics.Registry) {
		v := New("Merit", nil, &asdb.AS{Prefixes: []netaddr.Prefix{inPrefix}})
		reg := metrics.NewRegistry()
		v.SetMetrics(NewMetrics(reg))
		// Small fractional floors: with a few trains per hourly bucket, a
		// per-train sum would round differently from per-payload adds.
		v.AddBaseline("dns", vtime.Epoch, trainsEnd, 0.1)
		v.AddBaseline("other", vtime.Epoch, trainsEnd, 1.0/3)
		v.AddBaseline("http", vtime.Epoch, trainsEnd, 0.7)
		return v, reg
	}
	trains, trainReg := newView()
	singles, singleReg := newView()

	var inside, outside []netaddr.Addr
	for i := 0; i < 6; i++ {
		inside = append(inside, inPrefix.Nth(uint64(100+i)))
		outside = append(outside, netaddr.MustParsePrefix("203.0.113.0/24").Nth(uint64(10+i)))
	}
	src := rng.New(20140210)
	now := vtime.Epoch
	multi := 0
	for i := 0; i < 4000; i++ {
		if src.Bool(0.7) {
			now = now.Add(time.Duration(src.IntN(3600)) * time.Second)
		}
		hdr, payloads := randomTrain(src, inside, outside)
		if len(payloads) > 1 {
			multi++
		}
		trains.ObserveTrain(hdr, payloads, now)
		for j := range payloads {
			singles.ObserveTrain(hdr, payloads[j:j+1], now)
		}
	}

	// The stream must reach every branch the per-train code folds.
	if multi < 1000 || len(trains.victims) == 0 || len(trains.scanners) == 0 ||
		trains.TriggerTTL.Total() == 0 || trains.ScanTTL.Total() == 0 ||
		trains.EgressNTP.Len() == 0 || trains.IngressNTP.Len() == 0 ||
		trains.ProtoBytes["ntp"] == nil || now.After(trainsEnd) {
		t.Fatalf("random trains miss a branch: %d multi-payload trains, %d victims, %d scanners, trigger TTLs %d, scan TTLs %d",
			multi, len(trains.victims), len(trains.scanners), trains.TriggerTTL.Total(), trains.ScanTTL.Total())
	}
	if a, b := dumpView(trains), dumpView(singles); a != b {
		t.Errorf("view state differs: %s", firstLineDiff(a, b))
	}
	if a, b := exposition(t, trainReg), exposition(t, singleReg); a != b {
		t.Errorf("metrics differ: %s", firstLineDiff(a, b))
	}
}

// dumpView renders everything a view exposes, floats by their bits.
func dumpView(v *View) string {
	var b strings.Builder
	series := func(name string, ts *stats.TimeSeries) {
		for _, p := range ts.Points() {
			fmt.Fprintf(&b, "%s %d %016x\n", name, p.Time.UnixNano(), math.Float64bits(p.Value))
		}
	}
	hist := func(name string, h *stats.Histogram) {
		for _, bin := range h.TopK(math.MaxInt) {
			fmt.Fprintf(&b, "%s %d=%d\n", name, bin.Value, bin.Count)
		}
		fmt.Fprintf(&b, "%s total=%d\n", name, h.Total())
	}
	series("ingress", v.IngressNTP)
	series("egress", v.EgressNTP)
	series("billing", v.billingBucket)
	protos := make([]string, 0, len(v.ProtoBytes))
	for k := range v.ProtoBytes {
		protos = append(protos, k)
	}
	sort.Strings(protos)
	for _, k := range protos {
		series("proto "+k, v.ProtoBytes[k])
	}
	hist("scanTTL", v.ScanTTL)
	hist("triggerTTL", v.TriggerTTL)
	for _, a := range sortedKeys(v.amps) {
		s := v.amps[a]
		fmt.Fprintf(&b, "amp %v in=%d out=%d wire=%d victims=%v\n", s.Addr, s.PayloadIn, s.PayloadOut, s.WireOut, s.Victims.Sorted())
		for _, vic := range sortedKeys(s.perVictim) {
			p := s.perVictim[vic]
			fmt.Fprintf(&b, "  pair %v out=%d wire=%d packets=%d %d..%d\n", vic, p.payloadOut, p.wireOut, p.packets,
				p.first.UnixNano(), p.last.UnixNano())
		}
	}
	for _, a := range sortedKeys(v.victims) {
		s := v.victims[a]
		fmt.Fprintf(&b, "victim %v in=%d wire=%d packets=%d trigger=%d amps=%v %d..%d\n", s.Addr, s.PayloadIn, s.WireIn,
			s.Packets, s.TriggerOut, s.Amplifiers.Sorted(), s.First.UnixNano(), s.Last.UnixNano())
		hist("  ports", s.Ports)
		series("  hourly", s.Hourly)
	}
	for _, s := range v.Scanners() {
		fmt.Fprintf(&b, "scanner %v packets=%d dsts=%v %d..%d\n", s.Addr, s.Packets, s.Dsts.Sorted(),
			s.First.UnixNano(), s.Last.UnixNano())
	}
	for _, a := range v.Amplifiers() {
		fmt.Fprintf(&b, "amplifier %v\n", a.Addr)
	}
	for _, s := range v.Victims() {
		fmt.Fprintf(&b, "thresholded victim %v\n", s.Addr)
	}
	fmt.Fprintf(&b, "billed95 %016x\n", math.Float64bits(v.Billed95(vtime.Epoch, trainsEnd)))
	return b.String()
}

func sortedKeys[V any](m map[netaddr.Addr]V) []netaddr.Addr {
	out := make([]netaddr.Addr, 0, len(m))
	for a := range m {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func firstLineDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  trains  %s\n  singles %s", i, al[i], bl[i])
		}
	}
	return fmt.Sprintf("trains %d lines, singles %d", len(al), len(bl))
}

func exposition(t *testing.T, reg *metrics.Registry) string {
	t.Helper()
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}
