package detect

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"ntpddos/internal/metrics"
	"ntpddos/internal/netaddr"
	"ntpddos/internal/ntp"
	"ntpddos/internal/packet"
	"ntpddos/internal/reflector"
	"ntpddos/internal/rng"
	"ntpddos/internal/vtime"
)

// laneTraffic is one lane's service port and the payloads random trains
// draw from: reflected responses, and the lane's trigger request.
type laneTraffic struct {
	port      uint16
	responses [][]byte
	request   []byte
}

// trainLanes builds every lane's payloads. NTP responses are real monlist
// fragments of several lengths.
func trainLanes() []laneTraffic {
	var monlist [][]byte
	for _, n := range []int{1, 6, 40} {
		entries := make([]ntp.MonEntry, n)
		for i := range entries {
			entries[i] = ntp.MonEntry{Addr: netaddr.Addr(0x0a000001 + i), Mode: ntp.ModeClient, Count: 5}
		}
		monlist = append(monlist, ntp.BuildMonlistResponse(entries, ntp.ImplXNTPD, ntp.ReqMonGetList1)...)
	}
	lane := func(v reflector.Vector) laneTraffic {
		p := reflector.MustLookup(v)
		return laneTraffic{p.Port, [][]byte{laneResponse(v, amp, victim, 80, 1).Payload}, p.Request}
	}
	return []laneTraffic{
		{ntp.Port, monlist, ntp.NewMonlistRequest(ntp.ImplXNTPD, ntp.ReqMonGetList1)},
		lane(reflector.DNSANY), lane(reflector.SSDP), lane(reflector.Chargen),
	}
}

// trainStream generates the differential test's random trains: reflections
// onto a few hot victims that resume after pulse-sized gaps and a long tail
// of cold ones, spoofed triggers and Linux-band probes toward amplifiers,
// harvest backscatter to probers, and self-addressed trains whose Linux-band
// request marks the train's own destination a scanner between responses.
type trainStream struct {
	src                      *rng.Source
	lanes                    []laneTraffic
	hot, cold, amps, probers []netaddr.Addr
	client                   []byte // a mode 3 poll: dropped by classify
}

func newTrainStream(seed uint64) *trainStream {
	s := &trainStream{src: rng.New(seed), lanes: trainLanes(), client: make([]byte, 48)}
	s.client[0] = 0x1b // LI 0, version 3, mode 3
	addrs := func(base uint32, n int) []netaddr.Addr {
		out := make([]netaddr.Addr, n)
		for i := range out {
			out[i] = netaddr.Addr(base + uint32(i)*7919)
		}
		return out
	}
	s.hot, s.cold = addrs(0x5d000000, 8), addrs(0x5e000000, 150)
	s.amps, s.probers = addrs(0x0a100000, 100), addrs(0xc66c0000, 4)
	return s
}

func (s *trainStream) pick(addrs []netaddr.Addr) netaddr.Addr { return addrs[s.src.IntN(len(addrs))] }

// add appends payload p at the train's Rep, as the fabric's fault plane
// leaves it: loss may thin it, and a duplicate of Rep 1 or 2 may follow.
func (s *trainStream) add(payloads [][]byte, reps []int64, p []byte, rep int64) ([][]byte, []int64) {
	if s.src.Bool(0.2) {
		rep = 1 + s.src.Int64N(rep)
	}
	payloads, reps = append(payloads, p), append(reps, rep)
	if s.src.Bool(0.2) {
		payloads, reps = append(payloads, p), append(reps, 1+s.src.Int64N(2))
	}
	return payloads, reps
}

// next returns one train and whether it is self-addressed.
func (s *trainStream) next() (hdr *packet.Datagram, payloads [][]byte, reps []int64, self bool) {
	src := s.src
	l := s.lanes[src.IntN(len(s.lanes))]
	rep := []int64{1, 1, 2, 40}[src.IntN(4)]
	response := func() []byte { return l.responses[src.IntN(len(l.responses))] }
	switch r := src.Float64(); {
	case r < 0.01 && l.port != reflector.ChargenPort:
		// Self-addressed, service port to service port, Linux band: the
		// request marks the destination a scanner mid-train.
		x := s.pick(s.cold)
		hdr = packet.NewDatagram(x, l.port, x, l.port, nil)
		hdr.IP.TTL = 50
		for n := 1 + src.IntN(3); n > 0; n-- {
			payloads, reps = s.add(payloads, reps, response(), rep)
		}
		payloads, reps = append(payloads, l.request), append(reps, 1)
		for n := 1 + src.IntN(3); n > 0; n-- {
			payloads, reps = s.add(payloads, reps, response(), rep)
		}
		self = true
	case r < 0.18:
		// Triggers toward an amplifier: spoofed from the Windows band, or a
		// real prober's Linux-band probe.
		from, ttl := s.pick(s.hot), uint8(100+src.IntN(20))
		if src.Bool(0.3) {
			from, ttl = s.pick(s.probers), uint8(40+src.IntN(20))
		}
		hdr = packet.NewDatagram(from, 47001, s.pick(s.amps), l.port, nil)
		hdr.IP.TTL = ttl
		for n := 1 + src.IntN(4); n > 0; n-- {
			payloads, reps = s.add(payloads, reps, l.request, rep)
		}
	default:
		// Reflections onto a victim, or harvest backscatter to a prober.
		to := s.pick(s.cold)
		switch r := src.Float64(); {
		case r < 0.45:
			to = s.pick(s.hot)
		case r < 0.55:
			to = s.pick(s.probers)
		}
		hdr = packet.NewDatagram(s.pick(s.amps), l.port, to, []uint16{80, 443, 27015}[src.IntN(3)], nil)
		hdr.IP.TTL = 50
		for n := 1 + src.IntN(12); n > 0; n-- {
			p := response()
			switch r := src.Float64(); {
			case r < 0.05:
				p = l.request // counted but ingested nowhere, or dropped
			case r < 0.08:
				p = s.client
			}
			payloads, reps = s.add(payloads, reps, p, rep)
		}
	}
	hdr.Rep = 0
	return hdr, payloads, reps, self
}

// TestTrainMatchesOnePayloadCalls is the differential wall for the detector's
// train path: a seeded random stream fed to one detector as whole trains and
// to a twin as one-payload calls must leave equal summaries, top-k rows with
// their errors, metrics, and per-victim states with every float by its bits,
// under a perfect vantage, 1-in-4 sampling and collector outages.
func TestTrainMatchesOnePayloadCalls(t *testing.T) {
	for _, v := range []Vantage{{}, {SampleN: 4}, {OutageFraction: 0.2}, {SampleN: 4, OutageFraction: 0.2}} {
		t.Run(fmt.Sprintf("sample=%d,outage=%g", v.SampleN, v.OutageFraction), func(t *testing.T) {
			newDetector := func() (*Detector, *metrics.Registry) {
				d := New(Config{Vantage: v})
				reg := metrics.NewRegistry()
				d.SetMetrics(NewMetrics(reg))
				return d, reg
			}
			trains, trainReg := newDetector()
			singles, singleReg := newDetector()

			s := newTrainStream(20140210)
			now := vtime.Epoch
			var selfMarked, pruneMid, onsetMid int
			for i := 0; i < 12000; i++ {
				if s.src.Bool(0.6) {
					now = now.Add(time.Duration(s.src.IntN(600)) * time.Second)
				}
				hdr, payloads, reps, self := s.next()
				trains.ObserveTrain(hdr, payloads, reps, now)

				// The one-payload twin is the reference, so it also counts
				// which branches of the train path the stream reached.
				ingests, alarms := singles.ingests, len(singles.alarms)
				marked, suppressed := singles.scanners.Has(hdr.IP.Dst), singles.suppressed
				for j := range payloads {
					singles.ObserveTrain(hdr, payloads[j:j+1], reps[j:j+1], now)
				}
				if self && !marked && singles.scanners.Has(hdr.IP.Dst) && singles.suppressed > suppressed {
					selfMarked++
				}
				if singles.ingests/pruneEvery > ingests/pruneEvery && singles.ingests%pruneEvery != 0 {
					pruneMid++
				}
				for _, a := range singles.alarms[alarms:] {
					if a.Onset && a.Count < singles.victims[a.Victim].count {
						onsetMid++
					}
				}
			}

			resumed := 0
			for _, st := range singles.victims {
				if st.gapN > 0 {
					resumed++
				}
			}
			evicted := func(rows []HeavyHitter) bool {
				return len(rows) == topK && slices.ContainsFunc(rows, func(h HeavyHitter) bool { return h.Err > 0 })
			}
			if selfMarked < 3 || pruneMid < 1 || onsetMid < 10 || resumed < 3 ||
				!evicted(singles.TopVictims(topK)) || !evicted(singles.TopAmplifiers(topK)) {
				t.Fatalf("random trains miss a branch: %d scanners marked mid-train, %d prunes mid-train, "+
					"%d onsets mid-train, %d victims resumed after a pulse gap, evictions %v/%v",
					selfMarked, pruneMid, onsetMid, resumed,
					evicted(singles.TopVictims(topK)), evicted(singles.TopAmplifiers(topK)))
			}
			for _, l := range Lanes() {
				if singles.lanes[l].responses == 0 || singles.lanes[l].reflected == 0 {
					t.Fatalf("lane %v saw no reflections", l)
				}
			}

			if a, b := dumpDetector(trains), dumpDetector(singles); a != b {
				t.Errorf("detector state differs: %s", lineDiff(a, b))
			}
			for _, n := range []int{topK, 5} {
				if a, b := trains.TopVictims(n), singles.TopVictims(n); !reflect.DeepEqual(a, b) {
					t.Errorf("TopVictims(%d): trains %v, singles %v", n, a, b)
				}
				if a, b := trains.TopAmplifiers(n), singles.TopAmplifiers(n); !reflect.DeepEqual(a, b) {
					t.Errorf("TopAmplifiers(%d): trains %v, singles %v", n, a, b)
				}
			}
			end := now.Add(12 * time.Hour)
			if a, b := trains.Summarize(end), singles.Summarize(end); !reflect.DeepEqual(a, b) {
				t.Errorf("summaries differ:\n  trains  %+v\n  singles %+v", a, b)
			}
			if a, b := dumpDetector(trains), dumpDetector(singles); a != b {
				t.Errorf("detector state after Summarize differs: %s", lineDiff(a, b))
			}
			if a, b := writeText(t, trainReg), writeText(t, singleReg); a != b {
				t.Errorf("metrics differ: %s", lineDiff(a, b))
			}
		})
	}
}

// dumpDetector renders a detector's stream accounting, scanner set, sorted
// alarms and every per-victim state, floats by their bits.
func dumpDetector(d *Detector) string {
	var b strings.Builder
	fmt.Fprintf(&b, "packets=%d responses=%d requests=%d reflected=%d suppressed=%d ingests=%d phase=%d lanes=%v\n",
		d.packets, d.responses, d.requests, d.reflected, d.suppressed, d.ingests, d.samplePhase, d.lanes)
	fmt.Fprintf(&b, "scanners %v\n", d.scanners.Sorted())
	for _, a := range d.Alarms() {
		fmt.Fprintf(&b, "alarm onset=%v %v port=%d %s at=%d count=%d rate=%016x conf=%016x\n", a.Onset, a.Victim,
			a.Port, a.Vector, a.At.UnixNano(), a.Count, math.Float64bits(a.Rate), math.Float64bits(a.Confidence))
	}
	addrs := make([]netaddr.Addr, 0, len(d.victims))
	for a := range d.victims {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		st := d.victims[a]
		fmt.Fprintf(&b, "victim %v first=%d last=%d count=%d bytes=%d port=%d rate=%016x active=%v alarmed=%v lanes=%v gap=%016x gapN=%d\n",
			a, st.first.UnixNano(), st.last.UnixNano(), st.count, st.bytes, st.port, math.Float64bits(st.rate),
			st.active, st.alarmed, st.laneRep, math.Float64bits(st.gapEWMA), st.gapN)
	}
	return b.String()
}

// lineDiff names the first line at which two dumps differ.
func lineDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  trains  %s\n  singles %s", i, al[i], bl[i])
		}
	}
	return fmt.Sprintf("trains %d lines, singles %d", len(al), len(bl))
}

func writeText(t *testing.T, reg *metrics.Registry) string {
	t.Helper()
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// BenchmarkDetectorObserveTrain times the tap's train path: each op is one
// 100-fragment monlist reply train, every fragment at Rep 40, to a victim
// the warm detector already holds active.
func BenchmarkDetectorObserveTrain(b *testing.B) {
	entries := make([]ntp.MonEntry, 600)
	for i := range entries {
		entries[i] = ntp.MonEntry{Addr: netaddr.Addr(0x0a000001 + i), Mode: ntp.ModeClient, Count: 5}
	}
	payloads := ntp.BuildMonlistResponse(entries, ntp.ImplXNTPD, ntp.ReqMonGetList1)
	if len(payloads) != 100 {
		b.Fatalf("%d fragments, want 100", len(payloads))
	}
	reps := make([]int64, len(payloads))
	for i := range reps {
		reps[i] = 40
	}
	hdr := packet.NewDatagram(amp, ntp.Port, victim, 80, nil)
	hdr.IP.TTL, hdr.Rep = 50, 0

	d := New(DefaultConfig())
	now := vtime.Epoch
	for i := 0; i < 100; i++ {
		now = now.Add(time.Second)
		d.ObserveTrain(hdr, payloads, reps, now)
	}
	if !d.victims[victim].active {
		b.Fatal("victim not active after warm-up")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = now.Add(time.Second)
		d.ObserveTrain(hdr, payloads, reps, now)
	}
}
