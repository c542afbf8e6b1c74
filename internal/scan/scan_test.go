package scan_test

import (
	"testing"
	"testing/quick"
	"time"

	"ntpddos/internal/netaddr"
	"ntpddos/internal/netsim"
	"ntpddos/internal/ntp"
	"ntpddos/internal/ntpd"
	"ntpddos/internal/packet"
	"ntpddos/internal/scan"
	"ntpddos/internal/vtime"
)

func TestPermutationIsFullCycle(t *testing.T) {
	for _, n := range []uint64{1, 2, 7, 100, 1000, 4096} {
		p := scan.NewPermutation(n, 12345)
		seen := make(map[uint64]bool, n)
		for {
			v, ok := p.Next()
			if !ok {
				break
			}
			if v >= n {
				t.Fatalf("n=%d: out-of-range value %d", n, v)
			}
			if seen[v] {
				t.Fatalf("n=%d: duplicate value %d", n, v)
			}
			seen[v] = true
		}
		if uint64(len(seen)) != n {
			t.Fatalf("n=%d: visited %d values", n, len(seen))
		}
	}
}

func TestPermutationProperty(t *testing.T) {
	f := func(nRaw uint16, seed uint64) bool {
		n := uint64(nRaw%2000) + 1
		p := scan.NewPermutation(n, seed)
		seen := make(map[uint64]bool, n)
		for {
			v, ok := p.Next()
			if !ok {
				break
			}
			if v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return uint64(len(seen)) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPermutationNotIdentity(t *testing.T) {
	p := scan.NewPermutation(1000, 99)
	inOrder := 0
	for i := uint64(0); ; i++ {
		v, ok := p.Next()
		if !ok {
			break
		}
		if v == i {
			inOrder++
		}
	}
	if inOrder > 20 {
		t.Fatalf("%d/1000 elements in identity position; not a scan-friendly shuffle", inOrder)
	}
}

func TestPermutationReset(t *testing.T) {
	p := scan.NewPermutation(50, 3)
	var first []uint64
	for {
		v, ok := p.Next()
		if !ok {
			break
		}
		first = append(first, v)
	}
	p.Reset()
	for i := range first {
		v, ok := p.Next()
		if !ok || v != first[i] {
			t.Fatalf("reset sequence diverges at %d", i)
		}
	}
}

func harness() (*netsim.Network, *vtime.Scheduler) {
	sched := vtime.NewScheduler()
	return netsim.New(sched, nil), sched
}

func TestSweepFindsAmplifiers(t *testing.T) {
	nw, sched := harness()
	// Three servers: vulnerable, patched, and a plain (mode-6-only) one.
	vuln := ntpd.New(ntpd.Config{Addr: netaddr.MustParseAddr("10.0.0.10"),
		MonlistEnabled: true, Profile: ntpd.Profile{TTL: 64}})
	patched := ntpd.New(ntpd.Config{Addr: netaddr.MustParseAddr("10.0.0.11"),
		MonlistEnabled: false, Profile: ntpd.Profile{TTL: 64}})
	plain := ntpd.New(ntpd.Config{Addr: netaddr.MustParseAddr("10.0.0.12"),
		Mode6Enabled: true, Profile: ntpd.Profile{TTL: 255, SystemString: "cisco"}})
	for _, s := range []*ntpd.Server{vuln, patched, plain} {
		nw.Register(s.Addr(), s)
	}
	prober := scan.NewProber(netaddr.MustParseAddr("198.51.100.5"), 57915)
	nw.Register(prober.Addr, prober)

	targets := []netaddr.Addr{vuln.Addr(), patched.Addr(), plain.Addr(),
		netaddr.MustParseAddr("10.0.0.99") /* dark */}
	prober.Sweep(nw, targets, ntp.Port, ntp.NewMonlistRequest(ntp.ImplXNTPD, ntp.ReqMonGetList1),
		nw.Now(), time.Minute)
	sched.Drain()

	if prober.Sent != 4 {
		t.Fatalf("sent %d probes, want 4", prober.Sent)
	}
	resp := prober.Responses()
	if len(resp) != 1 {
		t.Fatalf("%d responders, want only the vulnerable server", len(resp))
	}
	r, ok := resp[vuln.Addr()]
	if !ok || r.Packets == 0 || r.Bytes == 0 {
		t.Fatalf("vulnerable server response = %+v", r)
	}
	if len(r.Payloads) == 0 || len(r.TTLs) != len(r.Payloads) {
		t.Fatal("payloads not retained")
	}
}

func TestSurveyWeeklySamples(t *testing.T) {
	nw, sched := harness()
	vuln := ntpd.New(ntpd.Config{Addr: netaddr.MustParseAddr("10.0.0.10"),
		MonlistEnabled: true, Profile: ntpd.Profile{TTL: 64}})
	nw.Register(vuln.Addr(), vuln)
	prober := scan.NewProber(netaddr.MustParseAddr("198.51.100.5"), 57915)
	nw.Register(prober.Addr, prober)

	survey := &scan.Survey{
		Prober: prober, Network: nw, Kind: "monlist", DstPort: ntp.Port,
		Payload:  ntp.NewMonlistRequest(ntp.ImplXNTPD, ntp.ReqMonGetList1),
		Duration: time.Hour,
	}
	targets := []netaddr.Addr{vuln.Addr()}

	s1 := survey.RunSample(nw.Now(), targets)
	if s1.NumResponders() != 1 {
		t.Fatalf("sample 1: %d responders", s1.NumResponders())
	}
	// Patch between samples: the second pass must see zero responders.
	vuln.Patch()
	sched.RunUntil(nw.Now().Add(7 * 24 * time.Hour))
	s2 := survey.RunSample(nw.Now(), targets)
	if s2.NumResponders() != 0 {
		t.Fatalf("sample 2: %d responders after patch", s2.NumResponders())
	}
	if len(survey.Samples) != 2 {
		t.Fatalf("survey kept %d samples", len(survey.Samples))
	}
}

func TestProberRepWeightedAccounting(t *testing.T) {
	nw, sched := harness()
	prober := scan.NewProber(netaddr.MustParseAddr("198.51.100.5"), 57915)
	nw.Register(prober.Addr, prober)
	sender := netaddr.MustParseAddr("10.0.0.1")
	dg := packet.NewDatagram(sender, 123, prober.Addr, 57915, make([]byte, 100))
	dg.Rep = 50
	nw.SendFrom(sender, dg)
	sched.Drain()
	r := prober.Responses()[sender]
	if r == nil || r.Packets != 50 {
		t.Fatalf("Rep-weighted packets = %+v", r)
	}
	if r.Bytes != int64(dg.OnWire())*50 {
		t.Fatalf("Rep-weighted bytes = %d", r.Bytes)
	}
}

func TestProberPayloadCap(t *testing.T) {
	nw, sched := harness()
	prober := scan.NewProber(netaddr.MustParseAddr("198.51.100.5"), 57915)
	prober.MaxPayloadsPerTarget = 3
	nw.Register(prober.Addr, prober)
	sender := netaddr.MustParseAddr("10.0.0.1")
	for i := 0; i < 10; i++ {
		nw.SendUDP(sender, 123, prober.Addr, 57915, netsim.TTLLinux, []byte{byte(i)})
	}
	sched.Drain()
	r := prober.Responses()[sender]
	if r.Packets != 10 {
		t.Fatalf("packets = %d", r.Packets)
	}
	if len(r.Payloads) != 3 {
		t.Fatalf("retained %d payloads, cap is 3", len(r.Payloads))
	}
}

func TestSweepSpreadsInTime(t *testing.T) {
	nw, _ := harness()
	prober := scan.NewProber(netaddr.MustParseAddr("198.51.100.5"), 57915)
	nw.Register(prober.Addr, prober)
	var times []time.Time
	dst := netaddr.MustParseAddr("10.0.0.10")
	nw.Register(dst, netsim.HostFunc(func(_ *netsim.Network, _ *packet.Datagram, now time.Time) {
		times = append(times, now)
	}))
	targets := make([]netaddr.Addr, 100)
	for i := range targets {
		targets[i] = dst // all to one host so we can watch arrival spread
	}
	prober.Sweep(nw, targets, 123, []byte("x"), nw.Now(), 100*time.Second)
	nw.Scheduler().Drain()
	if len(times) != 100 {
		t.Fatalf("%d arrivals", len(times))
	}
	spread := times[len(times)-1].Sub(times[0])
	if spread < 90*time.Second {
		t.Fatalf("probe spread = %v, want ≈100s", spread)
	}
}

func TestShardsPartitionThePermutation(t *testing.T) {
	const size, seed, shards = 1000, 7, 4
	seen := make(map[uint64]int, size)
	for sh := uint64(0); sh < shards; sh++ {
		s := scan.NewShard(size, seed, sh, shards)
		for {
			v, ok := s.Next()
			if !ok {
				break
			}
			seen[v]++
		}
	}
	if len(seen) != size {
		t.Fatalf("shards covered %d of %d indices", len(seen), size)
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("index %d appeared %d times across shards", v, n)
		}
	}
}

func TestShardSizesBalanced(t *testing.T) {
	const size, shards = 10000, 8
	counts := make([]int, shards)
	for sh := uint64(0); sh < shards; sh++ {
		s := scan.NewShard(size, 3, sh, shards)
		for {
			if _, ok := s.Next(); !ok {
				break
			}
			counts[sh]++
		}
	}
	for sh, n := range counts {
		if n < size/shards-1 || n > size/shards+1 {
			t.Fatalf("shard %d has %d indices, want ~%d", sh, n, size/shards)
		}
	}
}

func TestShardPanicsOnBadIndex(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shard >= shards accepted")
		}
	}()
	scan.NewShard(100, 1, 4, 4)
}
