package core_test

import (
	"bytes"
	"testing"
	"time"

	"ntpddos/internal/attack"
	"ntpddos/internal/core"
	"ntpddos/internal/netaddr"
	"ntpddos/internal/netsim"
	"ntpddos/internal/ntp"
	"ntpddos/internal/ntpd"
	"ntpddos/internal/rng"
	"ntpddos/internal/scan"
	"ntpddos/internal/vtime"
)

// TestPCAPRoundTripAnalysis verifies the dataset-interchange path: a survey
// sample written as a pcap and re-analysed from the file yields the same
// amplifier and victim census as the live analysis.
func TestPCAPRoundTripAnalysis(t *testing.T) {
	sched := vtime.NewScheduler()
	nw := netsim.New(sched, nil)
	src := rng.New(3)

	var amps []netaddr.Addr
	for i := 0; i < 6; i++ {
		addr := netaddr.Addr(0x0a000001 + uint32(i)*256)
		srv := ntpd.New(ntpd.Config{Addr: addr, MonlistEnabled: true,
			Profile: ntpd.Profile{TTL: 64}})
		nw.Register(addr, srv)
		amps = append(amps, addr)
	}
	victim := netaddr.MustParseAddr("203.0.113.50")
	engine := attack.NewEngine(nw, src, []netaddr.Addr{netaddr.MustParseAddr("192.0.2.1")})
	engine.Launch(attack.Campaign{
		Victim: victim, Port: 80, Start: sched.Now().Add(time.Hour),
		Duration: time.Hour, TriggerRate: 0.2, Amplifiers: amps[:4],
	})
	sched.RunUntil(sched.Now().Add(3 * time.Hour))

	prober := scan.NewProber(netaddr.MustParseAddr("198.51.100.5"), 57915)
	nw.Register(prober.Addr, prober)
	survey := &scan.Survey{Prober: prober, Network: nw, Kind: "monlist",
		DstPort: ntp.Port, Duration: time.Minute,
		Payload: ntp.NewMonlistRequest(ntp.ImplXNTPD, ntp.ReqMonGetList1)}
	sample := survey.RunSample(sched.Now(), amps)
	direct := core.AnalyzeSample(sample, prober.Addr)

	var buf bytes.Buffer
	if err := scan.WritePCAP(&buf, sample, prober.Addr, 57915, 1); err != nil {
		t.Fatal(err)
	}
	fromFile, err := core.AnalyzeSamplePCAP(&buf, "monlist", sample.Date, prober.Addr)
	if err != nil {
		t.Fatal(err)
	}

	if len(fromFile.Amps) != len(direct.Amps) {
		t.Fatalf("amplifiers: pcap %d vs live %d", len(fromFile.Amps), len(direct.Amps))
	}
	if got, want := fromFile.VictimSet().Sorted(), direct.VictimSet().Sorted(); len(got) != len(want) {
		t.Fatalf("victims: pcap %d vs live %d", len(got), len(want))
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("victim %d: %v vs %v", i, got[i], want[i])
			}
		}
	}
	if !fromFile.VictimSet().Has(victim) {
		t.Fatal("victim lost in pcap round trip")
	}
	// Per-amplifier table contents must survive the file round trip.
	for addr, rec := range direct.Amps {
		f := fromFile.Amps[addr]
		if f == nil {
			t.Fatalf("amplifier %v missing from pcap analysis", addr)
		}
		if rec.Table != nil && f.Table != nil && len(rec.Table.Entries) != len(f.Table.Entries) {
			t.Fatalf("amplifier %v: table %d vs %d entries", addr,
				len(f.Table.Entries), len(rec.Table.Entries))
		}
	}
}
