// Victimology: the paper's §4 insight — the monlist table *is* the victim
// dataset. Attack a few victims through amplifiers, then recover who was
// hit, on which ports, for how long, purely from a scan of the amplifiers.
//
//	go run ./examples/victimology
package main

import (
	"fmt"
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

func main() {
	sched := vtime.NewScheduler()
	nw := netsim.New(sched, nil) // no BCP38 anywhere: spoofing works
	src := rng.New(7)

	// Twenty vulnerable daemons with a sprinkling of honest clients.
	var amps []netaddr.Addr
	for i := 0; i < 20; i++ {
		addr := netaddr.Addr(0x0a000101 + uint32(i)*256)
		srv := ntpd.New(ntpd.Config{Addr: addr, MonlistEnabled: true,
			Profile: ntpd.Profile{SystemString: "linux", TTL: 64}})
		for c := 0; c < 2+src.IntN(8); c++ {
			srv.Record(netaddr.Addr(src.Uint32()), ntp.Port, ntp.ModeClient, 4,
				1+int64(src.IntN(20)), sched.Now())
		}
		nw.Register(addr, srv)
		amps = append(amps, addr)
	}

	// Three attacks: a gamer on the Xbox port, a web host on port 80, and
	// a Minecraft server — the §4.3.2 "game wars" pattern.
	engine := attack.NewEngine(nw, src, []netaddr.Addr{netaddr.MustParseAddr("192.0.2.1")})
	targets := []struct {
		victim string
		port   uint16
		rate   float64
		dur    time.Duration
	}{
		{"203.0.113.10", 3074, 1.0 / 10, 2 * time.Hour}, // Xbox Live
		{"198.18.5.77", 80, 2, 30 * time.Minute},        // web host
		{"198.18.9.9", 25565, 0.5, 1 * time.Hour},       // Minecraft
	}
	for i, tgt := range targets {
		engine.Launch(attack.Campaign{
			Victim: netaddr.MustParseAddr(tgt.victim), Port: tgt.port,
			Start:       sched.Now().Add(time.Duration(1+i) * time.Hour),
			Duration:    tgt.dur,
			TriggerRate: tgt.rate,
			Amplifiers:  amps[i*5 : i*5+8],
		})
	}
	sched.RunUntil(sched.Now().Add(8 * time.Hour))

	// The measurement: one monlist probe per amplifier, from one source.
	prober := scan.NewProber(netaddr.MustParseAddr("198.51.100.5"), 57915)
	nw.Register(prober.Addr, prober)
	survey := &scan.Survey{Prober: prober, Network: nw, Kind: "monlist",
		DstPort: ntp.Port, Duration: time.Minute,
		Payload: ntp.NewMonlistRequest(ntp.ImplXNTPD, ntp.ReqMonGetList1)}
	sample := survey.RunSample(sched.Now(), amps)

	// The analysis: rebuild tables, classify entries, derive attack timing.
	analysis := core.AnalyzeSample(sample, prober.Addr)
	fmt.Printf("scanned %d amplifiers; %d responded\n\n", len(amps), len(analysis.Amps))
	fmt.Printf("%-16s %6s %9s %12s %-10s\n", "victim", "port", "packets", "duration", "amplifiers")

	type agg struct {
		packets int64
		dur     time.Duration
		amps    int
		port    uint16
	}
	perVictim := map[netaddr.Addr]*agg{}
	for _, v := range analysis.Victims {
		a, ok := perVictim[v.Victim]
		if !ok {
			a = &agg{port: v.Port}
			perVictim[v.Victim] = a
		}
		a.packets += v.Count
		if v.Duration > a.dur {
			a.dur = v.Duration
		}
		a.amps++
	}
	for _, v := range analysis.VictimSet().Sorted() {
		a := perVictim[v]
		game := ""
		if attack.IsGamePort(a.port) {
			game = "  <- game port"
		}
		fmt.Printf("%-16s %6d %9d %12s %-10d%s\n", v, a.port, a.packets, a.dur.Round(time.Minute), a.amps, game)
	}
	fmt.Printf("\nscanner/low-volume entries filtered out: %d; normal clients: %d\n",
		analysis.ScannerEntries, analysis.NonVictimEntries)
	fmt.Println("everything above was recovered from monlist replies alone — no victim-side vantage needed")
}
