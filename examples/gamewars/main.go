// Game wars: §4.3.2's finding that NTP DDoS was substantially a gamer
// phenomenon — Xbox Live, Minecraft, Steam and friends dominate the
// attacked ports, and half the victims are residential lines.
//
//	go run ./examples/gamewars
//
// Uses the booter-service model of §5.2: rival players buy attacks from a
// storefront, and the port mix of what they order is recovered from the
// amplifiers' monitor tables.
package main

import (
	"fmt"
	"os"
	"time"

	"ntpddos/internal/attack"
	"ntpddos/internal/booter"
	"ntpddos/internal/core"
	"ntpddos/internal/netaddr"
	"ntpddos/internal/netsim"
	"ntpddos/internal/ntp"
	"ntpddos/internal/ntpd"
	"ntpddos/internal/rng"
	"ntpddos/internal/scan"
	"ntpddos/internal/stats"
	"ntpddos/internal/vtime"
)

func main() {
	sched := vtime.NewScheduler()
	nw := netsim.New(sched, nil)
	src := rng.New(11)

	// Forty harvested amplifiers.
	var amps []netaddr.Addr
	for i := 0; i < 40; i++ {
		addr := netaddr.Addr(0x0a020001 + uint32(i)*256)
		nw.Register(addr, ntpd.New(ntpd.Config{Addr: addr, MonlistEnabled: true,
			Profile: ntpd.Profile{TTL: 64}}))
		amps = append(amps, addr)
	}

	// The storefront and its clientele.
	engine := attack.NewEngine(nw, src, []netaddr.Addr{netaddr.MustParseAddr("192.0.2.1")})
	svc := booter.New("quantumstresser", engine, src.Fork("booter"))
	svc.Amplifiers = amps

	customers := []string{"xXsniperXx", "saltyduelist", "minecraftgriefer", "cs_rival", "extortion_biz"}
	for _, c := range customers {
		tier := "bronze"
		if src.Bool(0.3) {
			tier = "silver"
		}
		if err := svc.Subscribe(c, tier, sched.Now()); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}

	// A week of grudges: orders arrive with the Table 4 port mix and the
	// diurnal rhythm of humans picking fights in the evening.
	var launched int
	for day := 0; day < 7; day++ {
		for i := 0; i < 30; i++ {
			at := sched.Now().Add(time.Duration(attack.SampleStartHour(src))*time.Hour +
				time.Duration(src.IntN(3600))*time.Second)
			customer := customers[src.IntN(len(customers))]
			victim := netaddr.Addr(0xCB007100 + uint32(src.IntN(200))) // 203.0.113.x neighbourhood
			port := attack.SamplePort(src)
			sched.At(at, func(now time.Time) {
				o := svc.PlaceOrder(customer, victim, port, 120+src.IntN(600), now)
				if o.Launched {
					launched++
				}
			})
		}
		sched.RunUntil(sched.Now().Add(24 * time.Hour))
	}
	sched.RunUntil(sched.Now().Add(6 * time.Hour))

	// The measurement side sees none of the storefront — only the tables.
	prober := scan.NewProber(netaddr.MustParseAddr("198.51.100.5"), 57915)
	nw.Register(prober.Addr, prober)
	survey := &scan.Survey{Prober: prober, Network: nw, Kind: "monlist",
		DstPort: ntp.Port, Duration: time.Minute,
		Payload: ntp.NewMonlistRequest(ntp.ImplXNTPD, ntp.ReqMonGetList1)}
	analysis := core.AnalyzeSample(survey.RunSample(sched.Now(), amps), prober.Addr)

	ports := stats.NewHistogram()
	for _, v := range analysis.Victims {
		ports.Add(int(v.Port), 1)
	}
	st := svc.Report(3)
	fmt.Printf("storefront: %d orders, %d launched, $%.0f revenue\n\n",
		st.Orders, st.Launched, st.RevenueUSD)
	fmt.Printf("recovered from monitor tables (%d victims):\n", analysis.VictimSet().Len())
	fmt.Printf("%4s %-8s %8s %s\n", "rank", "port", "share", "")
	gameShare := 0.0
	for i, bin := range ports.TopK(10) {
		tag := ""
		if attack.IsGamePort(uint16(bin.Value)) {
			tag = "game"
			gameShare += bin.Fraction
		}
		fmt.Printf("%4d %-8d %7.1f%% %s\n", i+1, bin.Value, bin.Fraction*100, tag)
	}
	fmt.Printf("\ngame-associated share of top-10 attacked ports: %.0f%%\n", gameShare*100)
	fmt.Println("paper: \"a large fraction of NTP DDoS attacks are perpetrated against gamers\"")
}
