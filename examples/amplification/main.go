// Amplification: the §3 mechanics on a three-host fabric — how one 84-byte
// spoofed packet turns into kilobytes (or gigabytes) at the victim.
//
//	go run ./examples/amplification
//
// Builds a vulnerable daemon, measures its bandwidth amplification factor
// unprimed, primed (600-entry table), and with the §3.4 mega-amplifier
// replay flaw, using real encoded packets over the simulated fabric.
package main

import (
	"fmt"
	"time"

	"ntpddos/internal/netaddr"
	"ntpddos/internal/netsim"
	"ntpddos/internal/ntp"
	"ntpddos/internal/ntpd"
	"ntpddos/internal/packet"
	"ntpddos/internal/vtime"
)

// measure sends one monlist probe at the server and returns what came back.
func measure(cfg ntpd.Config, prime int) (packets int64, bytes int64) {
	sched := vtime.NewScheduler()
	nw := netsim.New(sched, nil)

	srv := ntpd.New(cfg)
	nw.Register(srv.Addr(), srv)
	for i := 0; i < prime; i++ {
		srv.Record(netaddr.Addr(0x0a000000+uint32(i)), ntp.Port, ntp.ModeClient, 4, 1, sched.Now())
	}

	victim := netaddr.MustParseAddr("203.0.113.7")
	nw.Register(victim, netsim.HostFunc(func(_ *netsim.Network, dg *packet.Datagram, _ time.Time) {
		packets += dg.Rep
		bytes += int64(dg.OnWire()) * dg.Rep
	}))

	// One spoofed trigger from a bot: source forged to the victim.
	bot := netaddr.MustParseAddr("192.0.2.50")
	nw.SendSpoofed(bot, victim, 80, srv.Addr(), ntp.Port, netsim.TTLWindows,
		ntp.NewMonlistRequest(ntp.ImplXNTPD, ntp.ReqMonGetList1))
	sched.Drain()
	return packets, bytes
}

func main() {
	base := ntpd.Config{
		Addr:           netaddr.MustParseAddr("198.51.100.10"),
		MonlistEnabled: true,
		Profile:        ntpd.Profile{SystemString: "linux", TTL: 64},
	}

	fmt.Printf("one spoofed monlist trigger costs the attacker %d on-wire bytes\n\n", packet.MinOnWire)
	fmt.Printf("%-28s %10s %12s %10s\n", "server state", "packets", "wire_bytes", "BAF")

	show := func(name string, cfg ntpd.Config, prime int) {
		p, b := measure(cfg, prime)
		fmt.Printf("%-28s %10d %12d %10.1f\n", name, p, b, float64(b)/float64(packet.MinOnWire))
	}

	show("fresh table (no clients)", base, 0)
	show("typical table (6 clients)", base, 6)
	show("primed table (600 clients)", base, 600)

	mega := base
	mega.MegaAmp = true
	mega.MegaRepeats = 100000
	mega.MegaEvents = 50
	mega.MegaInterval = time.Second
	show("mega amplifier (§3.4 flaw)", mega, 600)

	patched := base
	patched.MonlistEnabled = false
	show("patched (restrict noquery)", patched, 600)

	fmt.Println("\npaper: typical BAF ≈4x, quartile ≥15x, primed ≈600x; megas returned gigabytes")
}
