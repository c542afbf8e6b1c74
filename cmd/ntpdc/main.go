// Command ntpdc is a drop-in-feeling replica of the classic ntpdc/ntpq
// query tools for the commands this reproduction implements, printed in the
// original tools' layouts:
//
//	ntpdc -c monlist  127.0.0.1:11123     (mode 7 MON_GETLIST_1)
//	ntpdc -c listpeers 127.0.0.1:11123    (mode 7 REQ_PEER_LIST)
//	ntpdc -c rv       127.0.0.1:11123     (mode 6 readvar, like ntpq -c rv)
//
// Like the real ntpdc, the monlist command tries both implementation
// numbers (XNTPD, then XNTPD_OLD) before giving up — the §3.1 detail whose
// absence made the ONP scans undercount amplifiers by ~9%.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"ntpddos/internal/buildinfo"
	"ntpddos/internal/core"
	"ntpddos/internal/ntp"
)

func main() {
	command := flag.String("c", "monlist", "command: monlist | listpeers | rv")
	wait := flag.Duration("wait", time.Second, "response window")
	showVersion := buildinfo.Flag()
	flag.Parse()
	buildinfo.Handle("ntpdc", *showVersion)
	if *wait <= 0 {
		fmt.Fprintf(os.Stderr, "ntpdc: bad -wait %v: want a positive response window\n", *wait)
		os.Exit(2)
	}
	switch *command {
	case "monlist", "listpeers", "rv":
	default:
		fmt.Fprintf(os.Stderr, "ntpdc: bad -c %q: want monlist, listpeers or rv\n", *command)
		os.Exit(2)
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ntpdc -c <command> host:port")
		os.Exit(2)
	}
	target, err := net.ResolveUDPAddr("udp4", flag.Arg(0))
	if err != nil {
		log.Fatalf("ntpdc: %v", err)
	}

	switch *command {
	case "monlist":
		// Real ntpdc behaviour: try implementation 3, then 2.
		for _, impl := range []uint8{ntp.ImplXNTPD, ntp.ImplXNTPDOld} {
			payloads := query(target, ntp.NewMonlistRequestPadded(impl, ntp.ReqMonGetList1), *wait)
			if len(payloads) == 0 {
				continue
			}
			printMonlist(payloads)
			return
		}
		log.Fatal("ntpdc: timeout (no monlist response from either implementation)")
	case "listpeers":
		payloads := query(target, ntp.NewMonlistRequestPadded(ntp.ImplXNTPD, ntp.ReqPeerList), *wait)
		if len(payloads) == 0 {
			log.Fatal("ntpdc: timeout")
		}
		printPeers(payloads)
	case "rv":
		payloads := query(target, ntp.NewReadVarRequest(1), *wait)
		if len(payloads) == 0 {
			log.Fatal("ntpdc: timeout")
		}
		printReadVar(payloads)
	}
}

func query(target *net.UDPAddr, probe []byte, wait time.Duration) [][]byte {
	conn, err := net.DialUDP("udp4", nil, target)
	if err != nil {
		log.Fatalf("ntpdc: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Write(probe); err != nil {
		log.Fatalf("ntpdc: %v", err)
	}
	var out [][]byte
	buf := make([]byte, 65535)
	deadline := time.Now().Add(wait)
	for {
		conn.SetReadDeadline(deadline)
		n, err := conn.Read(buf)
		if err != nil {
			return out
		}
		pl := make([]byte, n)
		copy(pl, buf[:n])
		out = append(out, pl)
	}
}

func printMonlist(payloads [][]byte) {
	view, err := core.RebuildTable(payloads)
	if err != nil {
		log.Fatalf("ntpdc: %v", err)
	}
	fmt.Println("remote address          port count  m ver  avgint  lstint")
	fmt.Println("===========================================================")
	for _, e := range view.Entries {
		fmt.Printf("%-22s %5d %6d %1d %3d %7d %7d\n",
			e.Addr, e.Port, e.Count, e.Mode, e.Version, e.AvgInterval, e.LastSeen)
	}
}

func printPeers(payloads [][]byte) {
	fmt.Println("remote address          port hmode flags")
	fmt.Println("=========================================")
	for _, p := range payloads {
		_, peers, err := ntp.ParsePeerListResponse(p)
		if err != nil {
			log.Fatalf("ntpdc: %v", err)
		}
		for _, e := range peers {
			fmt.Printf("%-22s %5d %5d %5d\n", e.Addr, e.Port, e.HMode, e.Flags)
		}
	}
}

func printReadVar(payloads [][]byte) {
	var frags []*ntp.Mode6
	for _, p := range payloads {
		m, err := ntp.DecodeMode6(p)
		if err != nil {
			log.Fatalf("ntpdc: %v", err)
		}
		frags = append(frags, m)
	}
	text, err := ntp.ReassembleMode6(frags)
	if err != nil {
		log.Fatalf("ntpdc: %v", err)
	}
	fmt.Println(text)
}
