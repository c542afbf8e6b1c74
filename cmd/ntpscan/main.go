// Command ntpscan probes NTP servers over real UDP for the two
// amplification vectors the paper measures — exactly what the
// OpenNTPProject-style surveys did, one packet per target:
//
//	ntpscan -target 127.0.0.1:11123 -mode monlist
//	ntpscan -target 127.0.0.1:11123 -mode version
//	ntpscan -cidr 192.0.2.0/28 -mode monlist   # zmap-style sweep, port 123
//
// For every responder it reports packets, aggregate on-wire bytes and the
// on-wire bandwidth amplification factor (84-byte probe denominator), and
// for monlist responders it reconstructs and prints the monitor table —
// the same parsing the paper's §4 victim analysis applies.
//
// AUTHORIZATION: only scan hosts and networks you own or are explicitly
// permitted to test (e.g. an ntpdsim instance on localhost).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"ntpddos/internal/buildinfo"
	"ntpddos/internal/core"
	"ntpddos/internal/metrics"
	"ntpddos/internal/netaddr"
	"ntpddos/internal/ntp"
	"ntpddos/internal/packet"
	"ntpddos/internal/scan"
)

func main() {
	var (
		target      = flag.String("target", "", "single target host:port")
		cidr        = flag.String("cidr", "", "CIDR block to sweep on port 123 (zmap-style order)")
		mode        = flag.String("mode", "monlist", "probe type: monlist | version")
		wait        = flag.Duration("wait", 2*time.Second, "response collection window per batch")
		showTab     = flag.Bool("table", true, "print reconstructed monlist tables")
		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus /metrics and /healthz on this address for the scan's duration (e.g. :9124)")
	)
	showVersion := buildinfo.Flag()
	flag.Parse()
	buildinfo.Handle("ntpscan", *showVersion)
	if *wait <= 0 {
		fmt.Fprintf(os.Stderr, "ntpscan: bad -wait %v: want a positive response window\n", *wait)
		os.Exit(2)
	}

	// Sweep instrumentation: the same ntpsim_scan_* families the simulated
	// surveys export, labeled by probe kind.
	var scanM *scan.Metrics
	if *metricsAddr != "" {
		reg := metrics.NewRegistry()
		metrics.RegisterGoRuntime(reg)
		scanM = scan.NewMetrics(reg)
		exp, err := metrics.Serve(*metricsAddr, reg)
		if err != nil {
			log.Fatalf("ntpscan: metrics exporter: %v", err)
		}
		fmt.Fprintf(os.Stderr, "ntpscan: serving metrics on http://%s/metrics\n", exp.Addr())
		exp.SetReady(true)
		defer func() {
			exp.SetReady(false)
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			exp.Shutdown(ctx)
		}()
	}

	var probe []byte
	switch *mode {
	case "monlist":
		probe = ntp.NewMonlistRequest(ntp.ImplXNTPD, ntp.ReqMonGetList1)
	case "version":
		probe = ntp.NewReadVarRequest(1)
	default:
		log.Fatalf("ntpscan: unknown mode %q", *mode)
	}

	targets, err := resolveTargets(*target, *cidr)
	if err != nil {
		log.Fatalf("ntpscan: %v", err)
	}
	if len(targets) == 0 {
		log.Fatal("ntpscan: need -target or -cidr")
	}

	// Pre-resolved per-kind children; all nil (and therefore no-ops) when the
	// exporter is off.
	var probes, respPkts, respBytes, sweeps *metrics.Counter
	var responders *metrics.Gauge
	if scanM != nil {
		probes = scanM.Probes.With(*mode)
		respPkts = scanM.RespPkts.With(*mode)
		respBytes = scanM.RespBytes.With(*mode)
		responders = scanM.Responders.With(*mode)
		sweeps = scanM.Sweeps.With(*mode)
	}

	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4zero})
	if err != nil {
		log.Fatalf("ntpscan: %v", err)
	}
	defer conn.Close()

	for _, t := range targets {
		if _, err := conn.WriteToUDP(probe, t); err != nil {
			fmt.Fprintf(os.Stderr, "ntpscan: send %s: %v\n", t, err)
			continue
		}
		probes.Inc()
	}
	fmt.Fprintf(os.Stderr, "ntpscan: sent %d %s probes, collecting for %v...\n",
		len(targets), *mode, *wait)

	type result struct {
		packets  int
		bytes    int
		payloads [][]byte
	}
	results := map[string]*result{}
	deadline := time.Now().Add(*wait)
	buf := make([]byte, 65535)
	for {
		conn.SetReadDeadline(deadline)
		n, peer, err := conn.ReadFromUDP(buf)
		if err != nil {
			break // deadline reached
		}
		r, ok := results[peer.String()]
		if !ok {
			r = &result{}
			results[peer.String()] = r
			responders.SetInt(int64(len(results)))
		}
		r.packets++
		r.bytes += packet.OnWireBytesForUDPPayload(n)
		pl := make([]byte, n)
		copy(pl, buf[:n])
		r.payloads = append(r.payloads, pl)
		respPkts.Inc()
		respBytes.Add(int64(packet.OnWireBytesForUDPPayload(n)))
	}
	sweeps.Inc()

	fmt.Printf("%-22s %8s %10s %8s\n", "responder", "packets", "wire_bytes", "BAF")
	for peer, r := range results {
		baf := float64(r.bytes) / float64(packet.MinOnWire)
		fmt.Printf("%-22s %8d %10d %8.1f\n", peer, r.packets, r.bytes, baf)
		switch *mode {
		case "monlist":
			if *showTab {
				printTable(r.payloads)
			}
		case "version":
			printVersion(r.payloads)
		}
	}
	if len(results) == 0 {
		fmt.Println("no responders (patched daemons drop restricted queries silently)")
	}
}

func printTable(payloads [][]byte) {
	view, err := core.RebuildTable(payloads)
	if err != nil || len(view.Entries) == 0 {
		return
	}
	fmt.Printf("  monitor table: %d entries (%d copies seen)\n", len(view.Entries), view.Copies)
	fmt.Printf("  %-18s %6s %8s %4s %8s %8s\n", "address", "port", "count", "mode", "avg_int", "last")
	for i, e := range view.Entries {
		if i >= 15 {
			fmt.Printf("  ... %d more\n", len(view.Entries)-15)
			break
		}
		fmt.Printf("  %-18s %6d %8d %4d %8d %8d\n",
			e.Addr, e.Port, e.Count, e.Mode, e.AvgInterval, e.LastSeen)
	}
}

func printVersion(payloads [][]byte) {
	info, ok := core.ParseVersionResponses(0, payloads)
	if !ok {
		return
	}
	fmt.Printf("  system=%q version=%q stratum=%d\n", info.System, info.Version, info.Stratum)
}

// resolveTargets builds the probe list from -target and -cidr.
func resolveTargets(target, cidr string) ([]*net.UDPAddr, error) {
	var out []*net.UDPAddr
	if target != "" {
		a, err := net.ResolveUDPAddr("udp4", target)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	if cidr != "" {
		prefix, err := netaddr.ParsePrefix(cidr)
		if err != nil {
			return nil, err
		}
		if prefix.NumAddrs() > 1<<16 {
			return nil, fmt.Errorf("refusing to sweep more than a /16 (%s)", cidr)
		}
		// zmap-style full-cycle permutation: no destination network sees a
		// burst of consecutive probes.
		perm := scan.NewPermutation(prefix.NumAddrs(), 1)
		for {
			i, ok := perm.Next()
			if !ok {
				break
			}
			a := prefix.Nth(i)
			o := a.Octets()
			out = append(out, &net.UDPAddr{IP: net.IPv4(o[0], o[1], o[2], o[3]), Port: ntp.Port})
		}
	}
	return out, nil
}
