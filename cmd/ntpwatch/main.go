// Command ntpwatch runs the streaming detection plane (internal/detect)
// outside the simulation: over a capture file, or live against a real-UDP
// NTP daemon such as cmd/ntpdsim.
//
// Capture mode tails a libpcap file (e.g. one written by the simulation's
// PCAPDir option or by cmd/ntpscan) and replays every packet through the
// detector at capture timestamps, printing onset/offset alarms as they
// fire:
//
//	ntpwatch -pcap monlist-2014-02-11.pcap
//
// Live mode polls a daemon's monitor table with mode 7 monlist queries and
// classifies what the table discloses (the paper's §4 vantage, online):
//
//	ntpdsim -listen 127.0.0.1:11123 -prime 600   # terminal 1
//	ntpwatch -target 127.0.0.1:11123 -polls 3    # terminal 2
//
// SECURITY: only point live mode at daemons you operate; monlist queries
// against third-party servers are abuse traffic.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"time"

	"ntpddos/internal/buildinfo"
	"ntpddos/internal/detect"
	"ntpddos/internal/netaddr"
	"ntpddos/internal/ntp"
	"ntpddos/internal/packet"
	"ntpddos/internal/pcap"
	"ntpddos/internal/report"
)

func main() {
	var (
		pcapPath = flag.String("pcap", "", "replay this capture file through the detector")
		target   = flag.String("target", "", "poll this daemon's monitor table (host:port)")
		polls    = flag.Int("polls", 0, "live mode: stop after N polls (0 = run until interrupted)")
		interval = flag.Duration("interval", 10*time.Second, "live mode: poll spacing")
		topk     = flag.Int("topk", 10, "heavy hitters to print in the final summary")
	)
	showVersion := buildinfo.Flag()
	flag.Parse()
	buildinfo.Handle("ntpwatch", *showVersion)
	switch {
	case *polls < 0:
		badFlag("-polls %d: want 0 (poll until interrupted) or more", *polls)
	case *interval <= 0:
		badFlag("-interval %v: want a positive poll spacing", *interval)
	case *topk < 0:
		badFlag("-topk %d: want 0 or more heavy hitters", *topk)
	}

	d := detect.New(detect.DefaultConfig())
	printer := &alarmPrinter{}

	switch {
	case *pcapPath != "" && *target == "":
		if err := watchPcap(d, printer, *pcapPath); err != nil {
			log.Fatalf("ntpwatch: %v", err)
		}
	case *target != "" && *pcapPath == "":
		if err := watchLive(d, printer, *target, *polls, *interval); err != nil {
			log.Fatalf("ntpwatch: %v", err)
		}
	default:
		fmt.Fprintln(os.Stderr, "ntpwatch: exactly one of -pcap or -target is required")
		flag.Usage()
		os.Exit(2)
	}

	summarize(d, printer, *topk)
}

// badFlag reports an out-of-range flag value and exits 2.
func badFlag(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ntpwatch: bad "+format+"\n", args...)
	os.Exit(2)
}

// alarmPrinter prints each alarm once, as soon as it appears in the
// detector's log.
type alarmPrinter struct {
	seen map[string]bool
	last time.Time
}

func (p *alarmPrinter) drain(d *detect.Detector) {
	if p.seen == nil {
		p.seen = make(map[string]bool)
	}
	for _, a := range d.Alarms() {
		key := fmt.Sprintf("%v|%s|%d|%d", a.Onset, a.Victim, a.Port, a.At.UnixNano())
		if p.seen[key] {
			continue
		}
		p.seen[key] = true
		kind := "ONSET "
		if !a.Onset {
			kind = "OFFSET"
		}
		fmt.Printf("%s %s victim %s port %d  packets=%d rate=%.2f/s\n",
			kind, a.At.Format(time.RFC3339), a.Victim, a.Port, a.Count, a.Rate)
		p.last = a.At
	}
}

// watchPcap replays a capture through the detector at capture timestamps.
func watchPcap(d *detect.Detector, p *alarmPrinter, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := pcap.NewReader(f)
	if err != nil {
		return err
	}
	var read, decoded int
	var last time.Time
	var one [1][]byte // each datagram is fed as a one-payload train of Rep 1
	reps := [1]int64{1}
	for {
		pkt, err := r.ReadPacket()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return fmt.Errorf("%s: packet %d: %w", path, read+1, err)
		}
		read++
		dg, err := packet.DecodeDatagram(pkt.Data)
		if err != nil {
			continue // non-UDP or truncated; the tap skips what it can't parse
		}
		decoded++
		last = pkt.Timestamp
		one[0], dg.Payload = dg.Payload, nil
		d.ObserveTrain(dg, one[:], reps[:], pkt.Timestamp)
		if decoded%1024 == 0 {
			p.drain(d)
		}
	}
	if !last.IsZero() {
		d.Flush(last)
	}
	p.drain(d)
	fmt.Fprintf(os.Stderr, "ntpwatch: %s: %d packets read, %d UDP datagrams fed to the detector\n",
		path, read, decoded)
	return nil
}

// watchLive polls a real daemon's monitor table and folds each disclosed
// entry into the detector (the paper's offline classifier, applied online).
func watchLive(d *detect.Detector, p *alarmPrinter, target string, polls int, interval time.Duration) error {
	raddr, err := net.ResolveUDPAddr("udp4", target)
	if err != nil {
		return err
	}
	conn, err := net.DialUDP("udp4", nil, raddr)
	if err != nil {
		return err
	}
	defer conn.Close()
	amp, ok := udpToAddr(raddr)
	if !ok {
		return fmt.Errorf("%s: not an IPv4 target", target)
	}
	// Our own queries land in the daemon's monitor table as mode 7 entries
	// and would classify as a victim after a few polls — exactly the probe
	// self-exclusion the paper's pipeline applies (core.ClassifyEntry's
	// probeAddr). Mark the local address through the scanner path instead.
	if laddr, ok := conn.LocalAddr().(*net.UDPAddr); ok {
		if self, ok := udpToAddr(laddr); ok {
			d.IngestScannerSighting(self)
		}
	}
	fmt.Fprintf(os.Stderr, "ntpwatch: polling %s every %v\n", raddr, interval)

	query := ntp.NewMonlistRequest(ntp.ImplXNTPD, ntp.ReqMonGetList1)
	buf := make([]byte, 2048)
	for i := 0; polls == 0 || i < polls; i++ {
		if i > 0 {
			time.Sleep(interval)
		}
		if _, err := conn.Write(query); err != nil {
			return err
		}
		// A populated table answers in several ~500-byte fragments; read
		// until the daemon goes quiet.
		entries := 0
		for {
			conn.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
			n, err := conn.Read(buf)
			if err != nil {
				break // deadline: fragment train is over
			}
			_, monEntries, perr := ntp.ParseMonlistResponse(buf[:n])
			if perr != nil {
				continue
			}
			now := time.Now().UTC()
			for _, e := range monEntries {
				d.IngestMonEntry(amp, e, now)
			}
			entries += len(monEntries)
		}
		fmt.Fprintf(os.Stderr, "ntpwatch: poll %d: %d monitor entries\n", i+1, entries)
		p.drain(d)
	}
	return nil
}

// summarize prints the end-of-stream heavy-hitter rankings.
func summarize(d *detect.Detector, p *alarmPrinter, topk int) {
	now := p.last
	if now.IsZero() {
		now = time.Now().UTC()
	}
	sum := d.Summarize(now)
	p.drain(d)
	fmt.Printf("\n%d victims, %d alarms; %s reflected bytes in %s response packets; %d scanners marked (HLL %.0f)\n",
		len(sum.Victims), len(sum.Alarms), report.SI(float64(sum.ReflectedBytes)),
		report.SI(float64(sum.Responses)), sum.ScannersMarked, sum.ScannerEstimate)
	if len(sum.TopVictims) > 0 {
		fmt.Printf("top victims by reflected bytes:\n")
		for i, hh := range sum.TopVictims {
			if i >= topk {
				break
			}
			fmt.Printf("  %-15s %12sB (±%s)\n", hh.Addr, report.SI(float64(hh.Bytes)), report.SI(float64(hh.Err)))
		}
	}
	if len(sum.TopAmplifiers) > 0 {
		fmt.Printf("top amplifiers by reflected bytes:\n")
		for i, hh := range sum.TopAmplifiers {
			if i >= topk {
				break
			}
			fmt.Printf("  %-15s %12sB (±%s)\n", hh.Addr, report.SI(float64(hh.Bytes)), report.SI(float64(hh.Err)))
		}
	}
}

// udpToAddr converts a real IPv4 UDP peer to the library's address type.
func udpToAddr(u *net.UDPAddr) (netaddr.Addr, bool) {
	v4 := u.IP.To4()
	if v4 == nil {
		return 0, false
	}
	return netaddr.Addr(uint32(v4[0])<<24 | uint32(v4[1])<<16 | uint32(v4[2])<<8 | uint32(v4[3])), true
}
