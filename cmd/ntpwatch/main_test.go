package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ntpddos/internal/clitest"
	"ntpddos/internal/netaddr"
	"ntpddos/internal/ntp"
	"ntpddos/internal/packet"
	"ntpddos/internal/pcap"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

func TestRejectsOutOfRangeFlags(t *testing.T) {
	live := []string{"-target", "127.0.0.1:9"}
	for _, c := range []struct {
		want string
		args []string
	}{
		{"-polls", append(live, "-polls", "-1")},
		{"-interval", append(live, "-interval", "0")},
		{"-interval", append(live, "-interval", "-2s")},
		{"-topk", append(live, "-topk", "-1")},
	} {
		clitest.ExpectUsageError(t, c.want, c.args...)
	}
}

// TestPcapReplayRaisesOnset replays a capture of a reflected monlist flood
// through the detector and expects an onset alarm for the flooded victim.
func TestPcapReplayRaisesOnset(t *testing.T) {
	amp := netaddr.MustParseAddr("198.51.100.7")
	victim := netaddr.MustParseAddr("203.0.113.9")
	entries := make([]ntp.MonEntry, 6)
	for i := range entries {
		entries[i] = ntp.MonEntry{Addr: netaddr.Addr(0x0a000001 + i), Mode: ntp.ModeClient, Count: 5}
	}
	reply := ntp.BuildMonlistResponse(entries, ntp.ImplXNTPD, ntp.ReqMonGetList1)[0]

	path := filepath.Join(t.TempDir(), "flood.pcap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := pcap.NewWriter(f)
	start := time.Date(2014, 2, 11, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 10; i++ {
		dg := packet.NewDatagram(amp, ntp.Port, victim, 80, reply)
		data, err := dg.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WritePacket(pcap.Packet{Timestamp: start.Add(time.Duration(i) * time.Second), Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	code, out := clitest.Run(t, "-pcap", path)
	if code != 0 || !strings.Contains(out, "ONSET") || !strings.Contains(out, "victim "+victim.String()+" port 80") {
		t.Fatalf("exit %d, output %q; want an ONSET line for %s", code, out, victim)
	}
}
