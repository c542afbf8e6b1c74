package detect

import (
	"testing"
	"time"

	"ntpddos/internal/netaddr"
	"ntpddos/internal/packet"
	"ntpddos/internal/reflector"
	"ntpddos/internal/vtime"
)

// laneResponse builds a reflected response datagram for a non-NTP lane.
func laneResponse(v reflector.Vector, from, to netaddr.Addr, toPort uint16, rep int64) *packet.Datagram {
	p := reflector.MustLookup(v)
	var payload []byte
	switch v {
	case reflector.DNSANY:
		payload = make([]byte, 3000)
		payload[2] = 0x80 // QR: response
	case reflector.SSDP:
		payload = append([]byte("HTTP/1.1 200 OK\r\nST: upnp:rootdevice\r\n\r\n"), make([]byte, 260)...)
	case reflector.Chargen:
		payload = reflector.ChargenPayload(512)
	default:
		panic("laneResponse: NTP handled by monlistResponse")
	}
	dg := packet.NewDatagram(from, p.Port, to, toPort, payload)
	dg.IP.TTL = 50
	dg.Rep = rep
	return dg
}

// laneRequest builds a lane's trigger/probe datagram with the given TTL.
func laneRequest(v reflector.Vector, from, to netaddr.Addr, ttl uint8, rep int64) *packet.Datagram {
	p := reflector.MustLookup(v)
	dg := packet.NewDatagram(from, 47001, to, p.Port, p.Request)
	dg.IP.TTL = ttl
	dg.Rep = rep
	return dg
}

// TestLaneClassification alarms one victim per non-NTP lane through the tap
// and checks the alarm vector labels and the per-vector summary rows.
func TestLaneClassification(t *testing.T) {
	d := New(DefaultConfig())
	t0 := vtime.Epoch
	victims := map[reflector.Vector]netaddr.Addr{
		reflector.DNSANY:  netaddr.MustParseAddr("203.0.113.53"),
		reflector.SSDP:    netaddr.MustParseAddr("203.0.113.19"),
		reflector.Chargen: netaddr.MustParseAddr("203.0.113.90"),
	}
	for v, vic := range victims {
		for i := 0; i < 5; i++ {
			observeOne(d, laneResponse(v, amp, vic, 80, 100), t0.Add(time.Duration(i)*30*time.Second))
		}
	}
	sum := d.Summarize(t0.Add(6 * time.Hour))
	if len(sum.Victims) != 3 {
		t.Fatalf("victims = %v, want 3", sum.Victims)
	}
	wantVec := map[netaddr.Addr]string{
		victims[reflector.DNSANY]:  "dns",
		victims[reflector.SSDP]:    "ssdp",
		victims[reflector.Chargen]: "chargen",
	}
	for _, a := range sum.Alarms {
		if a.Vector != wantVec[a.Victim] {
			t.Errorf("alarm %v labelled %q, want %q", a.Victim, a.Vector, wantVec[a.Victim])
		}
	}
	if len(sum.Vectors) != 4 {
		t.Fatalf("vector rows = %d, want 4", len(sum.Vectors))
	}
	for _, row := range sum.Vectors {
		switch row.Vector {
		case "ntp":
			if row.Responses != 0 || row.Victims != 0 {
				t.Errorf("quiet ntp lane has traffic: %+v", row)
			}
		default:
			if row.Responses != 500 || row.Victims != 1 || row.ReflectedBytes == 0 {
				t.Errorf("lane %s row wrong: %+v", row.Vector, row)
			}
		}
	}
}

// TestLaneDominance mixes NTP and DNS reflections at one victim; the heavier
// DNS stream must win the episode-end classification (the onset label can
// legitimately reflect whichever lane's packet tripped the threshold).
func TestLaneDominance(t *testing.T) {
	d := New(DefaultConfig())
	t0 := vtime.Epoch
	for i := 0; i < 5; i++ {
		at := t0.Add(time.Duration(i) * 30 * time.Second)
		observeOne(d, monlistResponse(amp, victim, 80, 10), at)
		observeOne(d, laneResponse(reflector.DNSANY, amp, victim, 80, 100), at)
	}
	sum := d.Summarize(t0.Add(6 * time.Hour))
	if len(sum.Alarms) != 2 || sum.Alarms[1].Vector != "dns" {
		t.Fatalf("alarms = %+v, want dns-dominant offset", sum.Alarms)
	}
	for _, row := range sum.Vectors {
		if row.Vector == "dns" && row.Victims != 1 {
			t.Fatalf("dns lane victims = %d, want 1 (dominance)", row.Victims)
		}
		if row.Vector == "ntp" && row.Victims != 0 {
			t.Fatalf("ntp lane claimed the blended victim: %+v", row)
		}
	}
}

// TestLaneScannerSuppression pins that §7.2 unmasking works on the new
// lanes too: a Linux-band SSDP prober is suppressed from victim alarms.
func TestLaneScannerSuppression(t *testing.T) {
	d := New(DefaultConfig())
	t0 := vtime.Epoch
	observeOne(d, laneRequest(reflector.SSDP, scanner, amp, 50, 1), t0)
	for i := 0; i < 5; i++ {
		observeOne(d, laneResponse(reflector.SSDP, amp, scanner, 47001, 100), t0.Add(time.Duration(i)*time.Second))
	}
	sum := d.Summarize(t0.Add(6 * time.Hour))
	if len(sum.Victims) != 0 {
		t.Fatalf("victims = %v, want none (prober suppressed)", sum.Victims)
	}
	if sum.ScannersMarked != 1 || sum.Suppressed != 500 {
		t.Fatalf("marked=%d suppressed=%d, want 1/500", sum.ScannersMarked, sum.Suppressed)
	}
	for _, row := range sum.Vectors {
		if row.Vector == "ssdp" && row.Suppressed != 500 {
			t.Fatalf("ssdp lane suppressed = %d, want 500", row.Suppressed)
		}
	}
}

// TestPulseWaveTracker drives a 3-hour-period pulse wave (gap > offsetGap)
// with periodic sweeps and checks the tracker flaps once — the unavoidable
// first long-gap cycle — then learns the rotation and holds the episode
// open across later gaps.
func TestPulseWaveTracker(t *testing.T) {
	cfg := DefaultConfig()
	d := New(cfg)
	t0 := vtime.Epoch
	const period = 3 * time.Hour
	burst := func(start time.Time) {
		for i := 0; i < 5; i++ {
			observeOne(d, monlistResponse(amp, victim, 80, 100), start.Add(time.Duration(i)*30*time.Second))
		}
	}
	end := t0.Add(4 * period)
	for b := 0; b < 4; b++ {
		burst(t0.Add(time.Duration(b) * period))
	}
	// Replay interleaved with the sweeps a busy tap would run anyway: walk
	// time in 10-minute sweep ticks, bursting on period boundaries.
	d = New(cfg)
	for at := t0; at.Before(end); at = at.Add(10 * time.Minute) {
		if since := at.Sub(t0); since%period == 0 {
			burst(at)
		}
		d.sweep(at, false)
	}
	sum := d.Summarize(end)
	var onsets, offsets int
	for _, a := range sum.Alarms {
		if a.Onset {
			onsets++
		} else {
			offsets++
		}
	}
	// Burst 1: onset. Gap 1 silences past offsetGap before the rotation is
	// learnable → one offset+onset flap at burst 2. From then on the learned
	// deadline (2× the ~3h gap EWMA) rides out every later gap.
	if onsets != 2 || offsets != 2 {
		t.Fatalf("alarm churn: %d onsets / %d offsets, want 2/2 (flap once, then hold); alarms=%+v",
			onsets, offsets, sum.Alarms)
	}
}

// TestSustainedOffsetUnchanged pins that the pulse tracker leaves classic
// sustained-flood offsets alone: no gap ≥ minPulseGap ever occurs, so the
// deadline stays at offsetGap exactly.
func TestSustainedOffsetUnchanged(t *testing.T) {
	d := New(DefaultConfig())
	t0 := vtime.Epoch
	// 20-minute batch spacing — the coarsest classic campaign interval.
	var last time.Time
	for i := 0; i < 12; i++ {
		last = t0.Add(time.Duration(i) * 20 * time.Minute)
		observeOne(d, monlistResponse(amp, victim, 80, 100), last)
	}
	sum := d.Summarize(last.Add(offsetGap + time.Hour))
	if len(sum.Alarms) != 2 {
		t.Fatalf("alarms = %+v, want onset+offset", sum.Alarms)
	}
	if off := sum.Alarms[1]; off.Onset || !off.At.Equal(last.Add(offsetGap)) {
		t.Fatalf("offset at %v, want last+offsetGap %v", off.At, last.Add(offsetGap))
	}
}
