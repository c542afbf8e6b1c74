// Package timeattack models attacks on NTP time integrity rather than on
// bandwidth: where internal/attack turns NTP servers into DDoS cannons,
// this plane turns the protocol itself against the clocks of disciplined
// clients (internal/timesync). Six attacker models are implemented — two
// off-path forgery models riding the same spoofing-capable address space
// as the reflection attacks (spoofed mode 4 replies and forged
// kiss-o'-death codes, the CVE-2015-7704/7705 class), and four on-path
// manipulation models (delay asymmetry, gradual-drift poisoning under the
// panic threshold, stratum/refid manipulation, leap-second injection).
// Every target selection and parameter draw happens on a private RNG
// stream, and the plane records ground truth so the drift-aware detector
// can be scored with real precision/recall.
package timeattack

import (
	"time"

	"ntpddos/internal/netaddr"
	"ntpddos/internal/netsim"
	"ntpddos/internal/ntp"
	"ntpddos/internal/packet"
	"ntpddos/internal/rng"
	"ntpddos/internal/timesync"
)

// Model identifies one attacker behavior.
type Model int

// The attacker models.
const (
	// ModelSpoof: off-path forged mode 4 replies racing the genuine
	// server. Bites clients without origin validation, which accept the
	// attacker's transmit timestamp blind and step to attacker time.
	ModelSpoof Model = iota
	// ModelKoD: off-path forged kiss-o'-death codes (CVE-2015-7704/7705):
	// DENY kills every association, silencing the client so its clock
	// free-runs on hardware drift.
	ModelKoD
	// ModelDelay: on-path delay-asymmetry shifting — hold mode 4 replies
	// for a fixed extra delay, biasing the measured offset by half of it.
	ModelDelay
	// ModelDrift: on-path gradual-drift poisoning — rewrite server
	// timestamps by an offset that grows slowly enough to stay under the
	// step-per-sample radar and far under the panic threshold.
	ModelDrift
	// ModelStratum: on-path stratum/refid manipulation on exactly half the
	// client's servers, splitting falseticker voting 2-2 so the client can
	// never assemble a majority and holds its clock indefinitely.
	ModelStratum
	// ModelLeap: on-path leap-second injection — set the leap-indicator
	// bits on a majority of replies so the client arms a bogus leap event.
	ModelLeap
	numModels
)

// String names the model for reports.
func (m Model) String() string {
	switch m {
	case ModelSpoof:
		return "spoof"
	case ModelKoD:
		return "kod"
	case ModelDelay:
		return "delay"
	case ModelDrift:
		return "drift"
	case ModelStratum:
		return "stratum"
	case ModelLeap:
		return "leap"
	}
	return "unknown"
}

// warmup delays attack onset past run start so detectors see a clean
// baseline first.
const warmup = 3 * 24 * time.Hour

// Config parameterizes the plane.
type Config struct {
	// Share is the fraction of disciplined clients attacked.
	Share float64
	// Origins are spoofing-capable source addresses for the off-path
	// models (the scenario hands in its bot pool).
	Origins []netaddr.Addr
	// Metrics is optional and strictly passive.
	Metrics *Metrics
}

// target is one attacked client with its drawn parameters.
type target struct {
	client  *timesync.Client
	model   Model
	offset  time.Duration // spoof / stratum timestamp shift
	drift   float64       // s/s of virtual time, ModelDrift
	delay   time.Duration // extra reply delay, ModelDelay
	servers []netaddr.Addr
	origin  netaddr.Addr // spoofed-packet source, off-path models
	burst   time.Duration
	kodFlip bool // alternates RATE/DENY bursts
}

// Plane owns the targets and the ground truth.
type Plane struct {
	cfg      Config
	targets  []*target
	attacked netaddr.Set
	byModel  [numModels]netaddr.Set

	forgedReplies int64
	forgedKisses  int64
	delayed       int64
	rewritten     int64

	// buf holds the forgery being sent: the fabric copies a payload before
	// SendSpoofed returns, so one buffer serves every burst.
	buf [ntp.HeaderLen]byte
}

// New builds an empty plane.
func New(cfg Config) *Plane {
	p := &Plane{cfg: cfg, attacked: netaddr.NewSet(0)}
	for i := range p.byModel {
		p.byModel[i] = netaddr.NewSet(0)
	}
	return p
}

// Arm selects targets from the fleet and draws every attack parameter.
// All randomness comes from src (the private "timeattack" stream); the
// draw sequence depends only on the fleet's client list, so a zero-share
// plane is never built and an armed one never perturbs other streams.
func (p *Plane) Arm(fleet *timesync.Fleet, src *rng.Source) {
	for _, c := range fleet.Clients() {
		if !src.Bool(p.cfg.Share) {
			continue
		}
		t := &target{client: c, model: Model(src.IntN(int(numModels)))}
		servers := c.Servers()
		maj := len(servers)/2 + 1
		t.burst = time.Duration((300 + src.Float64()*300) * float64(time.Second))
		switch t.model {
		case ModelSpoof:
			c.MarkInsecure()
			t.offset = time.Duration((5 + src.Float64()*25) * float64(time.Second))
			t.servers = servers[:maj]
		case ModelKoD:
			c.MarkInsecure()
			t.servers = servers
		case ModelDelay:
			t.delay = time.Duration((0.8 + src.Float64()*0.8) * float64(time.Second))
			t.servers = servers[:maj]
		case ModelDrift:
			t.drift = (0.5 + src.Float64()) * 1e-5
			t.servers = servers[:maj]
		case ModelStratum:
			t.offset = time.Duration((2 + src.Float64()*3) * float64(time.Second))
			t.servers = servers[:len(servers)/2]
		case ModelLeap:
			t.servers = servers[:maj]
		}
		if t.model == ModelSpoof || t.model == ModelKoD {
			if len(p.cfg.Origins) == 0 {
				continue // nothing to spoof from; draws stay consistent
			}
			t.origin = p.cfg.Origins[src.IntN(len(p.cfg.Origins))]
		}
		p.targets = append(p.targets, t)
		p.attacked.Add(c.Addr())
		p.byModel[t.model].Add(c.Addr())
	}
	if p.cfg.Metrics != nil {
		p.cfg.Metrics.Targets.SetInt(int64(len(p.targets)))
	}
}

// Start schedules the off-path forgery bursts and installs the on-path
// interceptors, all beginning after the warmup.
func (p *Plane) Start(nw *netsim.Network, start, end time.Time) {
	if len(p.targets) == 0 {
		return
	}
	at := start.Add(warmup)
	if !at.Before(end) {
		return
	}
	for _, t := range p.targets {
		t := t
		switch t.model {
		case ModelSpoof, ModelKoD:
			nw.Scheduler().Every(at, t.burst, end, func(now time.Time) {
				p.fireBurst(nw, t, now)
			})
		default:
			nw.Scheduler().At(at, func(now time.Time) {
				nw.Register(t.client.Addr(), &interceptor{p: p, t: t, armedAt: now})
			})
		}
	}
}

// fireBurst emits one round of off-path forgeries for a target: one
// spoofed packet per attacked server, claiming that server's address.
func (p *Plane) fireBurst(nw *netsim.Network, t *target, now time.Time) {
	for _, s := range t.servers {
		var h ntp.Header
		switch t.model {
		case ModelSpoof:
			ts := ntp.ToNTPTime(now.Add(t.offset))
			h = ntp.Header{
				Version:      4,
				Mode:         ntp.ModeServer,
				Stratum:      2,
				ReferenceID:  uint32(t.origin),
				ReceiveTime:  ts,
				TransmitTime: ts,
			}
			p.forgedReplies++
			if p.cfg.Metrics != nil {
				p.cfg.Metrics.ForgedReplies.Inc()
			}
		case ModelKoD:
			code := ntp.KissDENY
			if t.kodFlip {
				code = ntp.KissRATE
			}
			h = ntp.NewKissReply(0, code, now)
			p.forgedKisses++
			if p.cfg.Metrics != nil {
				p.cfg.Metrics.ForgedKisses.Inc()
			}
		}
		nw.SendSpoofed(t.origin, s, ntp.Port, t.client.Addr(), timesync.Port,
			netsim.TTLWindows, h.AppendTo(p.buf[:0]))
	}
	t.kodFlip = !t.kodFlip
}

// Attacked returns the ground-truth set of attacked client addresses.
func (p *Plane) Attacked() netaddr.Set { return p.attacked }

// Summary is the plane's end-of-run accounting.
type Summary struct {
	Targets       int
	ByModel       map[string]int
	ForgedReplies int64
	ForgedKisses  int64
	Delayed       int64
	Rewritten     int64
}

// Summarize reports target counts per model and forgery volumes.
func (p *Plane) Summarize() *Summary {
	s := &Summary{
		Targets:       len(p.targets),
		ByModel:       make(map[string]int, numModels),
		ForgedReplies: p.forgedReplies,
		ForgedKisses:  p.forgedKisses,
		Delayed:       p.delayed,
		Rewritten:     p.rewritten,
	}
	for m := Model(0); m < numModels; m++ {
		if n := p.byModel[m].Len(); n > 0 {
			s.ByModel[m.String()] = n
		}
	}
	return s
}

// interceptor sits on the client's fabric address (the on-path position)
// and manipulates genuine mode 4 replies before the client sees them.
// Everything else passes through untouched.
type interceptor struct {
	p       *Plane
	t       *target
	armedAt time.Time
}

// HandlePacket implements netsim.Host.
func (ic *interceptor) HandlePacket(nw *netsim.Network, dg *packet.Datagram, now time.Time) {
	c := ic.t.client
	if dg.UDP.SrcPort == ntp.Port && ic.fromAttackedServer(dg.IP.Src) {
		if r, err := ntp.DecodeSyncReply(dg.Payload); err == nil && r.Kiss == "" {
			switch ic.t.model {
			case ModelDelay:
				ic.p.delayed++
				if ic.p.cfg.Metrics != nil {
					ic.p.cfg.Metrics.Delayed.Inc()
				}
				// Deep-copy before holding: the fabric recycles dg (and its
				// payload buffer) as soon as this HandlePacket returns.
				held := *dg
				held.Payload = append([]byte(nil), dg.Payload...)
				nw.Scheduler().After(ic.t.delay, func(late time.Time) {
					c.HandlePacket(nw, &held, late)
				})
				return
			case ModelDrift:
				shift := time.Duration(ic.t.drift * now.Sub(ic.armedAt).Seconds() * float64(time.Second))
				r.ReceiveTime = ntpShift(r.ReceiveTime, shift)
				r.TransmitTime = ntpShift(r.TransmitTime, shift)
				ic.rewrite(&r.Header, dg)
			case ModelStratum:
				r.Stratum = 1
				r.ReferenceID = 0x47505300 // "GPS\0": a fake reference clock
				r.ReceiveTime = ntpShift(r.ReceiveTime, ic.t.offset)
				r.TransmitTime = ntpShift(r.TransmitTime, ic.t.offset)
				ic.rewrite(&r.Header, dg)
			case ModelLeap:
				r.LeapIndicator = 1 // leap second pending
				ic.rewrite(&r.Header, dg)
			}
		}
	}
	c.HandlePacket(nw, dg, now)
}

// rewrite re-encodes the mutated decoded header over the datagram's own
// payload buffer (the datagram is the recipient's private copy; taps
// observed the original on the wire). h is a decoded value, so overwriting
// the buffer it came from is safe.
func (ic *interceptor) rewrite(h *ntp.Header, dg *packet.Datagram) {
	dg.Payload = h.AppendTo(dg.Payload[:0])
	ic.p.rewritten++
	if ic.p.cfg.Metrics != nil {
		ic.p.cfg.Metrics.Rewritten.Inc()
	}
}

func (ic *interceptor) fromAttackedServer(a netaddr.Addr) bool {
	for _, s := range ic.t.servers {
		if s == a {
			return true
		}
	}
	return false
}

// ntpShift adds a duration to a 64-bit NTP timestamp.
func ntpShift(ts uint64, d time.Duration) uint64 {
	if ts == 0 {
		return 0
	}
	return ntp.UnixNanoToNTP(ntp.NTPToUnixNano(ts) + int64(d))
}
