// Package scenario builds and drives the calibrated synthetic Internet over
// the paper's measurement window (September 2013 through May 2014). The
// generative parameters — population sizes, remediation curves, attack
// adoption fractions, OS/port distributions — are taken from the paper's
// own reported statistics (they are properties of the 2014 Internet, not
// derivable from first principles); everything downstream of those inputs
// (tables disclosed by daemons, packets on the fabric, survey captures,
// analysis outputs) is mechanistic.
//
// Scale model: populations (amplifiers, servers, victims, resolvers) are
// divided by Config.Scale; reported counts are re-inflated by the same
// factor at experiment time. Per-host behaviour (monitor tables, packets,
// BAFs) is exact at any scale. Real-world quantities that are not
// populations — attack sizes in Gbps, global traffic fractions — are
// modeled at real scale directly.
package scenario

import (
	"math/rand/v2"
	"time"

	"ntpddos/internal/asdb"
	"ntpddos/internal/attack"
	"ntpddos/internal/darknet"
	"ntpddos/internal/detect"
	"ntpddos/internal/honeypot"
	"ntpddos/internal/ispview"
	"ntpddos/internal/metrics"
	"ntpddos/internal/netaddr"
	"ntpddos/internal/netsim"
	"ntpddos/internal/ntpd"
	"ntpddos/internal/pbl"
	"ntpddos/internal/rng"
	"ntpddos/internal/scan"
	"ntpddos/internal/telemetry"
	"ntpddos/internal/timeattack"
	"ntpddos/internal/timesync"
	"ntpddos/internal/vtime"
)

// Config sizes and seeds a run.
type Config struct {
	Seed uint64
	// Scale divides every global population. 100 is the benchmark default;
	// tests use 500–2000; 1 is a full-size (slow, memory-heavy) world.
	Scale int

	// End closes the run; every run starts at vtime.Epoch (2013-09-01).
	End time.Time

	// NumASes for the generated registry (scaled world).
	NumASes int

	// FabricAttackDivisor additionally thins the NTP campaigns that run on
	// the fabric (they are the expensive part); Figure 2 bookkeeping still
	// uses full counts.
	FabricAttackDivisor int

	// HoneypotSensors sizes the amppot-style sensor fleet (0 disables the
	// honeypot vantage entirely). The fleet runs on RNG streams forked from
	// the seed independently of the world stream, so enabling or resizing
	// it never perturbs the calibrated population and attack draws.
	HoneypotSensors int

	// NoRemediation disables the §6 community response entirely (global
	// patching, site schedules still run): the counterfactual world the
	// ablation benchmarks compare against.
	NoRemediation bool

	// SpooferFraction is the fraction of ASes that never deployed BCP38 and
	// therefore emit spoofed packets — the knob sensitivity sweeps move to
	// ask how much source-address validation would have blunted the attack
	// wave. The calibrated default is 0.25; 0 means no AS spoofs at all.
	SpooferFraction float64

	// RemediationHazard scales the weekly global patching pressure: each
	// week's patch quota is multiplied by it. The default 1 reproduces the
	// paper's Table 1 decline; 0.5 halves the community response, 2 doubles
	// it. Site schedules (§7) are explicit dates and are unaffected.
	RemediationHazard float64

	// PCAPDir, when set, persists every weekly monlist sample as a libpcap
	// file (monlist-YYYY-MM-DD.pcap) in that directory — the dataset
	// interchange format; cmd/onpdump re-analyses the files.
	PCAPDir string

	// Metrics, when non-nil, attaches live instrumentation to every layer of
	// the world (fabric, scheduler, daemons, scanners, attack engine,
	// honeypots, telemetry, ISP views). The registry can then be served over
	// HTTP (see internal/metrics.Serve). Instrumentation is provably free of
	// behavioural effect: metric writes never touch RNG or scheduler state,
	// so report digests are identical with Metrics nil or set.
	Metrics *metrics.Registry

	// Detector, when non-nil, attaches the streaming heavy-hitter detection
	// plane (internal/detect) to the fabric as a passive tap. Like Metrics,
	// it is provably free of behavioural effect: the detector never mutates
	// datagrams and draws nothing from the world's streams, so report
	// digests are identical with Detector nil or set. Its sketch hashing
	// and outage schedule use one fixed key in every world, whatever the
	// seed: no world ever forked a key of its own.
	Detector *detect.Config

	// ExtraVectors enables additional amplification protocols alongside
	// monlist ("dns", "ssdp", "chargen"): each named vector gets a scaled
	// reflector population registered on the fabric (addresses drawn from
	// private per-vector RNG streams), and campaign shaping rotates bursts
	// across the enabled set. Empty keeps the classic monlist-only world —
	// zero extra draws, zero extra hosts, digests unchanged.
	ExtraVectors []string

	// PulseWaveShare, CarpetBombShare, and MultiVectorShare are the
	// fractions of fabric campaigns reshaped into fixed-period burst
	// rotations, /24 carpet sweeps, and simultaneous multi-protocol blends
	// respectively (shares sum at most 1). All zero disables shaping: the
	// campaign stream is never forked and classic digests are unchanged.
	PulseWaveShare   float64
	CarpetBombShare  float64
	MultiVectorShare float64

	// Faults is the deterministic fault-injection plane: a lossy fabric
	// (drops, duplicates, reordering, link flaps) plus degraded measurement
	// vantages (NetFlow sampling, collector outages, honeypot sensor
	// blackouts). Fabric impairment draws from a private "faults" stream
	// forked from the seed and vantage schedules are pure hashes, so the
	// zero value is provably inert: no extra forks, no extra draws, report
	// digests unchanged.
	Faults FaultConfig

	// TimeSync sizes the disciplined-client plane (internal/timesync): hosts
	// that actually *use* NTP for timekeeping, polling a dedicated stratum-2
	// pool and steering simulated local clocks. Both the client fleet and its
	// servers live on a private "timesync" stream forked from the seed, the
	// servers are never part of the survey population, and the classic
	// detector ignores mode 3/4 traffic — so the zero value (and any non-zero
	// value) leaves every classic report digest unchanged.
	TimeSync TimeSyncConfig

	// TimeAttackShare is the fraction of disciplined clients targeted by the
	// time-integrity attack plane (internal/timeattack): spoofed replies,
	// forged kiss-o'-death, delay asymmetry, drift poisoning, stratum and
	// leap manipulation. Target selection draws from a private "timeattack"
	// stream; 0 never forks it. Requires TimeSync to be enabled.
	TimeAttackShare float64
}

// TimeSyncConfig sizes the disciplined-client plane. The zero value
// disables it entirely.
type TimeSyncConfig struct {
	// Clients is the number of disciplined hosts (0 disables the plane).
	Clients int
}

// FaultConfig groups the fault-injection knobs. Rates are probabilities in
// [0, 1); the zero value injects no fault.
type FaultConfig struct {
	// Loss is the mean per-link drop probability applied to fabric
	// deliveries (each link hashes a stable factor in [0.5, 1.5)).
	Loss float64
	// Dup is the per-packet duplication probability: duplicated batches are
	// re-delivered after a short extra hashed delay.
	Dup float64
	// Reorder is the probability a batch is held back by an extra bounded
	// delay, arriving after later traffic.
	Reorder float64
	// FlapRate is the fraction of (link, window) pairs that are down; flap
	// windows tile virtual time hourly.
	FlapRate float64

	// FlowSampleN enables systematic 1-in-N NetFlow sampling at the
	// detector's vantage (0 or 1 disables); kept packets are re-inflated
	// and alarm confidence drops to 1/N.
	FlowSampleN int
	// CollectorOutage is the dark fraction of each 6-hour window during
	// which the detector's collector sees nothing. The detector knows the
	// schedule and holds episodes across the gaps.
	CollectorOutage float64

	// SensorBlackout is the dark fraction of each 6-hour window during which
	// a honeypot sensor neither answers nor records; per-sensor phases are
	// hashed so the fleet never goes dark at once.
	SensorBlackout float64
}

// impairment is the fabric's share of the fault plane; Build arms it only
// if it is Enabled.
func (f FaultConfig) impairment() netsim.Impairment {
	return netsim.Impairment{Loss: f.Loss, Dup: f.Dup, Reorder: f.Reorder, FlapRate: f.FlapRate}
}

// vantage is the detector's share of the fault plane; Build applies it
// only if it is Degraded.
func (f FaultConfig) vantage() detect.Vantage {
	return detect.Vantage{SampleN: f.FlowSampleN, OutageFraction: f.CollectorOutage}
}

// DefaultConfig is the benchmark configuration.
func DefaultConfig() Config {
	return Config{
		Seed:  1,
		Scale: 100,
		End:   time.Date(2014, 5, 1, 0, 0, 0, 0, time.UTC),

		NumASes:             1500,
		FabricAttackDivisor: 1,
		HoneypotSensors:     honeypot.DefaultSensors,
		SpooferFraction:     0.25,
		RemediationHazard:   1,
	}
}

// TestConfig returns a small, fast world for tests.
func TestConfig() Config {
	c := DefaultConfig()
	c.Scale = 2000
	c.NumASes = 250
	c.FabricAttackDivisor = 4
	return c
}

// scaled converts a real-world population to world size.
func (c Config) scaled(n int) int {
	s := n / c.Scale
	if s < 1 && n > 0 {
		s = 1
	}
	return s
}

// server bundles a daemon with its placement metadata.
type server struct {
	srv *ntpd.Server
	as  *asdb.AS
	// batch groups professionally-managed servers that get patched
	// together; end hosts are their own batch.
	batch int
	// endHost marks PBL-space placement.
	endHost bool
	// onlyOldImpl marks daemons answering only the implementation value the
	// ONP scanner does not send (the §3.1 blind spot).
	onlyOldImpl bool
	// clientTableSize is the daemon's steady-state monitor-table occupancy
	// from honest NTP clients (paper: median 6, mean 70).
	clientTableSize int
	// site names the §7 regional network ("Merit", "CSU", "FRGP") for
	// locally-managed amplifiers, which follow explicit remediation
	// schedules instead of the global hazard model.
	site string
}

// World is the fully built simulation.
type World struct {
	Cfg   Config
	Sched *vtime.Scheduler
	Net   *netsim.Network
	Src   *rng.Source

	DB  *asdb.DB
	PBL *pbl.List

	// Servers maps every NTP daemon by address (amplifiers and plain).
	Servers map[netaddr.Addr]*server
	// amplifiers is the current monlist-answering subset. ampList caches the
	// sorted address snapshot (nil when stale); rebuilds allocate a fresh
	// slice, so closures holding an older snapshot stay valid.
	amplifiers map[netaddr.Addr]*server
	ampList    []netaddr.Addr
	batches    map[int][]*server
	nextBatch  int

	// DNSPool is the open-resolver address set (not registered as hosts at
	// global scale; used for pool-size and overlap analyses).
	DNSPool netaddr.Set

	Telescope *darknet.Telescope
	Collector *telemetry.Collector
	Views     map[string]*ispview.View
	Engine    *attack.Engine

	// Honeypots is the amppot sensor fleet (nil when disabled); Launched is
	// the ground-truth campaign log its detections are validated against.
	Honeypots *honeypot.Fleet
	Launched  []attack.Campaign
	// Detect is the streaming detection plane (nil when disabled), fed by a
	// passive fabric tap alongside the telescope and ISP views.
	Detect *detect.Detector
	// TimeSync is the disciplined-client fleet (nil when disabled);
	// TimeAttack is the time-integrity attack plane targeting it, and
	// TimeMon the drift-aware integrity lane scored against the plane's
	// ground truth.
	TimeSync   *timesync.Fleet
	TimeAttack *timeattack.Plane
	TimeMon    *detect.TimeMonitor
	// Reflectors maps each enabled extra vector to its registered reflector
	// population (nil when Config.ExtraVectors is empty).
	Reflectors attack.AmplifierSets
	// campSrc is the campaign-shaping stream, forked from the seed privately
	// like hpSrc; nil while every shaping share is zero, so classic worlds
	// never create it.
	campSrc *rng.Source
	// hpSrc is the honeypot vantage's private RNG root, forked from the seed
	// separately from Src so the fleet never perturbs world randomness.
	hpSrc *rng.Source

	ONPAddr          netaddr.Addr
	MeritAmps        []netaddr.Addr
	CSUAmps          []netaddr.Addr
	FRGPAmps         []netaddr.Addr
	MegaAddrs        netaddr.Set
	ExtremeMegaAddrs []netaddr.Addr
	victimPool       []victimSpec
	victimZipf       *rand.Zipf
	botAddrs         []netaddr.Addr
	researchIPs      []netaddr.Addr
	maliciousIPs     []netaddr.Addr

	// infraASPool and endASPool hold the ASes already hosting amplifier
	// batches; reusing them concentrates the pool the way the real one was
	// (1.4M amplifiers across only 15K origin ASes, ~4 blocks per AS).
	infraASPool []*asdb.AS
	endASPool   []*asdb.AS

	// asPoolFrozen marks the end of world construction: subsequent arrival
	// batches nearly always land in already-vulnerable ASes.
	asPoolFrozen bool

	// favorites is the booter ecosystem's shared working set of harvested
	// amplifiers: attacks draw from this bounded list, not the whole pool.
	// The median amplifier is therefore never abused (its monitor table
	// holds only honest clients — the paper's median of 6 entries), while
	// favorites accumulate fat victim tables and dominate Figure 5's
	// amplifier-AS concentration.
	favorites []netaddr.Addr

	// ntpdM is the population-level daemon instrumentation (nil when
	// Config.Metrics is nil); it rides in every ntpd.Config the world builds.
	ntpdM *ntpd.Metrics
	// scanM is the survey instrumentation shared by the ONP probers.
	scanM *scan.Metrics
}

type victimSpec struct {
	addr    netaddr.Addr
	endHost bool
}

// NumAmplifiers returns the current (scaled) monlist pool size.
func (w *World) NumAmplifiers() int { return len(w.amplifiers) }

// AmplifierSet snapshots the current amplifier addresses.
func (w *World) AmplifierSet() netaddr.Set {
	s := netaddr.NewSet(len(w.amplifiers))
	for a := range w.amplifiers {
		s.Add(a)
	}
	return s
}

// AmplifierList snapshots the current amplifier addresses as a sorted slice
// (attacker's harvested list). The snapshot is cached until the amplifier
// set next mutates; callers must not modify the returned slice.
func (w *World) AmplifierList() []netaddr.Addr {
	if w.ampList == nil {
		w.ampList = w.AmplifierSet().Sorted()
	}
	return w.ampList
}

// Build constructs the world: registry, PBL, server population, local ISP
// views, darknet, attack engine.
func Build(cfg Config) *World {
	src := rng.New(cfg.Seed)
	sched := vtime.NewScheduler()

	db := asdb.Build(src.Fork("asdb"), asdb.Config{NumASes: cfg.NumASes, SpooferFraction: cfg.SpooferFraction})
	pl := pbl.Derive(db, src.Fork("pbl"))

	policy := func(origin, claimed netaddr.Addr) bool {
		as := db.OwnerOf(origin)
		return as == nil || as.AllowsSpoofing
	}
	nw := netsim.New(sched, policy)
	if imp := cfg.Faults.impairment(); imp.Enabled() {
		// The impairment stage runs on its own stream forked straight from
		// the seed, like the honeypot and campaign streams: world draws are
		// untouched, so a faulty run differs from a clean one only through
		// the packets it perturbs.
		nw.SetImpairment(imp, rng.New(cfg.Seed).Fork("faults"))
	}

	w := &World{
		Cfg: cfg, Sched: sched, Net: nw,
		Src: src, DB: db, PBL: pl,
		Servers:    make(map[netaddr.Addr]*server),
		amplifiers: make(map[netaddr.Addr]*server),
		batches:    make(map[int][]*server),
		DNSPool:    netaddr.NewSet(0),
		Collector:  telemetry.New(),
		Views:      make(map[string]*ispview.View),
		MegaAddrs:  netaddr.NewSet(0),
		ONPAddr:    netaddr.MustParseAddr("198.108.60.10"), // inside Merit space
	}

	w.Telescope = darknet.New(db.DarknetPrefix)
	nw.AddTap(w.Telescope)

	merit := db.ByName(asdb.NameMerit)
	csu := db.ByName(asdb.NameCSU)
	frgp := db.ByName(asdb.NameFRGP)
	w.Views["Merit"] = ispview.New("Merit", db, merit)
	w.Views["CSU"] = ispview.New("CSU", db, csu)
	w.Views["FRGP"] = ispview.New("FRGP", db, frgp, csu)
	for _, v := range w.Views {
		nw.AddTap(v)
	}

	if cfg.Metrics != nil {
		sched.SetMetrics(vtime.NewMetrics(cfg.Metrics))
		nw.SetMetrics(netsim.NewMetrics(cfg.Metrics))
		w.ntpdM = ntpd.NewMetrics(cfg.Metrics)
		w.scanM = scan.NewMetrics(cfg.Metrics)
		w.Collector.SetMetrics(telemetry.NewMetrics(cfg.Metrics))
		vm := ispview.NewMetrics(cfg.Metrics)
		for _, v := range w.Views {
			v.SetMetrics(vm)
		}
	}

	w.buildServers()
	w.buildLocalAmplifiers(merit, csu, frgp)
	w.buildVictims()
	w.victimZipf = src.Zipf(1.06, uint64(len(w.victimPool)))
	w.buildAttackers()
	w.buildDNSPool()
	w.placeSensors()
	w.buildExtraReflectors()
	if cfg.PulseWaveShare > 0 || cfg.CarpetBombShare > 0 || cfg.MultiVectorShare > 0 {
		w.campSrc = rng.New(cfg.Seed).Fork("campaigns")
	}

	w.Engine = attack.NewEngine(nw, src.Fork("attack"), w.botAddrs)
	if cfg.Metrics != nil {
		w.Engine.Metrics = attack.NewMetrics(cfg.Metrics)
		if w.Honeypots != nil {
			w.Honeypots.SetMetrics(honeypot.NewMetrics(cfg.Metrics))
		}
	}
	// OnLaunch records the campaign ground truth unconditionally: both the
	// honeypot and streaming-detector vantages validate against it.
	w.Engine.OnLaunch = func(c attack.Campaign) {
		w.Launched = append(w.Launched, c)
	}
	if w.Honeypots != nil {
		// Scanners harvest the always-responsive sensors into booter lists;
		// from then on each campaign drags some of the fleet in. The draws
		// come from the honeypot stream.
		w.Engine.Reflectors = w.Honeypots.Addrs()
		w.Engine.ReflectorProb = honeypot.DefaultInclusionProb
		w.Engine.ReflectorSrc = w.hpSrc.Fork("reflectors")
	}
	if cfg.Detector != nil {
		dcfg := *cfg.Detector
		if v := cfg.Faults.vantage(); v.Degraded() {
			dcfg.Vantage = v
		}
		w.Detect = detect.New(dcfg)
		nw.AddTap(w.Detect)
		if cfg.Metrics != nil {
			w.Detect.SetMetrics(detect.NewMetrics(cfg.Metrics))
		}
	}
	w.buildTimeSync()
	w.asPoolFrozen = true
	return w
}

// sensorASWeights places sensors where amppot deployments live: hosting and
// university space. The §7 site networks are excluded — their traffic is
// ground truth for the ISP vantage and must not gain emulated daemons.
var sensorASWeights = map[asdb.ASType]float64{
	asdb.Hosting: 0.5, asdb.Education: 0.3, asdb.Enterprise: 0.2,
}

// placeSensors deploys the honeypot fleet on routed-but-unpopulated
// addresses. All draws come from hpSrc.
func (w *World) placeSensors() {
	n := w.Cfg.HoneypotSensors
	if n <= 0 {
		return
	}
	w.hpSrc = rng.New(w.Cfg.Seed).Fork("honeypot")
	pickAS := func() *asdb.AS {
		return w.DB.PickWeighted(w.hpSrc, func(as *asdb.AS) float64 {
			if as.Name == asdb.NameMerit || as.Name == asdb.NameCSU || as.Name == asdb.NameFRGP {
				return 0
			}
			return sensorASWeights[as.Type]
		})
	}
	seen := netaddr.NewSet(n)
	var addrs []netaddr.Addr
	for tries := 0; len(addrs) < n && tries < n*50; tries++ {
		as := pickAS()
		if as == nil {
			break
		}
		addr := as.RandomAddr(w.hpSrc)
		// Routed but unpopulated: skip anything already owned by a daemon or
		// other registered host.
		if seen.Has(addr) || w.Net.IsRegistered(addr) {
			continue
		}
		if _, taken := w.Servers[addr]; taken {
			continue
		}
		seen.Add(addr)
		addrs = append(addrs, addr)
	}
	w.Honeypots = honeypot.NewFleet(addrs, w.Cfg.Faults.SensorBlackout, w.hpSrc.Fork("fleet"))
	w.Honeypots.Register(w.Net)
}
