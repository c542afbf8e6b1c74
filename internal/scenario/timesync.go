package scenario

import (
	"time"

	"ntpddos/internal/asdb"
	"ntpddos/internal/detect"
	"ntpddos/internal/netaddr"
	"ntpddos/internal/ntpd"
	"ntpddos/internal/rng"
	"ntpddos/internal/timeattack"
	"ntpddos/internal/timesync"
	"ntpddos/internal/vtime"
)

// timesyncASWeights places disciplined clients and their dedicated servers
// in ordinary enterprise/end-user space. The §7 site networks are excluded
// for the same reason sensors exclude them: their traffic is ISP-vantage
// ground truth.
var timesyncASWeights = map[asdb.ASType]float64{
	asdb.Hosting: 0.3, asdb.Education: 0.3, asdb.Enterprise: 0.4,
}

// The dedicated stratum-2 pool the clients poll, and each client's
// association count. The pool's daemons are registered on the fabric but
// deliberately NOT in the survey population and live outside the §7 site
// networks, so the classic vantages never see them.
const (
	timesyncServers  = 8
	serversPerClient = 4
)

// buildTimeSync deploys the disciplined-client plane: a dedicated stratum-2
// server pool, the client fleet, the optional time-integrity attack plane,
// and the drift-aware monitor. Every draw comes from private streams forked
// straight from the seed ("timesync", and "timeattack" only when the share
// is non-zero), the servers never join w.Servers (so surveys, remediation,
// and the classic analyses are blind to them), and the classic detector
// ignores mode 3/4 traffic — enabling this plane leaves all classic report
// digests byte-identical.
func (w *World) buildTimeSync() {
	clients := w.Cfg.TimeSync.Clients
	if clients <= 0 {
		return
	}

	src := rng.New(w.Cfg.Seed).Fork("timesync")
	pickAS := func() *asdb.AS {
		return w.DB.PickWeighted(src, func(as *asdb.AS) float64 {
			if as.Name == asdb.NameMerit || as.Name == asdb.NameCSU || as.Name == asdb.NameFRGP {
				return 0
			}
			return timesyncASWeights[as.Type]
		})
	}
	seen := netaddr.NewSet(timesyncServers + clients)
	pickAddr := func(budget int) (netaddr.Addr, bool) {
		for tries := 0; tries < budget; tries++ {
			as := pickAS()
			if as == nil {
				return 0, false
			}
			addr := as.RandomAddr(src)
			if seen.Has(addr) || w.Net.IsRegistered(addr) {
				continue
			}
			if _, taken := w.Servers[addr]; taken {
				continue
			}
			seen.Add(addr)
			return addr, true
		}
		return 0, false
	}

	// The dedicated stratum-2 pool: plain daemons, no monlist, no mode 6 —
	// they exist to serve time, not to amplify.
	pool := make([]netaddr.Addr, 0, timesyncServers)
	for len(pool) < timesyncServers {
		addr, ok := pickAddr(50)
		if !ok {
			break
		}
		srv := ntpd.New(ntpd.Config{
			Addr:    addr,
			Stratum: 2,
			Profile: ntpd.SampleProfile(src, ntpd.RolePlain),
			Metrics: w.ntpdM,
		})
		w.Net.Register(addr, srv)
		pool = append(pool, addr)
	}
	if len(pool) < serversPerClient {
		return // address space exhausted; no fleet without a quorum's worth
	}

	var tsm *timesync.Metrics
	if w.Cfg.Metrics != nil {
		tsm = timesync.NewMetrics(w.Cfg.Metrics)
	}
	fleet := timesync.NewFleet()
	perm := make([]netaddr.Addr, len(pool))
	for i := 0; i < clients; i++ {
		addr, ok := pickAddr(50)
		if !ok {
			break
		}
		// Partial Fisher-Yates: each client polls a distinct random subset
		// of the pool, with a fixed per-client draw count.
		copy(perm, pool)
		for j := 0; j < serversPerClient; j++ {
			k := j + src.IntN(len(perm)-j)
			perm[j], perm[k] = perm[k], perm[j]
		}
		servers := make([]netaddr.Addr, serversPerClient)
		copy(servers, perm[:serversPerClient])
		fleet.Add(timesync.NewClient(timesync.Config{
			Addr:    addr,
			Servers: servers,
			// Boot-time clock state: up to ±2 s initial phase error and
			// ±50 ppm hardware frequency error.
			InitOffset: time.Duration((src.Float64()*4 - 2) * float64(time.Second)),
			FreqPPM:    src.Float64()*100 - 50,
			Metrics:    tsm,
		}, vtime.Epoch))
	}
	fleet.Register(w.Net)
	w.TimeSync = fleet

	if share := w.Cfg.TimeAttackShare; share > 0 {
		var am *timeattack.Metrics
		if w.Cfg.Metrics != nil {
			am = timeattack.NewMetrics(w.Cfg.Metrics)
		}
		plane := timeattack.New(timeattack.Config{
			Share: share,
			// Off-path forgeries ride the same spoofing-capable bot pool as
			// the reflection attacks (read-only reuse; no extra draws).
			Origins: w.botAddrs,
			Metrics: am,
		})
		plane.Arm(fleet, rng.New(w.Cfg.Seed).Fork("timeattack"))
		w.TimeAttack = plane
	}
	if w.Cfg.Detector != nil {
		w.TimeMon = detect.NewTimeMonitor()
		fleet.SetMonitor(w.TimeMon)
	}
}
