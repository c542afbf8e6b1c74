package detect

import "ntpddos/internal/metrics"

// Metrics is the detector's live instrumentation. Writes are atomic and
// never touch RNG or scheduler state, preserving the detector-on/off digest
// identity.
type Metrics struct {
	Packets         *metrics.Counter
	Requests        *metrics.Counter
	Responses       *metrics.Counter
	ReflectedBytes  *metrics.Counter
	Suppressed      *metrics.Counter
	ScannersMarked  *metrics.Counter
	Onsets          *metrics.Counter
	Offsets         *metrics.Counter
	SampledOut      *metrics.Counter
	OutageDropped   *metrics.Counter
	Active          *metrics.Gauge
	Tracked         *metrics.Gauge
	ScannerEstimate *metrics.Gauge
}

// NewMetrics registers the detector family on r (nil r yields no-ops).
func NewMetrics(r *metrics.Registry) *Metrics {
	return &Metrics{
		Packets: r.NewCounter("ntpsim_detect_packets_total",
			"Rep-weighted NTP mode 6/7 packets classified by the detector."),
		Requests: r.NewCounter("ntpsim_detect_requests_total",
			"Rep-weighted mode 6/7 requests observed."),
		Responses: r.NewCounter("ntpsim_detect_responses_total",
			"Rep-weighted mode 6/7 responses observed."),
		ReflectedBytes: r.NewCounter("ntpsim_detect_reflected_bytes_total",
			"On-wire bytes of reflected (response) traffic."),
		Suppressed: r.NewCounter("ntpsim_detect_suppressed_packets_total",
			"Response packets discarded as scanner backscatter."),
		ScannersMarked: r.NewCounter("ntpsim_detect_scanners_marked_total",
			"Distinct sources unmasked as probers via the TTL band."),
		Onsets: r.NewCounter("ntpsim_detect_onset_alarms_total",
			"Victim onset alarms raised."),
		Offsets: r.NewCounter("ntpsim_detect_offset_alarms_total",
			"Victim offset alarms raised."),
		SampledOut: r.NewCounter("ntpsim_detect_sampled_out_packets_total",
			"Rep-weighted packets dropped by 1-in-N vantage sampling."),
		OutageDropped: r.NewCounter("ntpsim_detect_outage_dropped_packets_total",
			"Rep-weighted packets dropped during collector outage windows."),
		Active: r.NewGauge("ntpsim_detect_active_victims",
			"Victims currently between onset and offset."),
		Tracked: r.NewGauge("ntpsim_detect_tracked_victims",
			"Per-victim state entries currently held."),
		ScannerEstimate: r.NewGauge("ntpsim_detect_scanner_cardinality_estimate",
			"HyperLogLog estimate of distinct probing sources."),
	}
}
