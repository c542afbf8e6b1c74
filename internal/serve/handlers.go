package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"strings"
	"time"

	"ntpddos/internal/metrics"
)

// admissionError is a refused submission: HTTP status, a machine-readable
// reason (also the rejection-counter label), and an optional Retry-After.
type admissionError struct {
	status     int
	reason     string
	msg        string
	retryAfter time.Duration
}

// errorBody is the JSON error envelope every non-2xx response carries.
type errorBody struct {
	Error  string `json:"error"`
	Reason string `json:"reason,omitempty"`
}

// buildMux assembles the daemon's HTTP surface.
func (d *Daemon) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("POST /v1/jobs", d.instrument("submit", d.handleSubmit))
	mux.Handle("GET /v1/jobs", d.instrument("list", d.handleList))
	mux.Handle("GET /v1/jobs/{id}", d.instrument("status", d.handleStatus))
	mux.Handle("GET /v1/jobs/{id}/result", d.instrument("result", d.handleResult))
	mux.Handle("GET /v1/jobs/{id}/watch", d.instrument("watch", d.handleWatch))
	mux.Handle("POST /v1/jobs/{id}/cancel", d.instrument("cancel", d.handleCancel))
	mux.Handle("/healthz", &d.ready)
	if d.cfg.Registry != nil {
		mux.Handle("/metrics", metrics.Handler(d.cfg.Registry))
	}
	return mux
}

// instrument wraps a handler with per-endpoint latency and per-client
// request accounting.
func (d *Daemon) instrument(endpoint string, h http.HandlerFunc) http.Handler {
	hist := d.met.httpSeconds.With(endpoint)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		d.met.clientReqs.With(clientKey(r)).Inc()
		h(w, r)
		hist.Observe(time.Since(start).Seconds())
	})
}

// clientKey derives the tenant identity a request is accounted and
// rate-limited under: an API token when presented (hashed, so secrets
// never appear in logs or /metrics labels), else the remote host.
func clientKey(r *http.Request) string {
	token := r.Header.Get("X-API-Key")
	if token == "" {
		if auth := r.Header.Get("Authorization"); strings.HasPrefix(auth, "Bearer ") {
			token = strings.TrimPrefix(auth, "Bearer ")
		}
	}
	if token != "" {
		sum := sha256.Sum256([]byte(token))
		return "key:" + hex.EncodeToString(sum[:4])
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil || host == "" {
		host = r.RemoteAddr
	}
	if host == "" {
		host = "unknown"
	}
	return "addr:" + host
}

// writeJSON renders v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError renders the error envelope, attaching Retry-After when set.
func writeError(w http.ResponseWriter, status int, reason, msg string, retryAfter time.Duration) {
	if retryAfter > 0 {
		w.Header().Set("Retry-After",
			fmt.Sprintf("%d", int(math.Ceil(retryAfter.Seconds()))))
	}
	writeJSON(w, status, errorBody{Error: msg, Reason: reason})
}

// maxSpecBytes bounds a submission body; a sweep spec is a few hundred
// bytes, so anything near the cap is garbage.
const maxSpecBytes = 1 << 20

// handleSubmit admits one job: rate limit, decode, validate, compile,
// enqueue — refusing with 429 + Retry-After at either admission gate.
func (d *Daemon) handleSubmit(w http.ResponseWriter, r *http.Request) {
	client := clientKey(r)
	if ok, retry := d.limiter.Allow(client, d.cfg.now()); !ok {
		d.met.observeRejection("ratelimit")
		writeError(w, http.StatusTooManyRequests, "ratelimit",
			"client rate limit exceeded", retry)
		return
	}

	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		d.met.observeRejection("invalid")
		writeError(w, http.StatusBadRequest, "invalid",
			fmt.Sprintf("bad job spec: %v", err), 0)
		return
	}
	if spec.TimeoutS < 0 || spec.Workers < 0 {
		d.met.observeRejection("invalid")
		writeError(w, http.StatusBadRequest, "invalid",
			"timeout_s and workers must be non-negative", 0)
		return
	}
	n, err := spec.NumJobs()
	if err != nil {
		d.met.observeRejection("invalid")
		writeError(w, http.StatusBadRequest, "invalid",
			fmt.Sprintf("bad job spec: %v", err), 0)
		return
	}
	if n > d.cfg.MaxJobsPerSweep {
		d.met.observeRejection("toolarge")
		writeError(w, http.StatusBadRequest, "toolarge",
			fmt.Sprintf("spec expands to %d jobs, cap is %d", n, d.cfg.MaxJobsPerSweep), 0)
		return
	}
	jobs, err := spec.Jobs(d.cfg.Base)
	if err != nil {
		d.met.observeRejection("invalid")
		writeError(w, http.StatusBadRequest, "invalid",
			fmt.Sprintf("bad job spec: %v", err), 0)
		return
	}

	st, admErr := d.submit(client, spec, jobs)
	if admErr != nil {
		d.met.observeRejection(admErr.reason)
		writeError(w, admErr.status, admErr.reason, admErr.msg, admErr.retryAfter)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

// handleList returns every retained job, oldest first.
func (d *Daemon) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobStatus `json:"jobs"`
	}{d.store.list()})
}

// handleStatus returns one job's status.
func (d *Daemon) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := d.store.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown", "no such job", 0)
		return
	}
	writeJSON(w, http.StatusOK, d.store.status(j))
}

// handleResult serves the job's manifest: canonical JSON by default, the
// per-job table as CSV with ?format=csv. A partial manifest (canceled or
// timed-out job) is served too — its records say what was skipped — but a
// job with no manifest at all yields 409 until it finishes.
func (d *Daemon) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := d.store.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown", "no such job", 0)
		return
	}
	format := r.URL.Query().Get("format")
	if format != "" && format != "json" && format != "csv" {
		writeError(w, http.StatusBadRequest, "invalid", "format must be json or csv", 0)
		return
	}
	m := d.store.manifest(j)
	if m == nil {
		st := d.store.status(j)
		writeError(w, http.StatusConflict, "notready",
			fmt.Sprintf("job is %s; result not available yet", st.State), 0)
		return
	}
	if format == "csv" {
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		w.Write([]byte(m.JobTable().CSV()))
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Write(m.CanonicalJSON())
}

// handleWatch streams the job's status as newline-delimited JSON until it
// reaches a terminal state or the client disconnects — chunked progress
// for clients that would otherwise poll.
func (d *Daemon) handleWatch(w http.ResponseWriter, r *http.Request) {
	j, ok := d.store.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown", "no such job", 0)
		return
	}
	flusher, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	w.Header().Set("Cache-Control", "no-store")
	enc := json.NewEncoder(w)
	lastState, lastDone := State(""), -1
	for {
		st := d.store.status(j)
		if st.State != lastState || st.Progress.Completed != lastDone {
			enc.Encode(st)
			if canFlush {
				flusher.Flush()
			}
			lastState, lastDone = st.State, st.Progress.Completed
		}
		if st.State.Terminal() {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-time.After(d.cfg.WatchInterval):
		}
	}
}

// handleCancel requests cancellation.
func (d *Daemon) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := d.store.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown", "no such job", 0)
		return
	}
	if !d.store.requestCancel(j, d.cfg.now()) {
		writeError(w, http.StatusConflict, "terminal",
			fmt.Sprintf("job already %s", d.store.status(j).State), 0)
		return
	}
	writeJSON(w, http.StatusAccepted, d.store.status(j))
}
