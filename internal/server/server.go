// Package server exposes an nwcq index as a JSON-over-HTTP
// location-based service — the deployment shape the paper's motivating
// scenario implies (Section 1: a service suggesting the nearest cluster
// of shops back to the user).
//
// Endpoints:
//
//	GET  /nwc?x=&y=&l=&w=&n=[&scheme=][&measure=][&explain=1][&as_of_lsn=] one group
//	GET  /knwc?x=&y=&l=&w=&n=&k=[&m=][&scheme=][&measure=][&explain=1][&as_of_lsn=] k groups
//	GET  /nearest?x=&y=&k=                                 plain k-NN
//	POST /insert {"x":,"y":,"id":}                         add one point
//	POST /delete {"x":,"y":,"id":}                         remove one point
//	POST /batch/nwc {"queries":[...]}                      many NWC in one call
//	POST /batch/knwc {"queries":[...]}                     many kNWC in one call
//	GET  /subscribe?x=&y=&l=&w=&n=[&last_event_id=]        standing NWC query (SSE)
//	GET  /stats                                            index + I/O counters
//	GET  /metrics[?format=prometheus]                      latency/I-O histograms
//	GET  /debug/slowlog                                    slow-query ring
//	GET  /healthz                                          liveness
//	GET  /readyz                                           readiness (503 until the backend opened)
//
// Query handlers run under the request's context, so a client that
// disconnects (or a server read timeout) cancels the index traversal
// mid-flight. Request accounting is lock-free: per-endpoint counters
// and latency histograms are atomic, so instrumentation adds no
// contention between concurrent requests.
//
// Mutations may run concurrently with queries: the index publishes
// immutable views atomically, so every in-flight GET observes one
// consistent version and POST /insert / POST /delete never block reads.
// When the server wraps a paged index (nwcserve -index), a mutation is
// additionally written ahead to the index's log before the 200 is sent,
// so an acknowledged insert or delete survives a crash.
//
// GET /subscribe holds the connection open and streams the standing
// query's answer as Server-Sent Events — one full answer per frame,
// stamped with the WAL LSN that produced it — with Last-Event-ID
// resume. When the index retains superseded views (-retain-views),
// as_of_lsn= on /nwc and /knwc answers the query as of that LSN (410
// once the view has aged out).
//
// Passing explain=1 to /nwc or /knwc runs the query with per-query
// structured tracing enabled and attaches the phase-by-phase trace to
// the response; /metrics?format=prometheus renders the same metrics in
// the Prometheus text exposition format.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"nwcq"
	"nwcq/internal/histo"
	"nwcq/internal/metrics"
	"nwcq/internal/repl"
)

// endpointStats aggregates one route's request count, failure count and
// latency distribution with atomics only.
type endpointStats struct {
	requests metrics.Counter
	failures metrics.Counter
	latency  *histo.Histogram // seconds
}

func newEndpointStats() *endpointStats {
	return &endpointStats{
		// 10µs .. ~80s in ×2 steps.
		latency: histo.Must(histo.LogBuckets(1e-5, 2, 23)),
	}
}

// Server handles queries and mutations against one index. It is safe
// for concurrent use: reads run lock-free against atomically published
// index views, mutations serialise inside the index, and all request
// accounting is atomic.
type Server struct {
	idx nwcq.Querier
	mut nwcq.Mutator

	served metrics.Counter
	failed metrics.Counter
	// endpoints is built once in New and read-only afterwards.
	endpoints map[string]*endpointStats

	// health gates /readyz (WithHealth); nil means always ready.
	health *Health
	// qlog is the sampled wide-event query log (WithQueryLog); nil means
	// off.
	qlog *queryLog
	// replica reports follower status (WithReplica); nil on leaders and
	// standalone servers.
	replica func() repl.Status

	// closing is closed by Close: the long-lived streaming handlers
	// (GET /wal/stream, GET /subscribe) select on it so a graceful
	// shutdown terminates them promptly instead of waiting out their
	// clients.
	closing   chan struct{}
	closeOnce sync.Once
}

// New wraps a query backend and an optional mutation backend. Any
// nwcq.Querier works: a single *nwcq.Index (in-memory or paged) or a
// shard.Sharded router — the handlers are backend-agnostic. A nil
// Mutator makes the deployment read-only: POST /insert and /delete
// answer 501. Backends that also implement nwcq.Introspector and
// nwcq.SlowLogger unlock /stats and /debug/slowlog; others get 501
// there too. Options attach the readiness gate (WithHealth) and the
// sampled wide-event query log (WithQueryLog).
func New(q nwcq.Querier, m nwcq.Mutator, opts ...Option) *Server {
	s := &Server{idx: q, mut: m, endpoints: make(map[string]*endpointStats), closing: make(chan struct{})}
	for _, name := range []string{"nwc", "knwc", "nearest", "insert", "delete", "stats", "metrics", "slowlog", "batch_nwc", "batch_knwc", "wal_stream", "subscribe"} {
		s.endpoints[name] = newEndpointStats()
	}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Handler returns the routed HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /nwc", s.instrument("nwc", s.handleNWC))
	mux.HandleFunc("GET /knwc", s.instrument("knwc", s.handleKNWC))
	mux.HandleFunc("GET /nearest", s.instrument("nearest", s.handleNearest))
	mux.HandleFunc("POST /insert", s.instrument("insert", s.handleInsert))
	mux.HandleFunc("POST /delete", s.instrument("delete", s.handleDelete))
	mux.HandleFunc("GET /stats", s.instrument("stats", s.handleStats))
	mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	mux.HandleFunc("GET /debug/slowlog", s.instrument("slowlog", s.handleSlowlog))
	mux.HandleFunc("POST /batch/nwc", s.instrument("batch_nwc", s.handleBatchNWC))
	mux.HandleFunc("POST /batch/knwc", s.instrument("batch_knwc", s.handleBatchKNWC))
	mux.HandleFunc("GET /wal/stream", s.instrument("wal_stream", s.handleWALStream))
	mux.HandleFunc("GET /subscribe", s.instrument("subscribe", s.handleSubscribe))
	mux.HandleFunc("GET /healthz", handleHealthz)
	mux.HandleFunc("GET /readyz", readyzHandler(s.health, s.replica))
	return mux
}

// Close signals the long-lived streaming handlers (GET /wal/stream,
// GET /subscribe) to end their responses. Call it before (or alongside)
// http.Server.Shutdown: Shutdown waits for active handlers, and a
// streaming handler never finishes on its own. Idempotent.
func (s *Server) Close() error {
	s.closeOnce.Do(func() { close(s.closing) })
	return nil
}

// instrument wraps a handler with per-endpoint timing and counting. The
// StatusWriter wrapper preserves http.Flusher for the streaming
// endpoints (statuswriter.go).
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	ep := s.endpoints[name]
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := NewStatusWriter(w)
		h(sw, r)
		ep.requests.Inc()
		ep.latency.Observe(time.Since(start).Seconds())
		if sw.Status() >= 400 {
			ep.failures.Inc()
			s.failed.Inc()
		} else {
			s.served.Inc()
		}
	}
}

// The answer types carry their wire names as struct tags where they are
// defined (geom.Point, geom.Rect, core.Group, core.Stats), so a result is
// encoded as the engine returned it. nwcAnswer and knwcAnswer are the two
// shapes it travels in, shared by the single, batch and SSE paths.

// nwcAnswer is the wire form of an nwcq.Result. Group is set only when
// found; Stats is a pointer because an SSE frame embeds this shape with
// neither stats nor a trace.
type nwcAnswer struct {
	Found bool             `json:"found"`
	Group *nwcq.Group      `json:"group,omitempty"`
	Stats *nwcq.Stats      `json:"stats,omitempty"`
	Trace *nwcq.QueryTrace `json:"trace,omitempty"`
}

func nwcAnswerOf(res *nwcq.Result, qt *nwcq.QueryTrace) nwcAnswer {
	out := nwcAnswer{Found: res.Found, Stats: &res.Stats, Trace: qt}
	if res.Found {
		out.Group = &res.Group
	}
	return out
}

// knwcAnswer is the wire form of an nwcq.KResult; Groups is never null.
type knwcAnswer struct {
	Found  bool             `json:"found"`
	Groups []nwcq.Group     `json:"groups"`
	Stats  nwcq.Stats       `json:"stats"`
	Trace  *nwcq.QueryTrace `json:"trace,omitempty"`
}

func knwcAnswerOf(res *nwcq.KResult, qt *nwcq.QueryTrace) knwcAnswer {
	out := knwcAnswer{Found: res.Found, Groups: res.Groups, Stats: res.Stats, Trace: qt}
	if out.Groups == nil {
		out.Groups = []nwcq.Group{}
	}
	return out
}

type errorJSON struct {
	Error string `json:"error"`
}

// queryFrom parses the shared NWC parameters out of a request's query
// string, which its handler parses once (r.URL.Query() builds a new map
// on every call).
func queryFrom(vals url.Values) (nwcq.Query, error) {
	var q nwcq.Query
	var err error
	get := func(name string) (float64, error) {
		v := vals.Get(name)
		if v == "" {
			return 0, fmt.Errorf("missing parameter %q", name)
		}
		return strconv.ParseFloat(v, 64)
	}
	if q.X, err = get("x"); err != nil {
		return q, err
	}
	if q.Y, err = get("y"); err != nil {
		return q, err
	}
	if q.Length, err = get("l"); err != nil {
		return q, err
	}
	if q.Width, err = get("w"); err != nil {
		return q, err
	}
	nv := vals.Get("n")
	if nv == "" {
		return q, fmt.Errorf("missing parameter %q", "n")
	}
	if q.N, err = strconv.Atoi(nv); err != nil {
		return q, fmt.Errorf("parameter %q: %w", "n", err)
	}
	if sv := vals.Get("scheme"); sv != "" {
		scheme, err := ParseScheme(sv)
		if err != nil {
			return q, err
		}
		q.Scheme = scheme
	}
	if mv := vals.Get("measure"); mv != "" {
		measure, err := ParseMeasure(mv)
		if err != nil {
			return q, err
		}
		q.Measure = measure
	}
	return q, nil
}

// ParseScheme maps the paper's scheme names onto Scheme values.
func ParseScheme(s string) (nwcq.Scheme, error) {
	switch strings.ToUpper(s) {
	case "NWC":
		return nwcq.SchemeNWC, nil
	case "SRR":
		return nwcq.SchemeSRR, nil
	case "DIP":
		return nwcq.SchemeDIP, nil
	case "DEP":
		return nwcq.SchemeDEP, nil
	case "IWP":
		return nwcq.SchemeIWP, nil
	case "NWC+":
		return nwcq.SchemeNWCPlus, nil
	case "NWC*":
		return nwcq.SchemeNWCStar, nil
	default:
		return nwcq.Scheme{}, fmt.Errorf("unknown scheme %q", s)
	}
}

// ParseMeasure maps measure names onto Measure values.
func ParseMeasure(s string) (nwcq.Measure, error) {
	switch strings.ToLower(s) {
	case "max":
		return nwcq.MaxDistance, nil
	case "min":
		return nwcq.MinDistance, nil
	case "avg":
		return nwcq.AvgDistance, nil
	case "window":
		return nwcq.WindowDistance, nil
	default:
		return 0, fmt.Errorf("unknown measure %q", s)
	}
}

func (s *Server) fail(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorJSON{Error: err.Error()})
}

func (s *Server) ok(w http.ResponseWriter, payload any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(payload)
}

// wantExplain reports whether the request opted into per-query tracing.
func wantExplain(vals url.Values) bool {
	switch vals.Get("explain") {
	case "1", "true", "yes":
		return true
	}
	return false
}

func (s *Server) handleNWC(w http.ResponseWriter, r *http.Request) {
	vals := r.URL.Query()
	q, err := queryFrom(vals)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	asOf, asOfSet, err := asOfFrom(vals)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	var (
		res nwcq.Result
		qt  *nwcq.QueryTrace
	)
	ctx, tr := s.qlog.attach(r.Context())
	start := time.Now()
	switch {
	case asOfSet:
		tq, ok := s.idx.(nwcq.TemporalQuerier)
		if !ok {
			s.fail(w, http.StatusNotImplemented, errNoTemporal)
			return
		}
		res, err = tq.NWCAsOf(ctx, q, asOf)
	case wantExplain(vals):
		res, qt, err = s.idx.ExplainNWC(ctx, q)
	default:
		res, err = s.idx.NWCCtx(ctx, q)
	}
	s.qlog.emit("nwc", q, 0, 0, time.Since(start), res.Found, tr, err)
	if err != nil {
		s.fail(w, statusFor(err), err)
		return
	}
	s.ok(w, nwcAnswerOf(&res, qt))
}

func (s *Server) handleKNWC(w http.ResponseWriter, r *http.Request) {
	vals := r.URL.Query()
	q, err := queryFrom(vals)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	kv := vals.Get("k")
	if kv == "" {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("missing parameter %q", "k"))
		return
	}
	k, err := strconv.Atoi(kv)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	m := 0
	if mv := vals.Get("m"); mv != "" {
		if m, err = strconv.Atoi(mv); err != nil {
			s.fail(w, http.StatusBadRequest, err)
			return
		}
	}
	kq := nwcq.KQuery{Query: q, K: k, M: m}
	asOf, asOfSet, err := asOfFrom(vals)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	var (
		res nwcq.KResult
		qt  *nwcq.QueryTrace
	)
	ctx, tr := s.qlog.attach(r.Context())
	start := time.Now()
	switch {
	case asOfSet:
		tq, ok := s.idx.(nwcq.TemporalQuerier)
		if !ok {
			s.fail(w, http.StatusNotImplemented, errNoTemporal)
			return
		}
		res, err = tq.KNWCAsOf(ctx, kq, asOf)
	case wantExplain(vals):
		res, qt, err = s.idx.ExplainKNWC(ctx, kq)
	default:
		res, err = s.idx.KNWCCtx(ctx, kq)
	}
	s.qlog.emit("knwc", q, k, m, time.Since(start), res.Found, tr, err)
	if err != nil {
		s.fail(w, statusFor(err), err)
		return
	}
	s.ok(w, knwcAnswerOf(&res, qt))
}

// statusFor maps index errors onto HTTP statuses: parameter rejections
// are the client's fault, a cancelled request context is the client
// hanging up (499 by nginx convention), anything else is a 500.
func statusFor(err error) int {
	switch {
	case errors.Is(err, nwcq.ErrInvalidQuery):
		return http.StatusBadRequest
	case errors.Is(err, nwcq.ErrLSNNotRetained):
		// The requested version is outside the retained window: gone (or
		// not yet); retrying the same LSN will not help.
		return http.StatusGone
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// 499: client closed request (nginx convention); the write will
		// usually go nowhere, but the accounting classifies it failed.
		return 499
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) handleNearest(w http.ResponseWriter, r *http.Request) {
	vals := r.URL.Query()
	x, err1 := strconv.ParseFloat(vals.Get("x"), 64)
	y, err2 := strconv.ParseFloat(vals.Get("y"), 64)
	k, err3 := strconv.Atoi(vals.Get("k"))
	for _, err := range []error{err1, err2, err3} {
		if err != nil {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("nearest needs numeric x, y, k: %v", err))
			return
		}
	}
	pts, err := s.idx.Nearest(x, y, k)
	if err != nil {
		s.fail(w, statusFor(err), err)
		return
	}
	if pts == nil {
		pts = []nwcq.Point{} // an empty answer is [], not null
	}
	s.ok(w, pts)
}

// decodePoint reads the JSON body shared by /insert and /delete. The
// body is capped well above any legitimate point payload so a
// misbehaving client cannot tie up the handler.
func decodePoint(r *http.Request) (nwcq.Point, error) {
	var p nwcq.Point
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nwcq.Point{}, fmt.Errorf("invalid point body: %w", err)
	}
	return p, nil
}

// points reports the live point count when the backend can introspect
// it, -1 otherwise (keeps the mutation responses' shape stable).
func (s *Server) points() int {
	if in, ok := s.idx.(nwcq.Introspector); ok {
		return in.Len()
	}
	return -1
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	if s.mut == nil {
		s.fail(w, http.StatusNotImplemented, errReadOnly)
		return
	}
	p, err := decodePoint(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if err := s.mut.Insert(p); err != nil {
		s.fail(w, statusFor(err), err)
		return
	}
	s.ok(w, map[string]any{"inserted": true, "points": s.points()})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if s.mut == nil {
		s.fail(w, http.StatusNotImplemented, errReadOnly)
		return
	}
	p, err := decodePoint(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	found, err := s.mut.Delete(p)
	if err != nil {
		s.fail(w, statusFor(err), err)
		return
	}
	if !found {
		s.fail(w, http.StatusNotFound, fmt.Errorf("point (%g, %g, %d) not indexed", p.X, p.Y, p.ID))
		return
	}
	s.ok(w, map[string]any{"deleted": true, "points": s.points()})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	in, ok := s.idx.(nwcq.Introspector)
	if !ok {
		s.fail(w, http.StatusNotImplemented, fmt.Errorf("backend does not expose index stats"))
		return
	}
	gridB, iwpB := in.StorageOverheadBytes()
	s.ok(w, map[string]any{
		"points":          in.Len(),
		"tree_height":     in.TreeHeight(),
		"node_visits":     in.IOStats(),
		"grid_bytes":      gridB,
		"iwp_bytes":       iwpB,
		"requests_served": s.served.Value(),
		"requests_failed": s.failed.Value(),
	})
}

// endpointSummary summarises one route for /metrics.
type endpointSummary struct {
	Requests     uint64  `json:"requests"`
	Failures     uint64  `json:"failures"`
	LatencyP50Ms float64 `json:"latency_p50_ms"`
	LatencyP95Ms float64 `json:"latency_p95_ms"`
	LatencyP99Ms float64 `json:"latency_p99_ms"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prometheus" {
		s.handleMetricsPrometheus(w)
		return
	}
	eps := make(map[string]endpointSummary, len(s.endpoints))
	for name, ep := range s.endpoints {
		lat := ep.latency.Snapshot()
		eps[name] = endpointSummary{
			Requests:     ep.requests.Value(),
			Failures:     ep.failures.Value(),
			LatencyP50Ms: lat.QuantileOr(0.50, 0) * 1e3,
			LatencyP95Ms: lat.QuantileOr(0.95, 0) * 1e3,
			LatencyP99Ms: lat.QuantileOr(0.99, 0) * 1e3,
		}
	}
	out := map[string]any{
		"index":     s.idx.Metrics(),
		"endpoints": eps,
	}
	if s.replica != nil {
		out["replica"] = s.replica()
	}
	s.ok(w, out)
}

// handleMetricsPrometheus renders the index metrics plus the server's
// per-endpoint families (and a follower's replica gauges) in the
// Prometheus text exposition format. A PromWriter stops writing at its
// first error — the client went away — and the handler stops rendering
// there.
func (s *Server) handleMetricsPrometheus(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.idx.WritePrometheus(w); err != nil {
		return
	}
	names := metrics.SortedKeys(s.endpoints)
	pw := &metrics.PromWriter{W: w}
	pw.Header("nwcq_http_requests_total", "counter", "HTTP requests served, by endpoint.")
	for _, name := range names {
		pw.Value("nwcq_http_requests_total", metrics.Labels{"endpoint", name}, float64(s.endpoints[name].requests.Value()))
	}
	pw.Header("nwcq_http_failures_total", "counter", "HTTP requests answered with status >= 400, by endpoint.")
	for _, name := range names {
		pw.Value("nwcq_http_failures_total", metrics.Labels{"endpoint", name}, float64(s.endpoints[name].failures.Value()))
	}
	pw.Header("nwcq_http_latency_seconds", "histogram", "HTTP request latency, by endpoint.")
	for _, name := range names {
		pw.Histogram("nwcq_http_latency_seconds", metrics.Labels{"endpoint", name}, s.endpoints[name].latency.Snapshot())
	}
	if s.replica == nil || pw.Err != nil {
		return
	}
	writeReplicaPrometheus(pw, s.replica())
}

// handleSlowlog serves the retained slow-query log entries, newest
// first, plus the configured threshold.
func (s *Server) handleSlowlog(w http.ResponseWriter, r *http.Request) {
	sl, ok := s.idx.(nwcq.SlowLogger)
	if !ok {
		s.fail(w, http.StatusNotImplemented, fmt.Errorf("backend does not keep a slow-query log"))
		return
	}
	s.ok(w, map[string]any{
		"threshold_ns": sl.SlowQueryThreshold(),
		"entries":      sl.SlowQueries(),
	})
}

// errReadOnly is returned by the mutation endpoints when the server was
// built without a Mutator.
var errReadOnly = errors.New("server is read-only: no mutation backend configured")
