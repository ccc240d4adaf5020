package server

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"nwcq"
	"nwcq/internal/repl"
	"nwcq/internal/trace"
)

// Option configures optional Server behaviour; pass options to New.
type Option func(*Server)

// Health is the server's readiness gate, shared between the process
// that knows when startup finished (nwcserve: after the backend opened
// and any WAL replay completed) and the /readyz endpoint. Liveness
// (/healthz) is unconditional — the process is up — while readiness
// flips only once the backend can actually answer queries, so load
// balancers and load generators (cmd/nwcload) can gate on it without
// racing crash recovery.
type Health struct {
	ready atomic.Bool
}

// NewHealth returns a not-yet-ready gate.
func NewHealth() *Health { return &Health{} }

// SetReady publishes the readiness state; safe for concurrent use.
func (h *Health) SetReady(v bool) { h.ready.Store(v) }

// Ready reports the current readiness state.
func (h *Health) Ready() bool { return h.ready.Load() }

// handleHealthz is liveness: the process is up.
func handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// readyzHandler is readiness: 503 until the gate opens (nil: no gate),
// and on a follower 503 while the replica lags past its staleness bound
// (nil: not a follower).
func readyzHandler(h *Health, replica func() repl.Status) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if h != nil && !h.Ready() {
			http.Error(w, "starting", http.StatusServiceUnavailable)
			return
		}
		if replica != nil {
			if st := replica(); !st.Ready {
				http.Error(w, fmt.Sprintf(
					"replica lagging: replica_lsn=%d leader_committed_lsn=%d lag_seconds=%.1f diverged=%t",
					st.ReplicaLSN, st.LeaderCommittedLSN, st.LagSeconds, st.Diverged),
					http.StatusServiceUnavailable)
				return
			}
		}
		handleHealthz(w, r)
	}
}

// BootHandler serves the startup window before the backend is open, on
// the same /healthz and /readyz handlers the full server mounts:
// liveness succeeds (the process is up), readiness and everything else
// answer 503 so load balancers and the load harness keep waiting.
func BootHandler(h *Health) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", handleHealthz)
	mux.HandleFunc("GET /readyz", readyzHandler(h, nil))
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "starting", http.StatusServiceUnavailable)
	})
	return mux
}

// WithHealth attaches a readiness gate to the server: GET /readyz
// answers 503 until h.SetReady(true). Without it /readyz is always 200
// (a server constructed around an already-open backend is ready by
// definition).
func WithHealth(h *Health) Option {
	return func(s *Server) { s.health = h }
}

// WithQueryLog enables the sampled wide-event query log: one structured
// record per sampled NWC/kNWC request carrying everything the stack
// attributed to it — cache outcome, engine phase timings, shard
// fan-out, border-fetch work and the router's scatter/border/merge
// split. sampleN is the 1-in-N sampling rate; n <= 1 logs every
// request. A nil logger disables the log.
func WithQueryLog(logger *slog.Logger, sampleN int) Option {
	return func(s *Server) {
		if logger == nil {
			return
		}
		if sampleN < 1 {
			sampleN = 1
		}
		s.qlog = &queryLog{logger: logger, n: uint64(sampleN)}
	}
}

// queryLog samples requests and emits their wide events. Sampling is a
// single atomic increment; unsampled requests never allocate a record, so
// the stack's attribution hooks all stay on their nil fast paths.
type queryLog struct {
	logger *slog.Logger
	n      uint64
	seq    atomic.Uint64
}

// attach returns ctx carrying a fresh query record when this request is
// sampled, and the record itself (nil when unsampled or logging is off).
// An explained request's trace is rendered from the same record.
func (ql *queryLog) attach(ctx context.Context) (context.Context, *trace.Record) {
	if ql == nil {
		return ctx, nil
	}
	if ql.n > 1 && ql.seq.Add(1)%ql.n != 1 {
		return ctx, nil
	}
	return trace.Ensure(ctx)
}

// emit writes the completed record as one structured wide event: the
// cache outcome, the engine's phases (an index's execution) and the
// router's block (a routed query). A nil record (unsampled request) is a
// no-op.
func (ql *queryLog) emit(op string, q nwcq.Query, k, m int, elapsed time.Duration, found bool, tr *trace.Record, err error) {
	if tr == nil {
		return
	}
	attrs := []slog.Attr{
		slog.String("op", op),
		slog.String("scheme", q.Scheme.String()),
		slog.String("measure", q.Measure.String()),
		slog.Float64("x", q.X), slog.Float64("y", q.Y),
		slog.Float64("l", q.Length), slog.Float64("w", q.Width),
		slog.Int("n", q.N),
		slog.Int64("duration_ns", elapsed.Nanoseconds()),
		slog.Bool("found", found),
	}
	if k > 0 {
		attrs = append(attrs, slog.Int("k", k), slog.Int("m", m))
	}
	if tr.Cache != "" {
		attrs = append(attrs, slog.String("cache", tr.Cache))
	}
	if tr.Engine != nil {
		attrs = append(attrs, slog.Any("phases", eventPhases(tr.Engine.Phases())))
	}
	if tr.Router != nil {
		attrs = append(attrs, slog.Any("router", tr.Router))
	}
	if err != nil {
		attrs = append(attrs, slog.String("error", err.Error()))
	}
	ql.logger.LogAttrs(context.Background(), slog.LevelInfo, "query", attrs...)
}

// eventPhases renders the engine's phases in the wide event, whose key
// for a phase's name is "name" where the explain trace's is "phase".
type eventPhases []nwcq.PhaseTrace

func (ps eventPhases) MarshalJSON() ([]byte, error) {
	b := []byte{'['}
	for i, p := range ps {
		if i > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, `{"name":%q,"duration_ns":%d,"entered":%d,"node_visits":%d}`,
			p.Phase, int64(p.Duration), p.Entered, p.NodeVisits)
	}
	return append(b, ']'), nil
}
