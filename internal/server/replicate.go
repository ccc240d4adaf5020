package server

import (
	"bufio"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"nwcq"
	"nwcq/internal/metrics"
	"nwcq/internal/repl"
)

// WithReplica attaches a follower's status source. The server then
// reports the replica block on /metrics, exports follower gauges on the
// Prometheus endpoint, and gates /readyz on the replica being caught up
// within its staleness bound.
func WithReplica(status func() repl.Status) Option {
	return func(s *Server) { s.replica = status }
}

// Stream pacing: how often the handler polls the replication stream for
// newly settled records, and how often it emits a heartbeat when no
// records flow.
const (
	streamPollInterval      = 10 * time.Millisecond
	streamHeartbeatInterval = 250 * time.Millisecond
)

var errNotReplicator = errors.New("backend does not ship its WAL (need a single paged index)")

// handleWALStream serves GET /wal/stream?from=<lsn>: a chunked binary
// stream of committed WAL records from the requested LSN onward,
// interleaved with heartbeats carrying the leader's durable and
// committed positions. If the requested position was already recycled
// by a checkpoint, the stream opens with a full snapshot (at an LSN the
// WAL still covers) and continues from there. The response never ends
// on its own; the client hangs up when done.
func (s *Server) handleWALStream(w http.ResponseWriter, r *http.Request) {
	rep, ok := s.idx.(nwcq.Replicator)
	if !ok {
		s.fail(w, http.StatusNotImplemented, errNotReplicator)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.fail(w, http.StatusInternalServerError, errors.New("response writer cannot stream"))
		return
	}
	from := uint64(1)
	if v := r.URL.Query().Get("from"); v != "" {
		parsed, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("invalid from LSN %q: %w", v, err))
			return
		}
		from = parsed
	}

	// Open the stream; a compacted position bootstraps via snapshot. A
	// checkpoint can race between taking the snapshot and opening the
	// reader at its LSN (the snapshot holds no lease), so retry a few
	// times — each retry's snapshot is strictly newer.
	var (
		stream       *nwcq.ReplicationStream
		snapPts      []nwcq.Point
		snapLSN      uint64
		bootstrapped bool
	)
	stream, err := rep.StreamFrom(from)
	for attempt := 0; errors.Is(err, nwcq.ErrCompacted); attempt++ {
		if attempt >= 5 {
			s.fail(w, http.StatusInternalServerError,
				errors.New("snapshot bootstrap kept racing WAL recycling"))
			return
		}
		snapPts, snapLSN, err = rep.ReplicationSnapshot()
		if err != nil {
			s.fail(w, http.StatusInternalServerError, err)
			return
		}
		bootstrapped = true
		stream, err = rep.StreamFrom(snapLSN + 1)
	}
	if err != nil {
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	defer stream.Close()

	w.Header().Set("Content-Type", "application/octet-stream")
	// Tell intermediary proxies (nginx) not to buffer the live stream.
	w.Header().Set("X-Accel-Buffering", "no")
	bw := bufio.NewWriterSize(w, 32<<10)
	pw := repl.NewWriter(bw)
	flush := func() bool {
		if bw.Flush() != nil {
			return false
		}
		flusher.Flush()
		return true
	}

	if bootstrapped {
		if pw.Snapshot(snapLSN, len(snapPts)) != nil {
			return
		}
		for off := 0; off < len(snapPts); off += repl.SnapshotChunk {
			end := min(off+repl.SnapshotChunk, len(snapPts))
			if pw.Points(snapPts[off:end]) != nil {
				return
			}
		}
	}
	heartbeat := func() bool {
		lsns := rep.ReplicationLSNs()
		return pw.Heartbeat(lsns.Durable, lsns.Committed, time.Now()) == nil
	}
	// Leading heartbeat: the follower learns the leader's position (and
	// can detect divergence) before any record arrives.
	if !heartbeat() || !flush() {
		return
	}

	ctx := r.Context()
	poll := time.NewTicker(streamPollInterval)
	defer poll.Stop()
	beat := time.NewTicker(streamHeartbeatInterval)
	defer beat.Stop()
	for {
		progressed := false
		for {
			rec, err := stream.Next()
			if err != nil {
				// The WAL went away under us (index closing): end the
				// stream; the follower reconnects.
				return
			}
			if rec == nil {
				break
			}
			if pw.Record(rec.LSN, rec.Data) != nil {
				return
			}
			progressed = true
		}
		if progressed {
			// Piggyback the new committed position on the batch so the
			// follower's lag drops the moment it applies these records.
			if !heartbeat() || !flush() {
				return
			}
		}
		select {
		case <-ctx.Done():
			return
		case <-s.closing:
			// Server shutdown: end the stream now so http.Server.Shutdown
			// is not held hostage by a follower that never hangs up.
			return
		case <-beat.C:
			if !heartbeat() || !flush() {
				return
			}
		case <-poll.C:
		}
	}
}

// writeReplicaPrometheus appends the follower gauges to the Prometheus
// exposition.
func writeReplicaPrometheus(pw *metrics.PromWriter, st repl.Status) {
	b2f := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	pw.Gauge("nwcq_replica_lag_seconds", "Time since the replica last matched the leader's committed LSN (-1 before first catch-up).", st.LagSeconds)
	pw.Gauge("nwcq_replica_connected", "Whether the WAL stream to the leader is open.", b2f(st.Connected))
	pw.Gauge("nwcq_replica_ready", "Whether the replica serves within its staleness bound.", b2f(st.Ready))
	pw.Counter("nwcq_replica_reconnects_total", "Stream reconnect attempts.", float64(st.Reconnects))
	pw.Counter("nwcq_replica_snapshots_total", "Snapshot bootstraps received.", float64(st.Snapshots))
	pw.Counter("nwcq_replica_records_applied_total", "Replicated WAL records applied.", float64(st.RecordsApplied))
	pw.Gauge("nwcq_replica_leader_durable_lsn", "Leader durable LSN from the last heartbeat.", float64(st.LeaderDurableLSN))
	pw.Gauge("nwcq_replica_leader_committed_lsn", "Leader committed LSN from the last heartbeat.", float64(st.LeaderCommittedLSN))
}
