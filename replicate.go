package nwcq

import (
	"fmt"

	"nwcq/internal/wal"
)

// Replication: the write-ahead log doubles as a logical replication
// stream. A leader ships committed records past a follower's position;
// the follower applies them through the same mutation path as local
// writes, wrapped in recApply records so its replica position rides its
// own WAL and checkpoints (durable.go). When the leader has already
// recycled the requested history, the follower re-bootstraps from a
// point snapshot pinned at a view's LSN.
//
// Safety invariants:
//
//   - Only durable, fate-decided records are shipped. Durable because a
//     leader crash may erase anything above the fsync watermark, and a
//     follower that applied an erased record would be ahead of every
//     future leader state. Fate-decided (settled) because a record may
//     yet be neutralised by an abort; the stream waits until it knows,
//     then either ships the record or silently skips the record+abort
//     pair.
//   - Retention: a stream holds a wal.Lease at its unread position, so
//     leader checkpoints never recycle history mid-catch-up.
//   - Snapshots pin a published view and Sync the log through the
//     view's LSN before handing out points: the snapshot's implicit
//     prefix can then never be lost to a leader restart.

// ErrCompacted reports that a requested replication position has been
// recycled by a checkpoint; the caller must bootstrap from
// ReplicationSnapshot instead.
var ErrCompacted = wal.ErrCompacted

// ReplicationLSNs is the leader-side position vector of a paged index.
type ReplicationLSNs struct {
	// Appended is the last LSN handed out by the log.
	Appended uint64 `json:"appended_lsn"`
	// Durable is the highest fsynced LSN.
	Durable uint64 `json:"durable_lsn"`
	// Committed is the LSN of the current published view — the newest
	// record a query can observe, and the convergence target for
	// followers.
	Committed uint64 `json:"committed_lsn"`
	// Replica is the highest leader LSN applied locally; zero unless
	// this index is itself a follower.
	Replica uint64 `json:"replica_lsn"`
}

// Replicator is the replication surface a paged index exposes: leaders
// hand out snapshots and record streams, followers apply them and report
// their position. The server's GET /wal/stream endpoint is a thin frame
// codec over this interface.
type Replicator interface {
	ReplicationLSNs() ReplicationLSNs
	ReplicationSnapshot() ([]Point, uint64, error)
	StreamFrom(from uint64) (*ReplicationStream, error)
}

var _ Replicator = (*PagedIndex)(nil)

// ReplicationLSNs returns the index's current position vector.
func (p *PagedIndex) ReplicationLSNs() ReplicationLSNs {
	return ReplicationLSNs{
		Appended:  p.log.AppendedLSN(),
		Durable:   p.log.DurableLSN(),
		Committed: p.cur.Load().lsn,
		Replica:   p.dur.replica.Load(),
	}
}

// ReplicaLSN returns the highest leader LSN this index has applied
// (zero on leaders).
func (p *PagedIndex) ReplicaLSN() uint64 {
	return p.dur.replica.Load()
}

// ReplicationSnapshot captures every point of one published view plus
// the LSN that view commits at, for bootstrapping a follower whose
// requested position was already recycled. The log is fsynced through
// the snapshot LSN first: the records the snapshot embodies must never
// be lost to a leader restart once a follower has built on them.
func (p *PagedIndex) ReplicationSnapshot() ([]Point, uint64, error) {
	v := p.acquire()
	defer v.release()
	if err := p.log.Sync(v.lsn); err != nil {
		return nil, 0, fmt.Errorf("nwcq: snapshot sync: %w", err)
	}
	pts, err := v.tree.All()
	if err != nil {
		return nil, 0, err
	}
	return pts, v.lsn, nil
}

// ReplicationStream iterates committed records in LSN order, holding a
// retention lease on everything not yet delivered. Not safe for
// concurrent use.
type ReplicationStream struct {
	d *durability
	r *wal.Reader
	// cur holds a fetched record whose fate is not yet decided; look
	// holds the record after an already-emittable cur (fetched while
	// peeking for an abort).
	cur  *wal.Record
	look *wal.Record
}

// StreamFrom opens a record stream starting at from (the first LSN the
// follower has not applied). Returns ErrCompacted when that history is
// recycled — bootstrap from ReplicationSnapshot and stream from its LSN
// plus one instead. Close the stream to release its retention lease.
func (p *PagedIndex) StreamFrom(from uint64) (*ReplicationStream, error) {
	r, err := p.log.NewReader(from)
	if err != nil {
		return nil, err
	}
	return &ReplicationStream{d: p.dur, r: r}, nil
}

// Next returns the next record a follower should apply, or nil when
// nothing more can be shipped yet (poll again later). Abort records and
// the mutations they neutralise are filtered out; payloads are shipped
// verbatim, so a follower of a follower would see recApply wrappers and
// refuse them (chained replication is unsupported).
func (s *ReplicationStream) Next() (*ReplicationRecord, error) {
	for {
		// Fetch the next candidate (reusing a stashed lookahead first).
		if s.cur == nil {
			if s.look != nil {
				s.cur, s.look = s.look, nil
			} else {
				rec, ok, err := s.r.Next()
				if err != nil {
					return nil, err
				}
				if !ok {
					return nil, nil
				}
				s.cur = &rec
			}
		}
		n := s.cur.LSN
		r, err := decodeRecord(s.cur.Data)
		if err != nil {
			return nil, fmt.Errorf("nwcq: stream lsn %d: %w", n, err)
		}
		if r.op == recAbort {
			// A bare abort whose target preceded the stream start (or was
			// already skipped): nothing for the follower.
			s.cur = nil
			continue
		}
		settled := s.d.settled.Load()
		if settled < n {
			// Fate unknown: the mutation at n may still abort. Hold it.
			return nil, nil
		}
		if settled == n {
			// n settled as the newest decided record and it is not an
			// abort, so it published.
			rec := &ReplicationRecord{LSN: n, Data: s.cur.Data}
			s.cur = nil
			return rec, nil
		}
		// settled > n: the record after n exists and decides n's fate —
		// an abort targeting n kills the pair, anything else means n
		// published. The peek must itself wait for durability.
		next, ok, err := s.r.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, nil
		}
		if nr, err := decodeRecord(next.Data); err == nil && nr.op == recAbort && nr.target == n {
			s.cur = nil // drop the aborted pair
			continue
		}
		s.look = &next
		rec := &ReplicationRecord{LSN: n, Data: s.cur.Data}
		s.cur = nil
		return rec, nil
	}
}

// Pos returns the LSN of the next record the stream would deliver.
func (s *ReplicationStream) Pos() uint64 {
	if s.cur != nil {
		return s.cur.LSN
	}
	if s.look != nil {
		return s.look.LSN
	}
	return s.r.Pos()
}

// Close releases the stream's retention lease.
func (s *ReplicationStream) Close() { s.r.Close() }

// ReplicationRecord is one committed mutation shipped to a follower.
// Data is the leader's opaque record payload; followers hand it to
// ApplyReplicated verbatim.
type ReplicationRecord struct {
	LSN  uint64
	Data []byte
}

// ApplyReplicated applies one leader record on a follower, advancing
// the replica position to leaderLSN. Records at or below the current
// position are skipped (reconnect overlap delivers duplicates).
//
// The record lands in the follower's own WAL but is deliberately NOT
// fsynced per call: a follower that fsyncs every record caps its apply
// rate at the raw fsync rate while the leader's group commit coalesces
// many writers, so it could never catch up under sustained load. The
// durability anchor is the leader — a follower crash recovers to its
// last durable position (checkpoints sync the log) and re-streams the
// suffix; redelivery is idempotent, and a position below the leader's
// retained floor just re-bootstraps from a snapshot.
func (p *PagedIndex) ApplyReplicated(leaderLSN uint64, data []byte) error {
	r, err := decodeRecord(data)
	if err != nil {
		return err
	}
	if r.replicated || (r.op != recInsert && r.op != recDelete) {
		return fmt.Errorf("nwcq: replicated record op %d is not a mutation (chained replication is unsupported)", data[0])
	}
	r.replicated, r.leader = true, leaderLSN
	p.wmu.Lock()
	defer p.wmu.Unlock()
	if leaderLSN != 0 && leaderLSN <= p.dur.replica.Load() {
		return nil
	}
	_, _, err = p.mutateLocked(r)
	return err
}

// ApplySnapshotChunk inserts one chunk of a leader snapshot on a
// follower. Intermediate chunks carry leaderLSN 0 (position unknown
// until the snapshot completes); the final chunk carries the snapshot
// LSN, committing the position in the same logged mutation as the last
// points.
func (p *PagedIndex) ApplySnapshotChunk(pts []Point, leaderLSN uint64) error {
	_, err := p.run(record{op: recInsert, pts: pts, replicated: true, leader: leaderLSN})
	return err
}

// ResetForSnapshot discards every indexed point and zeroes the replica
// position as one logged, crash-safe mutation — the follower's first
// step when the leader can only offer a snapshot bootstrap and local
// state (partial or diverged) must go.
func (p *PagedIndex) ResetForSnapshot() error {
	_, err := p.run(record{op: recReset})
	return err
}
