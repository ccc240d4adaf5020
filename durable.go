package nwcq

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"nwcq/internal/geom"
	"nwcq/internal/pager"
	"nwcq/internal/rstar"
	"nwcq/internal/wal"
)

// Durability binding for paged indexes: mutations append a logical
// record to the write-ahead log before the page store publishes the
// change, checkpoints fold the log into the page file once it passes a
// size threshold, and OpenPaged replays committed records past the last
// checkpoint (durable.go owns the record format and the protocol;
// internal/wal owns frames, segments and fsync scheduling).
//
// Protocol invariants:
//
//   - Log before publish: the record for a mutation is appended (though
//     not necessarily fsynced) before WriteBatch.Commit writes the
//     shadow pages' new root linkage. The page file's durable commit
//     point is the checkpointed header, which only advances after the
//     log covering it is fsynced, so a crash at any step recovers a
//     prefix of acknowledged mutations.
//   - Aborts: if the commit or publish fails after the record was
//     appended, an abort record neutralises it for replay. If even the
//     abort cannot be appended the log is poisoned (sticky error) and
//     further mutations are refused — the torn state stays frozen for
//     recovery instead of diverging.
//   - Freed pages stay untouched until the checkpoint that stops
//     referencing them is durable: reader-quiesced retired node IDs
//     wait in pending (drainRetiredLocked routes them here) and return
//     to the allocator only after WriteCheckpoint fsyncs the header.
//   - Recovery replays through the same copy-on-write path as live
//     mutations. With an empty free set, replay only appends pages, so
//     it never overwrites state the checkpoint still needs — a crash
//     during recovery just recovers again from the same base.

// SyncPolicy selects when a mutation's WAL record is fsynced, trading
// durability of the most recent writes against latency. See the README
// "Durability" section for the exact guarantee each policy gives.
type SyncPolicy int

const (
	// SyncAlways fsyncs before a mutation returns: an acknowledged
	// write survives any crash. The default.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs in the background at a configurable interval
	// (WithWALSyncInterval): a crash loses at most the last interval's
	// acknowledged writes, never corrupts the index.
	SyncInterval
	// SyncNever leaves fsync to segment rotation, checkpoints and
	// Close: a crash loses an unbounded suffix of acknowledged writes,
	// never corrupts the index.
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

const (
	// defaultCheckpointBytes triggers a checkpoint once this many log
	// bytes accumulate (tests shrink it through
	// buildOptions.walCheckpointBytes).
	defaultCheckpointBytes = 1 << 20
	// defaultSyncInterval is the SyncInterval flush cadence when
	// WithWALSyncInterval is not given a duration.
	defaultSyncInterval = 100 * time.Millisecond
)

// Record payloads: one op byte, then op-specific data.
//
//	insert, delete  [op][4B n][n points, geom.PointSize bytes each]
//	abort           [op][8B LSN it neutralises]
//	apply           [op][8B leader LSN][an insert or delete payload]
//	reset           [op]
//
// A single mutation is a batch of one. Apply wraps a leader's insert or
// delete that a follower applied: the leader's LSN rides inside it, so
// the follower's replica position recovers through replay; zero means
// "position unknown" (intermediate snapshot chunks). Reset marks a
// follower discarding its state ahead of a snapshot re-bootstrap:
// replay deletes every indexed point and zeroes the replica position at
// that spot in the sequence. decodeRecord is the one parser of all five.
const (
	recInsert byte = 1
	recDelete byte = 2
	recAbort  byte = 3
	recApply  byte = 4
	recReset  byte = 5
)

// record is one decoded WAL payload. An apply record decodes to the
// insert or delete it wraps, with replicated set.
type record struct {
	op  byte // recInsert, recDelete, recAbort or recReset
	pts []Point
	// target is the LSN an abort neutralises.
	target uint64
	// replicated marks a leader's record; leader is the LSN it carried.
	replicated bool
	leader     uint64
}

// decodeRecord parses a payload of any op. It refuses every payload
// encode would not have written — a wrong length, an unknown op, an
// apply wrapper around anything but an insert or delete — so a record
// it returns re-encodes to its input.
func decodeRecord(data []byte) (record, error) {
	if len(data) == 0 {
		return record{}, errors.New("nwcq: empty wal record")
	}
	switch op := data[0]; op {
	case recInsert, recDelete:
		if len(data) < 5 {
			return record{}, fmt.Errorf("nwcq: wal record truncated (%d bytes)", len(data))
		}
		n := uint64(binary.BigEndian.Uint32(data[1:5]))
		if uint64(len(data)-5) != n*geom.PointSize {
			return record{}, fmt.Errorf("nwcq: wal record claims %d points in %d bytes", n, len(data))
		}
		return record{op: op, pts: geom.DecodePoints(data[5:])}, nil
	case recAbort:
		if len(data) != 9 {
			return record{}, fmt.Errorf("nwcq: abort record of %d bytes", len(data))
		}
		return record{op: op, target: binary.BigEndian.Uint64(data[1:])}, nil
	case recReset:
		if len(data) != 1 {
			return record{}, fmt.Errorf("nwcq: reset record of %d bytes", len(data))
		}
		return record{op: op}, nil
	case recApply:
		if len(data) < 10 {
			return record{}, fmt.Errorf("nwcq: truncated apply record (%d bytes)", len(data))
		}
		r, err := decodeRecord(data[9:])
		if err != nil {
			return record{}, err
		}
		if r.replicated || (r.op != recInsert && r.op != recDelete) {
			return record{}, fmt.Errorf("nwcq: apply record wraps op %d", data[9])
		}
		r.replicated, r.leader = true, binary.BigEndian.Uint64(data[1:9])
		return r, nil
	}
	return record{}, fmt.Errorf("nwcq: unknown wal record op %d", data[0])
}

// encode serialises r; decodeRecord is its inverse.
func (r record) encode() []byte {
	b := make([]byte, 0, 9+5+len(r.pts)*geom.PointSize)
	if r.replicated {
		b = binary.BigEndian.AppendUint64(append(b, recApply), r.leader)
	}
	switch r.op {
	case recAbort:
		return binary.BigEndian.AppendUint64(append(b, recAbort), r.target)
	case recReset:
		return append(b, recReset)
	}
	b = binary.BigEndian.AppendUint32(append(b, r.op), uint32(len(r.pts)))
	return geom.AppendPoints(b, r.pts)
}

// position returns the replica position after r applies at position
// cur: a reset zeroes it, a leader's record with a known LSN advances it.
func (r record) position(cur uint64) uint64 {
	if r.op == recReset {
		return 0
	}
	return max(cur, r.leader)
}

// encodeMutation serialises an insert or delete batch.
func encodeMutation(op byte, pts []Point) []byte { return record{op: op, pts: pts}.encode() }

func encodeAbort(lsn uint64) []byte { return record{op: recAbort, target: lsn}.encode() }

// durability binds a WAL to a paged index. All mutable fields are
// guarded by Index.wmu (mutations, checkpoints and Close already
// serialise there); the atomic counters feed Metrics without it.
type durability struct {
	log       *wal.Log
	pages     *pager.Store
	policy    SyncPolicy
	ckptBytes int64

	// pending holds reader-quiesced retired node IDs awaiting a durable
	// checkpoint before they may be reallocated. Guarded by Index.wmu.
	pending []rstar.NodeID
	// walFailed poisons mutations after an append failure; ckptErr
	// remembers a failed checkpoint until one succeeds (surfaced by
	// Close if never cleared). Guarded by Index.wmu.
	walFailed error
	ckptErr   error

	checkpoints atomic.Uint64
	replayed    uint64 // records replayed at open; written once

	// settled is the highest LSN whose fate is decided: the record at
	// settled either published or is the abort that neutralises an
	// earlier record. Replication streams emit a record only once its
	// fate is known, so a follower never applies a mutation the leader
	// may yet abort. Advanced under Index.wmu; read lock-free.
	settled atomic.Uint64

	// replica is the highest leader LSN applied locally when this index
	// is a replication follower (zero on leaders). Recovered from the
	// page-file header plus recApply records; persisted by checkpoints.
	replica atomic.Uint64
}

func newDurability(log *wal.Log, pages *pager.Store, o buildOptions) *durability {
	ckpt := o.walCheckpointBytes
	if ckpt <= 0 {
		ckpt = defaultCheckpointBytes
	}
	d := &durability{log: log, pages: pages, policy: o.walSync, ckptBytes: ckpt}
	// Everything already in the log predates this process's mutations,
	// so its fate is decided (recovery replays exactly that prefix).
	d.settled.Store(log.AppendedLSN())
	return d
}

// append logs one mutation record. Called under Index.wmu, before the
// write batch commits.
func (d *durability) append(payload []byte) (uint64, error) {
	if d.walFailed != nil {
		return 0, fmt.Errorf("nwcq: write-ahead log failed, index is read-only: %w", d.walFailed)
	}
	lsn, err := d.log.Append(payload)
	if err != nil {
		d.walFailed = err
		return 0, err
	}
	return lsn, nil
}

// abort neutralises an appended record whose mutation failed to commit.
// If the abort itself cannot be appended, the log is poisoned: replay
// would otherwise apply a mutation the caller saw fail. A successful
// abort settles both records and is fsynced eagerly — until it is
// durable, the replication stream must hold back the aborted record
// (and everything behind it).
func (d *durability) abort(lsn uint64) {
	if d.walFailed != nil {
		return
	}
	alsn, err := d.log.Append(encodeAbort(lsn))
	if err != nil {
		d.walFailed = err
		return
	}
	d.settled.Store(alsn)
	_ = d.log.Sync(alsn)
}

// waitDurable blocks until lsn is on stable storage, per policy. Called
// after Index.wmu is released, so committers queued behind an fsync
// coalesce with it (group commit) while the next writer proceeds.
func (d *durability) waitDurable(lsn uint64) error {
	if d.policy != SyncAlways || lsn == 0 {
		return nil
	}
	return d.log.Sync(lsn)
}

// maybeCheckpointLocked checkpoints when enough log accumulated since
// the last one. A checkpoint failure does not fail the mutation — its
// record is already safely logged — but is remembered for Close.
// Called under Index.wmu; tree is the current published tree.
func (d *durability) maybeCheckpointLocked(tree *rstar.Tree) {
	if d.log.SizeSinceCheckpoint() < d.ckptBytes {
		return
	}
	if err := d.checkpointLocked(tree); err != nil {
		d.ckptErr = err
	}
}

// checkpointLocked folds the log into the page file:
//
//	fsync log → fsync data pages → write+fsync header (the commit
//	point: root, page count, checkpoint LSN in one page write) →
//	release pending retired pages → recycle covered segments.
//
// Called under Index.wmu (or during open, before the Index exists).
func (d *durability) checkpointLocked(tree *rstar.Tree) error {
	lsn := d.log.AppendedLSN()
	if err := d.log.Sync(lsn); err != nil {
		return fmt.Errorf("nwcq: checkpoint: %w", err)
	}
	if err := d.pages.SyncData(); err != nil {
		return fmt.Errorf("nwcq: checkpoint: %w", err)
	}
	// The replica position commits atomically with the checkpoint LSN:
	// both ride the single header write below.
	d.pages.SetReplicaLSN(d.replica.Load())
	if err := d.pages.WriteCheckpoint(lsn); err != nil {
		return fmt.Errorf("nwcq: checkpoint: %w", err)
	}
	// The durable image no longer references the pending pages; they
	// may be reallocated now (the free list is in memory, no page writes).
	if len(d.pending) > 0 {
		if err := tree.ReleaseNodes(d.pending); err != nil {
			return fmt.Errorf("nwcq: checkpoint: release retired pages: %w", err)
		}
		d.pending = nil
	}
	if err := d.log.Checkpointed(lsn); err != nil {
		return fmt.Errorf("nwcq: checkpoint: %w", err)
	}
	d.ckptErr = nil
	d.checkpoints.Add(1)
	return nil
}

// closeLocked is Close's durability teardown. With the append path
// poisoned, a final checkpoint is both impossible and wrong — the torn
// log tail must stay frozen for recovery — so it surfaces the sticky
// error exactly once (instead of the checkpoint error ladder re-wrapping
// it) and still hands the deferred retired pages back to the in-memory
// allocator so the in-process tree is not leaked. Otherwise it runs the
// normal final checkpoint. Called under Index.wmu.
func (d *durability) closeLocked(tree *rstar.Tree) error {
	if d.walFailed != nil {
		if len(d.pending) > 0 {
			_ = tree.ReleaseNodes(d.pending)
			d.pending = nil
		}
		return fmt.Errorf("nwcq: close: write-ahead log failed: %w", d.walFailed)
	}
	return d.checkpointLocked(tree)
}

// replayWAL applies committed records past the checkpoint through the
// apply step live mutations use (applyRecord), one copy-on-write batch
// per record, returning the recovered tree, the number of records
// applied, and the recovered replica position (baseReplica moved in
// record order by apply and reset records). The free set is empty
// during replay, so every shadow allocation extends the file and the
// checkpointed image stays intact — a crash mid-replay recovers again
// from the same base.
func replayWAL(tree *rstar.Tree, log *wal.Log, afterLSN, baseReplica uint64) (*rstar.Tree, int, uint64, error) {
	replica := baseReplica
	logged := log.Records(afterLSN)
	recs := make([]record, len(logged))
	aborted := make(map[uint64]bool)
	for i, lr := range logged {
		r, err := decodeRecord(lr.Data)
		if err != nil {
			return nil, 0, replica, fmt.Errorf("nwcq: lsn %d: %w", lr.LSN, err)
		}
		if r.op == recAbort {
			aborted[r.target] = true
		}
		recs[i] = r
	}
	applied := 0
	for i, r := range recs {
		if r.op == recAbort || aborted[logged[i].LSN] {
			continue
		}
		b, err := tree.BeginWrite()
		if err != nil {
			return nil, applied, replica, err
		}
		// A logged delete found its points when it committed; replay
		// tolerates an absent one, as a follower's delete does.
		if _, err := applyRecord(b.Tree(), r); err != nil {
			b.Discard()
			return nil, applied, replica, fmt.Errorf("nwcq: replay lsn %d: %w", logged[i].LSN, err)
		}
		next, _, err := b.Commit()
		if err != nil {
			return nil, applied, replica, fmt.Errorf("nwcq: replay lsn %d: %w", logged[i].LSN, err)
		}
		// Retired IDs are ignored: reachability reconstruction after
		// replay returns every stale page to the allocator at once.
		tree = next
		applied++
		replica = r.position(replica)
	}
	return tree, applied, replica, nil
}

// rebuildFreeSet reinstates the page allocator's free list as the
// complement of reached, the recovered tree's pages — the only ground
// truth after a crash, since the free list lives in memory only.
func rebuildFreeSet(reached []rstar.NodeID, pages *pager.Store) {
	reachable := make([]bool, pages.NumPages())
	for _, id := range reached {
		reachable[id] = true
	}
	var free []pager.PageID
	for id := 1; id < len(reachable); id++ {
		if !reachable[id] {
			free = append(free, pager.PageID(id))
		}
	}
	pages.AddFreePages(free)
}
