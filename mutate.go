package nwcq

import (
	"math"
	"time"

	"nwcq/internal/grid"
	"nwcq/internal/obs"
	"nwcq/internal/rstar"
	"nwcq/internal/sub"
)

// Dynamic maintenance. The paper treats the dataset as static; this
// file extends the index with Insert and Delete (and their batch forms)
// as first-class online operations:
//
//   - mutations are safe to run concurrently with any number of
//     queries, including batch and IWP-scheme queries: a query pins one
//     immutable view at entry (view.go) and never observes a mutation
//     mid-flight;
//   - mutations serialise against each other on an internal writer
//     mutex — callers need no external locking;
//   - each mutation is all-or-nothing: the R*-tree delta is built in a
//     copy-on-write batch and the density grid derived by structural
//     sharing, then both are published together in a single atomic view
//     swap. A failure at any step leaves the index exactly as it was —
//     the tree and the grid can never disagree. A batch publishes all
//     of its points in one swap: no query ever sees part of a batch;
//   - on a WAL-backed paged index (the default for BuildPaged), a
//     logical record is appended before the commit publishes any page,
//     and the call returns only once the record is durable per the
//     index's SyncPolicy (durable.go). The fsync happens after the
//     writer mutex is released, so committers queued behind it coalesce
//     into one fsync while the next mutation proceeds;
//   - the IWP pointer index is a persistent structure like the tree and
//     the grid: the publish step patches it from the nodes the commit
//     wrote and retired (iwp.Index.Apply, DESIGN.md §17), under the
//     writer mutex, so every view is born with its pointers and no query
//     ever builds them. Only a commit that changes the tree's height
//     rebuilds them in full. The patch's few node reads are accounted in
//     IOStats like the mutation's own and never touch a query's Stats.

// Insert adds one point to the index. It is safe to call concurrently
// with queries and with other mutations; the point is visible to every
// query that starts after Insert returns.
func (ix *Index) Insert(p Point) error {
	start := time.Now()
	err := ix.insert(p)
	ix.rec.Observe(obs.KindInsert, start, err)
	return err
}

func (ix *Index) insert(p Point) error {
	if err := validatePoint(p); err != nil {
		return err
	}
	ix.wmu.Lock()
	lsn, err := ix.insertLocked([]Point{p})
	ix.wmu.Unlock()
	if err != nil {
		return err
	}
	return ix.waitDurable(lsn)
}

// InsertBatch adds points atomically: all become visible in one
// published view (and, on a WAL-backed index, one log record and at
// most one fsync) or none do. An empty batch is a no-op.
func (ix *Index) InsertBatch(pts []Point) error {
	start := time.Now()
	err := ix.insertBatch(pts)
	ix.rec.Observe(obs.KindInsert, start, err)
	return err
}

func (ix *Index) insertBatch(pts []Point) error {
	if len(pts) == 0 {
		return nil
	}
	for _, p := range pts {
		if err := validatePoint(p); err != nil {
			return err
		}
	}
	ix.wmu.Lock()
	lsn, err := ix.insertLocked(pts)
	ix.wmu.Unlock()
	if err != nil {
		return err
	}
	return ix.waitDurable(lsn)
}

func (ix *Index) insertLocked(pts []Point) (uint64, error) {
	old := ix.cur.Load()
	b, err := old.tree.BeginWrite()
	if err != nil {
		return 0, err
	}
	for i := range pts {
		if err := b.Tree().Insert(pts[i]); err != nil {
			b.Discard()
			return 0, err
		}
	}
	den := old.grid
	for i := range pts {
		next, err := den.WithAdd(pts[i])
		if err != nil {
			// Outside the grid's space: rebuild over a space covering the
			// new point (with slack so a trickle of outliers does not cause
			// repeated rebuilds). The rebuild reads the batch's tree, which
			// already holds every point of this batch, so the remaining
			// WithAdd steps are covered too.
			next, err = rebuildGrid(b.Tree(), old.grid, &pts[i])
			if err != nil {
				b.Discard()
				return 0, err
			}
			den = next
			break
		}
		den = next
	}
	return ix.commitMutationLocked(b, ix.encodeFor(recInsert, pts), den, recInsert, pts, 0)
}

// Delete removes one point (matched by coordinates and ID) and reports
// whether it was found. Like Insert it is safe under full concurrency
// and atomic: queries see either the index with the point or without
// it, never an intermediate state.
func (ix *Index) Delete(p Point) (bool, error) {
	start := time.Now()
	found, err := ix.delete(p)
	ix.rec.Observe(obs.KindDelete, start, err)
	return found, err
}

func (ix *Index) delete(p Point) (bool, error) {
	ix.wmu.Lock()
	founds, lsn, err := ix.deleteLocked([]Point{p})
	ix.wmu.Unlock()
	if err != nil {
		return false, err
	}
	return founds[0], ix.waitDurable(lsn)
}

// DeleteBatch removes points atomically (matched by coordinates and
// ID), returning one found flag per input point. The found deletions
// become visible in one published view — and one WAL record — or, if
// anything fails, none do. An empty batch is a no-op.
func (ix *Index) DeleteBatch(pts []Point) ([]bool, error) {
	start := time.Now()
	founds, err := ix.deleteBatch(pts)
	ix.rec.Observe(obs.KindDelete, start, err)
	return founds, err
}

func (ix *Index) deleteBatch(pts []Point) ([]bool, error) {
	if len(pts) == 0 {
		return nil, nil
	}
	ix.wmu.Lock()
	founds, lsn, err := ix.deleteLocked(pts)
	ix.wmu.Unlock()
	if err != nil {
		return nil, err
	}
	return founds, ix.waitDurable(lsn)
}

func (ix *Index) deleteLocked(pts []Point) ([]bool, uint64, error) {
	old := ix.cur.Load()
	b, err := old.tree.BeginWrite()
	if err != nil {
		return nil, 0, err
	}
	founds := make([]bool, len(pts))
	removed := make([]Point, 0, len(pts))
	for i, gp := range pts {
		found, err := b.Tree().Delete(gp)
		if err != nil {
			b.Discard()
			return nil, 0, err
		}
		founds[i] = found
		if found {
			removed = append(removed, gp)
		}
	}
	if len(removed) == 0 {
		b.Discard()
		return founds, 0, nil
	}
	den := old.grid
	for _, gp := range removed {
		next, err := den.WithRemove(gp)
		if err != nil {
			// The grid does not count a point the tree held — the two
			// drifted (e.g. a historic out-of-space insert). Rather than
			// publish a grid that still counts the deleted point, rebuild it
			// from the post-delete tree so the pair leaves consistent; a
			// rebuild failure abandons the whole mutation.
			next, err = rebuildGrid(b.Tree(), old.grid, nil)
			if err != nil {
				b.Discard()
				return nil, 0, err
			}
			den = next
			break
		}
		den = next
	}
	lsn, err := ix.commitMutationLocked(b, ix.encodeFor(recDelete, removed), den, recDelete, removed, 0)
	if err != nil {
		return nil, 0, err
	}
	return founds, lsn, nil
}

// encodeFor builds the WAL payload for a mutation, nil when the index
// has no log (the bytes would be discarded unused).
func (ix *Index) encodeFor(op byte, pts []Point) []byte {
	if ix.dur == nil {
		return nil
	}
	return encodeMutation(op, pts)
}

// commitMutationLocked runs the tail every mutation shares: log the
// record (paged index — before any page of the commit is published),
// commit the copy-on-write batch, publish the new view (patching the
// IWP index from the commit's delta), notify standing queries, and
// trigger a checkpoint if the log has grown past its threshold. A
// commit or publish failure after the append — a failed IWP patch
// included: no view is published with a stale index — is neutralised
// with an abort record so recovery does not replay a mutation the
// caller saw fail. op and changed describe the mutation
// for the subscription affect test; leaderLSN, nonzero only on a
// replication follower, stamps notifications with the leader's LSN so
// both replicas expose the same version axis. Caller holds ix.wmu.
func (ix *Index) commitMutationLocked(b *rstar.WriteBatch, payload []byte, den *grid.Density, op byte, changed []Point, leaderLSN uint64) (uint64, error) {
	var lsn uint64
	if ix.dur != nil {
		var err error
		if lsn, err = ix.dur.append(payload); err != nil {
			b.Discard()
			return 0, err
		}
	}
	newTree, delta, err := b.Commit()
	if err != nil {
		if ix.dur != nil {
			ix.dur.abort(lsn)
		}
		return 0, err
	}
	if err := ix.publishLocked(newTree, den, delta, lsn); err != nil {
		if ix.dur != nil {
			ix.dur.abort(lsn)
		}
		return 0, err
	}
	if ix.dur != nil {
		// Published: the record's fate is decided and the replication
		// stream may ship it (the abort paths above settle via abort()).
		ix.dur.settled.Store(lsn)
	}
	// Standing-query hook. The Active gate keeps the zero-subscriber
	// cost at one atomic load: nothing below it (closure, timestamps,
	// registry lock) is touched before it passes.
	if ix.subs.Active() > 0 {
		nv := ix.cur.Load()
		frameLSN := lsn
		if leaderLSN != 0 {
			frameLSN = leaderLSN
		}
		ix.subs.Publish(frameLSN, nv.gen, subOpFor(op), changed, func() (any, func()) {
			// Under wmu the just-published view cannot be tombstoned, so
			// a plain increment pins it.
			nv.refs.Add(1)
			return nv, func() { nv.refs.Add(-1) }
		})
	}
	if ix.dur != nil {
		ix.dur.maybeCheckpointLocked(ix.cur.Load().tree)
	}
	return lsn, nil
}

// subOpFor maps a WAL record op onto the affect-test classification.
func subOpFor(op byte) sub.Op {
	switch op {
	case recInsert:
		return sub.OpInsert
	case recDelete:
		return sub.OpDelete
	default:
		return sub.OpReset
	}
}

// applyReplicatedLocked mirrors insertLocked/deleteLocked for a record
// replicated from a leader. Deletes tolerate absent points (exactly as
// WAL replay does) and always commit even when nothing matched: the
// follower's replica position must advance past the record either way.
// payload is the recApply-wrapped record for this follower's own log;
// leaderLSN stamps standing-query notifications so follower subscribers
// see the leader's version axis. Caller holds ix.wmu.
func (ix *Index) applyReplicatedLocked(op byte, pts []Point, payload []byte, leaderLSN uint64) (uint64, error) {
	old := ix.cur.Load()
	b, err := old.tree.BeginWrite()
	if err != nil {
		return 0, err
	}
	den := old.grid
	if op == recInsert {
		for i := range pts {
			if err := b.Tree().Insert(pts[i]); err != nil {
				b.Discard()
				return 0, err
			}
		}
		for i := range pts {
			next, err := den.WithAdd(pts[i])
			if err != nil {
				next, err = rebuildGrid(b.Tree(), old.grid, &pts[i])
				if err != nil {
					b.Discard()
					return 0, err
				}
				den = next
				break
			}
			den = next
		}
	} else {
		removed := make([]Point, 0, len(pts))
		for _, gp := range pts {
			found, err := b.Tree().Delete(gp)
			if err != nil {
				b.Discard()
				return 0, err
			}
			if found {
				removed = append(removed, gp)
			}
		}
		for _, gp := range removed {
			next, err := den.WithRemove(gp)
			if err != nil {
				next, err = rebuildGrid(b.Tree(), old.grid, nil)
				if err != nil {
					b.Discard()
					return 0, err
				}
				den = next
				break
			}
			den = next
		}
	}
	// pts (not the matched subset) feeds the affect test for deletes:
	// a superset of the changed points is always conservative.
	return ix.commitMutationLocked(b, payload, den, op, pts, leaderLSN)
}

// resetLocked discards every indexed point as one logged mutation — the
// follower's first step of a snapshot re-bootstrap. Caller holds
// ix.wmu.
func (ix *Index) resetLocked() (uint64, error) {
	old := ix.cur.Load()
	b, err := old.tree.BeginWrite()
	if err != nil {
		return 0, err
	}
	pts, err := b.Tree().All()
	if err != nil {
		b.Discard()
		return 0, err
	}
	for _, gp := range pts {
		if _, err := b.Tree().Delete(gp); err != nil {
			b.Discard()
			return 0, err
		}
	}
	den, err := rebuildGrid(b.Tree(), old.grid, nil)
	if err != nil {
		b.Discard()
		return 0, err
	}
	return ix.commitMutationLocked(b, []byte{recReset}, den, recReset, nil, 0)
}

// waitDurable blocks until the mutation at lsn is durable under the
// index's SyncPolicy. Called after wmu is released so waiting
// committers coalesce on one fsync while the next writer proceeds.
func (ix *Index) waitDurable(lsn uint64) error {
	if ix.dur == nil || lsn == 0 {
		return nil
	}
	return ix.dur.waitDurable(lsn)
}

func validatePoint(p Point) error {
	if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
		return invalid("point", "coordinates (%g, %g) must be finite", p.X, p.Y)
	}
	return nil
}

// rebuildGrid builds a fresh density grid from t's current points. With
// extra set, the space is enlarged to cover it plus 12.5% slack per
// side; otherwise the old space is kept.
func rebuildGrid(t *rstar.Tree, oldGrid *grid.Density, extra *Point) (*grid.Density, error) {
	pts, err := t.All()
	if err != nil {
		return nil, err
	}
	space := oldGrid.Space()
	if extra != nil {
		space = space.ExtendPoint(*extra)
	}
	// Cover every stored point: repairing drift means the tree may hold
	// points the old space never did.
	for _, p := range pts {
		space = space.ExtendPoint(p)
	}
	if !oldGrid.Space().ContainsRect(space) {
		// The space grew: add 12.5% slack per side so a trickle of
		// nearby outliers does not cause repeated rebuilds.
		space = space.Buffer(space.Width()/8, space.Height()/8)
	}
	return grid.New(space, oldGrid.CellSize(), pts)
}
