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

// Insert adds one point to the index: InsertBatch of one. It is safe to
// call concurrently with queries and with other mutations; the point is
// visible to every query that starts after Insert returns.
func (ix *Index) Insert(p Point) error { return ix.InsertBatch([]Point{p}) }

// InsertBatch adds points atomically: all become visible in one
// published view (and, on a WAL-backed index, one log record and at
// most one fsync) or none do. An empty batch is a no-op.
func (ix *Index) InsertBatch(pts []Point) (err error) {
	start := time.Now()
	defer func() { ix.rec.Observe(obs.KindInsert, start, err) }()
	if len(pts) == 0 {
		return nil
	}
	for _, p := range pts {
		if err := validatePoint(p); err != nil {
			return err
		}
	}
	_, err = ix.run(record{op: recInsert, pts: pts})
	return err
}

// Delete removes one point (matched by coordinates and ID) and reports
// whether it was found: the first flag of DeleteBatch of one. Like
// Insert it is safe under full concurrency and atomic: queries see
// either the index with the point or without it, never an intermediate
// state.
func (ix *Index) Delete(p Point) (bool, error) {
	founds, err := ix.DeleteBatch([]Point{p})
	return len(founds) > 0 && founds[0], err
}

// DeleteBatch removes points atomically (matched by coordinates and
// ID), returning one found flag per input point. The found deletions
// become visible in one published view — and one WAL record — or, if
// anything fails, none do. An empty batch is a no-op.
func (ix *Index) DeleteBatch(pts []Point) (founds []bool, err error) {
	start := time.Now()
	defer func() { ix.rec.Observe(obs.KindDelete, start, err) }()
	if len(pts) == 0 {
		return nil, nil
	}
	return ix.run(record{op: recDelete, pts: pts})
}

// run applies r under the writer mutex, then waits for its durability
// with the mutex released.
func (ix *Index) run(r record) ([]bool, error) {
	ix.wmu.Lock()
	founds, lsn, err := ix.mutateLocked(r)
	ix.wmu.Unlock()
	if err != nil {
		return nil, err
	}
	return founds, ix.waitDurable(lsn)
}

// mutateLocked is the one mutation step: BeginWrite, applyRecord on the
// batch's tree, one grid step, commitMutationLocked. Where the record
// came from picks between two rules:
//
//   - a caller's own mutation logs the points it changed, so a delete
//     logs only the points it found, and one that found none commits
//     nothing (lsn 0);
//   - a leader's record (r.replicated) always commits, so the replica
//     position advances past it, and feeds its own points to the affect
//     test (a superset of the changed points is always conservative).
//
// It returns the per-point found flags of a delete. Caller holds ix.wmu.
func (ix *Index) mutateLocked(r record) ([]bool, uint64, error) {
	old := ix.cur.Load()
	b, err := old.tree.BeginWrite()
	if err != nil {
		return nil, 0, err
	}
	ch, err := applyRecord(b.Tree(), r)
	if err != nil {
		b.Discard()
		return nil, 0, err
	}
	if r.op == recDelete && !r.replicated {
		if len(ch.removed) == 0 {
			b.Discard()
			return ch.founds, 0, nil
		}
		r.pts = ch.removed
	}
	den, err := nextGrid(b.Tree(), old.grid, r.op, ch)
	if err != nil {
		b.Discard()
		return nil, 0, err
	}
	lsn, err := ix.commitMutationLocked(b, den, r)
	if err != nil {
		return nil, 0, err
	}
	return ch.founds, lsn, nil
}

// change is what applyRecord did to a tree.
type change struct {
	added   []Point // an insert's points
	removed []Point // the points a delete or reset found and removed
	founds  []bool  // a delete's found flag per record point
}

// applyRecord applies one mutation record to a write batch's tree — the
// step live mutations, a follower's applies and WAL replay share. An
// insert adds its points; a delete removes those present, tolerating
// absent ones; a reset removes every point.
func applyRecord(t *rstar.Tree, r record) (change, error) {
	switch r.op {
	case recInsert:
		for i := range r.pts {
			if err := t.Insert(r.pts[i]); err != nil {
				return change{}, err
			}
		}
		return change{added: r.pts}, nil
	case recReset:
		all, err := t.All()
		if err != nil {
			return change{}, err
		}
		r.pts = all
	}
	ch := change{founds: make([]bool, len(r.pts)), removed: make([]Point, 0, len(r.pts))}
	for i, p := range r.pts {
		found, err := t.Delete(p)
		if err != nil {
			return change{}, err
		}
		ch.founds[i] = found
		if found {
			ch.removed = append(ch.removed, p)
		}
	}
	return ch, nil
}

// nextGrid derives the density grid that matches t after ch: one
// WithAdd or WithRemove per changed point, or a rebuild from t after a
// reset or a failed step. A step fails when an insert falls outside the
// grid's space (the rebuild grows the space to cover it) or when the
// grid does not count a point the tree held — the two drifted — and the
// rebuild then leaves the pair consistent rather than publish a grid
// that still counts the deleted point.
func nextGrid(t *rstar.Tree, old *grid.Density, op byte, ch change) (*grid.Density, error) {
	if op == recReset {
		return rebuildGrid(t, old)
	}
	den := old
	var err error
	for _, p := range ch.added {
		if den, err = den.WithAdd(p); err != nil {
			return rebuildGrid(t, old)
		}
	}
	for _, p := range ch.removed {
		if den, err = den.WithRemove(p); err != nil {
			return rebuildGrid(t, old)
		}
	}
	return den, nil
}

// commitMutationLocked runs the tail of the mutation step: log r
// (paged index — before any page of the commit is published), commit
// the copy-on-write batch, publish the new view (patching the IWP index
// from the commit's delta), move the replica position, notify standing
// queries, and trigger a checkpoint if the log has grown past its
// threshold. A commit or publish failure after the append — a failed
// IWP patch included: no view is published with a stale index — is
// neutralised with an abort record so recovery does not replay a
// mutation the caller saw fail. r's op and points feed the subscription
// affect test; a leader's LSN, on a replication follower, stamps
// notifications so both replicas expose the same version axis. Caller
// holds ix.wmu.
func (ix *Index) commitMutationLocked(b *rstar.WriteBatch, den *grid.Density, r record) (uint64, error) {
	var lsn uint64
	if ix.dur != nil {
		var err error
		if lsn, err = ix.dur.append(r.encode()); err != nil {
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
		// The position moves before the checkpoint below can persist it:
		// that checkpoint covers this record, so replay will not.
		ix.dur.replica.Store(r.position(ix.dur.replica.Load()))
	}
	// Standing-query hook. The Active gate keeps the zero-subscriber
	// cost at one atomic load: nothing below it (closure, timestamps,
	// registry lock) is touched before it passes.
	if ix.subs.Active() > 0 {
		nv := ix.cur.Load()
		frameLSN := lsn
		if r.leader != 0 {
			frameLSN = r.leader
		}
		ix.subs.Publish(frameLSN, nv.gen, subOpFor(r.op), r.pts, func() (any, func()) {
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

// rebuildGrid builds a fresh density grid from t's current points over
// the old space, enlarged to cover every stored point plus 12.5% slack
// per side when some point lies outside it.
func rebuildGrid(t *rstar.Tree, oldGrid *grid.Density) (*grid.Density, error) {
	pts, err := t.All()
	if err != nil {
		return nil, err
	}
	space := oldGrid.Space()
	// Cover every stored point: an insert outside the space, or drift
	// being repaired, means the tree holds points the old space never did.
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
