package nwcq

import (
	"sync/atomic"

	"nwcq/internal/core"
	"nwcq/internal/grid"
	"nwcq/internal/iwp"
	"nwcq/internal/rstar"
)

// Atomically published index views (RCU-style).
//
// All query-side state — the frozen R*-tree snapshot, the density grid,
// the IWP pointers and the engine wired over them — is bundled into an
// immutable view behind Index.cur. A query pins exactly one view at
// entry (one atomic load plus one compare-and-swap, no lock, no
// allocation) and runs against it for its whole lifetime, so it always
// observes a single consistent version of the dataset no matter how
// many mutations land meanwhile. Writers (Insert, Delete) serialise on
// Index.wmu, build the next version off the query path with
// copy-on-write structures (rstar.WriteBatch, grid.WithAdd/WithRemove,
// iwp.Index.Apply), and publish it with a single pointer swap. Every
// view is born complete: there is no state a query has to build.
//
// Superseded views join a FIFO retire queue. Each carries the node IDs
// its replacement retired; those IDs stay readable until every query
// pinning this or any older view finishes, at which point the writer
// tombstones the queue head (refs 0 → -1) and returns the IDs to the
// store's allocator. Queue order guarantees an ID is never recycled
// while a reader of any version that could reference it is alive.
type view struct {
	tree *rstar.Tree   // frozen snapshot; safe for lock-free reads
	grid *grid.Density // immutable (reached only via COW derivation)
	iwp  *iwp.Index    // immutable; shares untouched records with its predecessor's
	eng  *core.Engine  // engine over tree+grid+iwp; runs every scheme

	// gen is this view's publication generation (Index.vgen at publish
	// time, starting at 1 for the build/open view). It is set before the
	// view is published and read lock-free by the result cache, whose
	// entire invalidation protocol is comparing this number.
	gen uint64

	// lsn is the WAL record this view's state corresponds to: every
	// record at or below lsn is reflected (applied or aborted), nothing
	// above it is. Zero on in-memory indexes. Replication snapshots and
	// the committed-LSN watermark read it off the published view.
	lsn uint64

	// refs counts queries currently pinning this view. The writer
	// tombstones a superseded view by swapping 0 → -1, after which no
	// new query can pin it and its retired node IDs can be released.
	refs atomic.Int64
	// retired holds the node IDs superseded by the commit that replaced
	// this view (set by the writer when the view is enqueued for
	// retirement; readers never touch it).
	retired []rstar.NodeID
}

// newView assembles a view over a frozen tree, an immutable grid and
// the IWP index of that tree.
func newView(tree *rstar.Tree, den *grid.Density, idx *iwp.Index) (*view, error) {
	eng, err := core.NewEngine(tree, den, idx)
	if err != nil {
		return nil, err
	}
	return &view{tree: tree, grid: den, iwp: idx, eng: eng}, nil
}

// acquire pins the current view for one query. The loop handles the
// one race that exists: between loading ix.cur and incrementing refs,
// the writer may have superseded and tombstoned the view (refs -1), in
// which case the load is retried — the second iteration sees the new
// current view. Queries on a superseded-but-not-tombstoned view are
// fine: its refs held it out of reclamation.
func (ix *Index) acquire() *view {
	for {
		v := ix.cur.Load()
		r := v.refs.Load()
		if r < 0 {
			continue // tombstoned just after we loaded it; reload
		}
		if v.refs.CompareAndSwap(r, r+1) {
			return v
		}
	}
}

// release unpins a view acquired by acquire.
func (v *view) release() { v.refs.Add(-1) }

// publishLocked installs the next version: patch the IWP index from the
// commit's delta, swap in the new view, queue the old one for retirement
// carrying the node IDs its replacement obsoleted, and opportunistically
// drain the queue. lsn is the WAL record the new view reflects (0 on
// in-memory indexes). Callers hold ix.wmu. On error nothing has been
// published.
func (ix *Index) publishLocked(tree *rstar.Tree, den *grid.Density, delta rstar.Delta, lsn uint64) error {
	old := ix.cur.Load()
	idx, rebuilt, err := old.iwp.Apply(tree, delta)
	if err != nil {
		return err
	}
	if rebuilt {
		ix.iwpRebuilds.Inc()
	}
	nv, err := newView(tree, den, idx)
	if err != nil {
		return err
	}
	nv.lsn = lsn
	// Stamp the generation before the swap: the instant nv is visible,
	// ViewGeneration reports a number strictly above every entry cached
	// against the superseded view, so a stale hit is impossible.
	nv.gen = ix.vgen.Add(1)
	old.retired = delta.Retired
	ix.retireq = append(ix.retireq, old)
	ix.cur.Store(nv)
	ix.drainRetiredLocked()
	return nil
}

// drainRetiredLocked releases the retire queue's prefix of quiesced
// views. The queue is FIFO and a view's retired IDs may be referenced
// by any version up to it, so the head is the only candidate: once its
// refs CAS 0 → -1 succeeds (tombstone — no later acquire can resurrect
// it), every version that could reach its retired IDs has drained and
// they return to the allocator. A pinned head stops the drain; the next
// publish retries. With WithViewRetention the newest n retired views
// are deliberately kept (never tombstoned) so temporal as-of reads can
// still pin them. Callers hold ix.wmu.
func (ix *Index) drainRetiredLocked() {
	cur := ix.cur.Load()
	for len(ix.retireq) > ix.options.viewRetention {
		h := ix.retireq[0]
		if !h.refs.CompareAndSwap(0, -1) {
			return
		}
		if ix.dur != nil {
			// A paged index: the durable checkpoint may still reference
			// these pages. Park them; the next checkpoint releases them once
			// the header that stops referencing them is on disk (durable.go).
			ix.dur.pending = append(ix.dur.pending, h.retired...)
		} else {
			_ = cur.tree.ReleaseNodes(h.retired)
		}
		ix.retireq[0] = nil
		ix.retireq = ix.retireq[1:]
	}
}
