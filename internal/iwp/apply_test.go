package iwp

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"nwcq/internal/geom"
	"nwcq/internal/pager"
	"nwcq/internal/rstar"
)

// Apply ≡ Build. An op script is a byte string, so the randomized test
// and the fuzz target run the same interpreter:
//
//	byte 0      fan-out 4 + b%5
//	byte 1      bit 0: MemStore / PagedStore; bits 1…: strategy (mod 3)
//	then 3-byte ops [k, a, b]:
//	  k&3 < 2   insert the point (a + (k>>2&7)/8, b); the coarse lattice
//	            makes duplicate coordinates and degenerate MBRs common
//	  k&3 ≥ 2   delete live[(a<<8|b) % len(live)] (skipped when empty)
//	  k&0x80    commit after this op (also after 16 uncommitted ops and
//	            at the end of the script)
//
// The tree starts empty and every change goes through a WriteBatch, so a
// script that grows and drains it passes through leaf splits, forced
// reinsertion, condense-and-reinsert, root split and root collapse.
// After every commit the patched index must equal a fresh Build of the
// new snapshot, the index it was derived from must be untouched, and an
// incremental window query from every leaf must return what a root-down
// search returns.
const (
	scriptMaxOps   = 600
	scriptBatchCap = 16
)

type scriptStats struct {
	commits, patched int
	grew, shrank     int // commits that raised / lowered the tree's height
}

func runScript(t *testing.T, data []byte) scriptStats {
	t.Helper()
	var st scriptStats
	if len(data) < 2 {
		return st
	}
	fanout := 4 + int(data[0])%5
	paged := data[1]&1 == 1
	strategy := Strategy(int(data[1]>>1) % 3)

	var store rstar.NodeStore = rstar.NewMemStore()
	if paged {
		pages, err := pager.Create(pager.NewMemFile(), pager.Options{CacheSize: 256})
		if err != nil {
			t.Fatal(err)
		}
		store = rstar.NewPagedStoreCache(pages, 256)
	}
	mutable, err := rstar.New(store, rstar.Options{MaxEntries: fanout})
	if err != nil {
		t.Fatal(err)
	}
	cur, err := mutable.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildWithStrategy(cur, strategy)
	if err != nil {
		t.Fatal(err)
	}
	oracle := ix // Build of cur, in storage of its own

	var live []geom.Point
	var pending [][]rstar.NodeID // retired IDs, released two commits late
	nextID := uint64(1)
	ops := data[2:]
	if len(ops) > 3*scriptMaxOps {
		ops = ops[:3*scriptMaxOps]
	}

	var batch *rstar.WriteBatch
	inBatch := 0
	commit := func() {
		if batch == nil {
			return
		}
		next, delta, err := batch.Commit()
		if err != nil {
			t.Fatalf("commit %d: %v", st.commits, err)
		}
		batch, inBatch = nil, 0
		label := fmt.Sprintf("commit %d (fan-out %d, paged %v, %v, height %d→%d, %d written, %d retired)",
			st.commits, fanout, paged, strategy, cur.Height(), next.Height(), len(delta.Written), len(delta.Retired))
		patched, rebuilt, err := ix.Apply(next, delta)
		if err != nil {
			t.Fatalf("%s: Apply: %v", label, err)
		}
		if rebuilt != (next.Height() != cur.Height()) {
			t.Fatalf("%s: Apply reported rebuilt=%v", label, rebuilt)
		}
		want, err := BuildWithStrategy(next, strategy)
		if err != nil {
			t.Fatalf("%s: Build: %v", label, err)
		}
		sameIndex(t, label, patched, want)
		// The version Apply derived from serves readers pinned to the old
		// snapshot: it must still equal the Build taken when it was new.
		sameIndex(t, label+", superseded index", ix, oracle)
		windowsFromEveryLeaf(t, label, patched, next, st.commits)

		st.commits++
		switch {
		case next.Height() > cur.Height():
			st.grew++
		case next.Height() < cur.Height():
			st.shrank++
		case len(delta.Written) > 0:
			st.patched++
		}
		// Release late, as the view queue does, so retired IDs come back
		// as written ones while the index still holds neighbours of both.
		pending = append(pending, delta.Retired)
		if len(pending) > 2 {
			if err := next.ReleaseNodes(pending[0]); err != nil {
				t.Fatal(err)
			}
			pending = pending[1:]
		}
		cur, ix, oracle = next, patched, want
	}

	for ; len(ops) >= 3; ops = ops[3:] {
		k, a, b := ops[0], ops[1], ops[2]
		if batch == nil {
			if batch, err = cur.BeginWrite(); err != nil {
				t.Fatal(err)
			}
		}
		if k&3 < 2 {
			p := geom.Point{X: float64(a) + float64(k>>2&7)/8, Y: float64(b), ID: nextID}
			nextID++
			if err := batch.Tree().Insert(p); err != nil {
				t.Fatal(err)
			}
			live = append(live, p)
		} else if len(live) > 0 {
			j := (int(a)<<8 | int(b)) % len(live)
			found, err := batch.Tree().Delete(live[j])
			if err != nil || !found {
				t.Fatalf("delete %v = (%v, %v)", live[j], found, err)
			}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if inBatch++; k&0x80 != 0 || inBatch == scriptBatchCap {
			commit()
		}
	}
	commit()
	return st
}

// sameIndex fails unless got and want describe the same tree the same
// way: same record per node, same overlap set per node, same backward
// pointers per leaf, same pointer counts.
func sameIndex(t *testing.T, label string, got, want *Index) {
	t.Helper()
	if got.rootID != want.rootID || got.height != want.height || got.strategy != want.strategy {
		t.Fatalf("%s: root/height/strategy %d/%d/%v, want %d/%d/%v", label,
			got.rootID, got.height, got.strategy, want.rootID, want.height, want.strategy)
	}
	if got.numLeaves != want.numLeaves || got.NumBackward() != want.NumBackward() ||
		got.NumOverlap() != want.NumOverlap() || got.StorageBytes() != want.StorageBytes() {
		t.Fatalf("%s: leaves/backward/overlap/bytes %d/%d/%d/%d, want %d/%d/%d/%d", label,
			got.numLeaves, got.NumBackward(), got.NumOverlap(), got.StorageBytes(),
			want.numLeaves, want.NumBackward(), want.NumOverlap(), want.StorageBytes())
	}
	sorted := func(ps []Pointer) []Pointer {
		out := slices.Clone(ps)
		slices.SortFunc(out, func(a, b Pointer) int { return cmp.Compare(a.Node, b.Node) })
		return out
	}
	slots := max(len(got.chunks), len(want.chunks)) * chunkSize
	overlaps := 0
	for id := rstar.NodeID(0); int(id) < slots; id++ {
		g, w := got.node(id), want.node(id)
		if (g == nil) != (w == nil) {
			t.Fatalf("%s: node %d known to patched index %v, to built index %v", label, id, g != nil, w != nil)
		}
		if g == nil {
			continue
		}
		if g.parent != w.parent || g.level != w.level || g.mbr != w.mbr {
			t.Fatalf("%s: node %d record {parent %d level %d mbr %v}, want {parent %d level %d mbr %v}", label, id,
				g.parent, g.level, g.mbr, w.parent, w.level, w.mbr)
		}
		if !slices.Equal(sorted(g.overlap), sorted(w.overlap)) {
			t.Fatalf("%s: node %d overlap set %v, want %v", label, id, sorted(g.overlap), sorted(w.overlap))
		}
		overlaps += len(g.overlap)
		if !slices.Equal(got.BackwardPointers(id), want.BackwardPointers(id)) {
			t.Fatalf("%s: leaf %d backward pointers %v, want %v", label, id, got.BackwardPointers(id), want.BackwardPointers(id))
		}
	}
	if overlaps != got.NumOverlap() {
		t.Fatalf("%s: NumOverlap %d but the lists hold %d", label, got.NumOverlap(), overlaps)
	}
}

// windowsFromEveryLeaf checks WindowCollect against a root-down search
// from every leaf of tree, over rectangles inside the leaf, around it,
// across the space and sticking out of it.
func windowsFromEveryLeaf(t *testing.T, label string, ix *Index, tree *rstar.Tree, salt int) {
	t.Helper()
	err := tree.Walk(func(n *rstar.Node) bool {
		if !n.Leaf {
			return true
		}
		mbr := n.MBR()
		if mbr.IsEmpty() {
			mbr = geom.NewRect(0, 0, 1, 1) // the empty root leaf
		}
		grow := float64(1 + (salt+int(n.ID))%40)
		for _, rect := range []geom.Rect{
			mbr,
			mbr.Buffer(grow, grow/2),
			geom.NewRect(mbr.MinX-grow, mbr.MinY, mbr.MinX+grow, mbr.MaxY+3*grow),
			geom.NewRect(-50, mbr.MinY, 400, mbr.MinY+grow),
		} {
			got, err := ix.WindowCollect(n.ID, rect)
			if err != nil {
				t.Fatalf("%s: WindowCollect(leaf %d, %v): %v", label, n.ID, rect, err)
			}
			want, err := tree.SearchCollect(rect)
			if err != nil {
				t.Fatal(err)
			}
			if !samePoints(got, want) {
				samePointSet(t, got, want, fmt.Sprintf("%s: leaf %d window %v", label, n.ID, rect))
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

// growDrainScript builds a script that twice grows the tree to a hundred
// or so points and then drains it to nothing.
func growDrainScript(rng *rand.Rand, fanout, store, strategy int) []byte {
	data := []byte{byte(fanout - 4), byte(store | strategy<<1)}
	// A band of the lattice 6 to 48 wide: the narrow ones pile points on
	// the same coordinates, so sibling MBRs touch and overlap heavily.
	band := 6 << rng.Intn(4)
	for op := 0; op < scriptMaxOps; op++ {
		insertShare := 90
		if op%300 >= 130 {
			insertShare = 5 // 170 ops of draining undo 130 of growing
		}
		k := byte(rng.Intn(8) << 2)
		if rng.Intn(100) >= insertShare {
			k |= 2
		}
		if rng.Intn(3) == 0 {
			k |= 0x80
		}
		data = append(data, k, byte(rng.Intn(band)), byte(rng.Intn(band)))
	}
	return data
}

func TestApplyEqualsBuild(t *testing.T) {
	seed := int64(0)
	for fanout := 4; fanout <= 8; fanout++ {
		for store := 0; store < 2; store++ {
			for strategy := 0; strategy < 3; strategy++ {
				seed++
				name := fmt.Sprintf("fanout=%d/paged=%v/%v", fanout, store == 1, Strategy(strategy))
				script := growDrainScript(rand.New(rand.NewSource(seed)), fanout, store, strategy)
				t.Run(name, func(t *testing.T) {
					st := runScript(t, script)
					if st.patched < 50 || st.grew < 2 || st.shrank < 1 {
						t.Fatalf("script too tame: %d commits, %d patched, height rose %d times and fell %d times",
							st.commits, st.patched, st.grew, st.shrank)
					}
				})
			}
		}
	}
}

// FuzzApplyEqualsBuild starts from six short scripts, one per store and
// strategy, and then three 300-op ones. The fuzzer mutates its corpus in
// order, and a mutated input that finds new coverage is minimized, one
// run per byte removed, for up to a minute: from a 300-op script that
// minute is spent on a few hundred runs. A script of 20 to 40 ops runs
// in milliseconds, so the short seeds come first and the fuzzer explores
// from them, while the long ones keep whole grow-and-drain cycles in the
// corpus.
func FuzzApplyEqualsBuild(f *testing.F) {
	for store := 0; store < 2; store++ {
		for strategy := 0; strategy < 3; strategy++ {
			rng := rand.New(rand.NewSource(int64(200 + 3*store + strategy)))
			ops := 20 + 4*(3*store+strategy) // 20, 24, …, 40
			f.Add(growDrainScript(rng, 4+rng.Intn(2), store, strategy)[:2+3*ops])
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		f.Add(growDrainScript(rng, 4+rng.Intn(5), rng.Intn(2), rng.Intn(3))[:2+3*300])
	}
	f.Fuzz(func(t *testing.T, data []byte) { runScript(t, data) })
}
