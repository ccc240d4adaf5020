package iwp

import (
	"cmp"
	"flag"
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
// new snapshot, the index it was derived from must be untouched (equal
// to a copy of its records taken when it was new), and an incremental
// window query from every leaf must return what a root-down search
// returns.
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
	kept := snapshot(ix)
	var sets pointSets

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
		// snapshot: it must still hold the records it held when it was new.
		sameRecords(t, label+", superseded index", ix, kept)
		windowsFromEveryLeaf(t, label, patched, next, st.commits, &sets)

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
		cur, ix, kept = next, patched, snapshot(patched)
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

// snapshot copies ix's records, overlap lists included, so that a later
// sameRecords shows whether anything wrote to ix or to a list it shares.
func snapshot(ix *Index) *Index {
	cp := *ix
	cp.targeted = slices.Clone(ix.targeted)
	cp.chunks = make([]*chunk, len(ix.chunks))
	for i, c := range ix.chunks {
		if c == nil {
			continue
		}
		cc := *c
		for j := range cc {
			cc[j].overlap = slices.Clone(cc[j].overlap)
		}
		cp.chunks[i] = &cc
	}
	return &cp
}

// sameRecords fails unless got holds exactly the records of want, its
// snapshot: the same fields, the same slots and every list in the same
// order.
func sameRecords(t *testing.T, label string, got, want *Index) {
	t.Helper()
	if got.rootID != want.rootID || got.height != want.height || got.strategy != want.strategy ||
		got.numLeaves != want.numLeaves || got.numOverlap != want.numOverlap ||
		!slices.Equal(got.targeted, want.targeted) || len(got.chunks) != len(want.chunks) {
		t.Fatalf("%s: index header changed since it was built", label)
	}
	for i, c := range got.chunks {
		w := want.chunks[i]
		if (c == nil) != (w == nil) {
			t.Fatalf("%s: chunk %d appeared or vanished", label, i)
		}
		if c == nil {
			continue
		}
		for j := range c {
			g, w := &c[j], &w[j]
			if g.parent != w.parent || g.level != w.level || g.mbr != w.mbr || !slices.Equal(g.overlap, w.overlap) {
				t.Fatalf("%s: node %d record {parent %d level %d mbr %v overlap %v}, was {parent %d level %d mbr %v overlap %v}",
					label, i<<chunkShift|j, g.parent, g.level, g.mbr, g.overlap, w.parent, w.level, w.mbr, w.overlap)
			}
		}
	}
}

// pointSets compares window answers as sets without sorting them: a
// script gives every point its own small ID, so a table indexed by ID
// marks a reference answer's points in one pass and checks the other
// answer in a second. Its tables are reused from answer to answer.
type pointSets struct {
	round int
	stamp []int        // stamp[id] == round: the reference holds id
	point []geom.Point // and this is its point
}

// same reports whether got holds exactly want's points. It may answer
// false for equal answers (an ID repeated or too large for the table),
// never true for different ones, so a false is checked again by
// samePointSet.
func (s *pointSets) same(got, want []geom.Point) bool {
	const maxID = 1 << 16
	if len(got) != len(want) {
		return false
	}
	s.round++
	for _, p := range want {
		if p.ID >= maxID {
			return false
		}
		if int(p.ID) >= len(s.stamp) {
			s.stamp = append(s.stamp, make([]int, int(p.ID)+1-len(s.stamp))...)
			s.point = append(s.point, make([]geom.Point, int(p.ID)+1-len(s.point))...)
		}
		s.stamp[p.ID], s.point[p.ID] = s.round, p
	}
	for _, p := range got {
		if p.ID >= uint64(len(s.stamp)) || s.stamp[p.ID] != s.round || s.point[p.ID] != p {
			return false
		}
		s.stamp[p.ID] = 0 // a second point with this ID is not in want
	}
	return true
}

// windowsFromEveryLeaf checks WindowCollect against a root-down search
// from every leaf of tree, over rectangles inside the leaf, around it,
// across the space and sticking out of it.
func windowsFromEveryLeaf(t *testing.T, label string, ix *Index, tree *rstar.Tree, salt int, sets *pointSets) {
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
			if !sets.same(got, want) {
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

// TestApplyEqualsBuild runs a 600-op grow-and-drain script per fan-out,
// store and strategy, then the three 300-op scripts that seeded
// FuzzApplyEqualsBuild until the fuzzer's minimization of their mutants
// stalled it (see there): each grows the tree by a level and drains it.
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
	for seed := int64(101); seed <= 103; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := growDrainScript(rng, 4+rng.Intn(5), rng.Intn(2), rng.Intn(3))[:2+3*300]
		t.Run(fmt.Sprintf("seed=%d/300-ops", seed), func(t *testing.T) {
			if st := runScript(t, script); st.grew < 1 || st.shrank < 1 {
				t.Fatalf("script too tame: %d commits, %d patched, height rose %d times and fell %d times",
					st.commits, st.patched, st.grew, st.shrank)
			}
		})
	}
}

// fuzzMaxOps is how many ops of an input FuzzApplyEqualsBuild interprets
// while fuzzing, as many as its longest seed.
const fuzzMaxOps = 40

// FuzzApplyEqualsBuild starts from six short scripts, one per store and
// strategy. A mutated input that finds new coverage is minimized before
// the fuzzer goes on, one run per byte removed and then per pair of cut
// points, for up to -fuzzminimizetime (a minute by default); a worker
// minimizing runs no new inputs. Under the fuzzer's instrumentation a
// script of 300 to 460 ops takes about half a second a run, so
// minimizing a mutant of one held a worker for the whole minute, and
// with two such mutants queued the fuzzer ran nothing. So the seeds are
// short, the 300-op scripts that once seeded it run in
// TestApplyEqualsBuild, and while fuzzing only the first fuzzMaxOps ops
// of an input run: the checked-in corpus, scripts of up to 460 ops,
// still runs whole under go test. Even a 36–40-op mutant could take
// 16–18 s to minimize, so run the target with the stall bounded:
//
//	go test -run '^$' -fuzz '^FuzzApplyEqualsBuild$' -fuzztime 10s -fuzzminimizetime 2s ./internal/iwp/
func FuzzApplyEqualsBuild(f *testing.F) {
	for store := 0; store < 2; store++ {
		for strategy := 0; strategy < 3; strategy++ {
			rng := rand.New(rand.NewSource(int64(200 + 3*store + strategy)))
			ops := 20 + 4*(3*store+strategy) // 20, 24, …, 40
			f.Add(growDrainScript(rng, 4+rng.Intn(2), store, strategy)[:2+3*ops])
		}
	}
	fuzzing := flag.Lookup("test.fuzz").Value.String() != ""
	f.Fuzz(func(t *testing.T, data []byte) {
		if fuzzing {
			data = data[:min(len(data), 2+3*fuzzMaxOps)]
		}
		runScript(t, data)
	})
}
