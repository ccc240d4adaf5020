package rstar

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"nwcq/internal/geom"
	"nwcq/internal/pager"
)

func snapPoints(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000, ID: uint64(i + 1)}
	}
	return pts
}

func sortedPoints(pts []geom.Point) []geom.Point {
	out := append([]geom.Point(nil), pts...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func samePoints(t *testing.T, label string, got, want []geom.Point) {
	t.Helper()
	g, w := sortedPoints(got), sortedPoints(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d points, want %d", label, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: point %d = %v, want %v", label, i, g[i], w[i])
		}
	}
}

func buildFrozenMem(t *testing.T, pts []geom.Point) *Tree {
	t.Helper()
	tr, err := New(NewMemStore(), Options{MaxEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if err := tr.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	frozen, err := tr.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return frozen
}

func buildFrozenPaged(t *testing.T, pts []geom.Point) *Tree {
	t.Helper()
	pages, err := pager.Create(pager.NewMemFile())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(NewPagedStoreCache(pages, 128), Options{MaxEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if err := tr.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	frozen, err := tr.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return frozen
}

func TestFrozenTreeRejectsInPlaceMutation(t *testing.T) {
	pts := snapPoints(100, 1)
	frozen := buildFrozenMem(t, pts)
	if err := frozen.Insert(geom.Point{X: 1, Y: 2, ID: 9999}); !errors.Is(err, ErrImmutableTree) {
		t.Fatalf("Insert on frozen tree: err = %v, want ErrImmutableTree", err)
	}
	if _, err := frozen.Delete(pts[0]); !errors.Is(err, ErrImmutableTree) {
		t.Fatalf("Delete on frozen tree: err = %v, want ErrImmutableTree", err)
	}
	all, err := frozen.All()
	if err != nil {
		t.Fatal(err)
	}
	samePoints(t, "frozen tree after rejected mutations", all, pts)
}

func TestFreezeSealsOriginalStore(t *testing.T) {
	store := NewMemStore()
	tr, err := New(store, Options{MaxEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range snapPoints(50, 2) {
		if err := tr.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tr.Freeze(); err != nil {
		t.Fatal(err)
	}
	// The pre-freeze tree value still points at the sealed store;
	// mutating through it must fail rather than corrupt snapshots.
	if err := tr.Insert(geom.Point{X: 1, Y: 1, ID: 9999}); !errors.Is(err, ErrImmutableTree) {
		t.Fatalf("Insert through sealed store: err = %v, want ErrImmutableTree", err)
	}
	if _, err := tr.Freeze(); err == nil {
		t.Fatal("second Freeze of the same store should fail")
	}
}

func TestWriteBatchCommitPreservesOldVersion(t *testing.T) {
	for _, kind := range []string{"mem", "paged"} {
		t.Run(kind, func(t *testing.T) {
			base := snapPoints(300, 3)
			var v0 *Tree
			if kind == "mem" {
				v0 = buildFrozenMem(t, base)
			} else {
				v0 = buildFrozenPaged(t, base)
			}

			extra := make([]geom.Point, 150)
			for i := range extra {
				extra[i] = geom.Point{X: float64(i) * 3.7, Y: float64(i) * 1.3, ID: uint64(10000 + i)}
			}
			b, err := v0.BeginWrite()
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range extra {
				if err := b.Tree().Insert(p); err != nil {
					t.Fatal(err)
				}
			}
			for _, p := range base[:100] {
				found, err := b.Tree().Delete(p)
				if err != nil {
					t.Fatal(err)
				}
				if !found {
					t.Fatalf("batch delete missed %v", p)
				}
			}
			v1, delta, err := b.Commit()
			if err != nil {
				t.Fatal(err)
			}
			retired := delta.Retired
			if len(retired) == 0 {
				t.Fatal("commit with mutations retired no nodes")
			}

			want1 := append(append([]geom.Point(nil), base[100:]...), extra...)
			all1, err := v1.All()
			if err != nil {
				t.Fatal(err)
			}
			samePoints(t, "new version", all1, want1)
			if err := v1.CheckInvariants(false); err != nil {
				t.Fatalf("new version invariants: %v", err)
			}

			// The old version must still read exactly the pre-batch
			// point set: shadow allocation may not touch its nodes.
			all0, err := v0.All()
			if err != nil {
				t.Fatal(err)
			}
			samePoints(t, "old version", all0, base)
			if err := v0.CheckInvariants(false); err != nil {
				t.Fatalf("old version invariants: %v", err)
			}

			// Releasing the retired IDs must leave the new version
			// intact (only the old one becomes unreadable).
			if err := v1.ReleaseNodes(retired); err != nil {
				t.Fatal(err)
			}
			all1b, err := v1.All()
			if err != nil {
				t.Fatal(err)
			}
			samePoints(t, "new version after release", all1b, want1)
			if err := v1.CheckInvariants(false); err != nil {
				t.Fatalf("new version invariants after release: %v", err)
			}
		})
	}
}

func TestWriteBatchEmptyCommit(t *testing.T) {
	pts := snapPoints(60, 4)
	v0 := buildFrozenMem(t, pts)
	b, err := v0.BeginWrite()
	if err != nil {
		t.Fatal(err)
	}
	// A miss-delete reads nodes but writes nothing.
	if found, err := b.Tree().Delete(geom.Point{X: -5, Y: -5, ID: 424242}); err != nil || found {
		t.Fatalf("miss delete = (%v, %v), want (false, nil)", found, err)
	}
	v1, delta, err := b.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v0 {
		t.Fatal("empty commit should return the base snapshot")
	}
	if len(delta.Retired) != 0 || len(delta.Written) != 0 {
		t.Fatalf("empty commit wrote %d and retired %d nodes", len(delta.Written), len(delta.Retired))
	}
}

func TestWriteBatchDiscard(t *testing.T) {
	pts := snapPoints(80, 5)
	v0 := buildFrozenMem(t, pts)
	b, err := v0.BeginWrite()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := b.Tree().Insert(geom.Point{X: float64(i), Y: float64(i), ID: uint64(5000 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	b.Discard()
	all, err := v0.All()
	if err != nil {
		t.Fatal(err)
	}
	samePoints(t, "base after discard", all, pts)

	// The discarded batch's reserved IDs must be reusable.
	b2, err := v0.BeginWrite()
	if err != nil {
		t.Fatal(err)
	}
	if err := b2.Tree().Insert(geom.Point{X: 1, Y: 1, ID: 7777}); err != nil {
		t.Fatal(err)
	}
	v1, _, err := b2.Commit()
	if err != nil {
		t.Fatal(err)
	}
	samePoints(t, "commit after discard", mustAll(t, v1), append(append([]geom.Point(nil), pts...), geom.Point{X: 1, Y: 1, ID: 7777}))
}

func mustAll(t *testing.T, tr *Tree) []geom.Point {
	t.Helper()
	all, err := tr.All()
	if err != nil {
		t.Fatal(err)
	}
	return all
}

// TestSnapshotChain drives a long chain of commits with releases lagging
// two versions behind, mirroring every state against a reference map —
// the reclamation discipline the nwcq view queue uses.
func TestSnapshotChain(t *testing.T) {
	for _, kind := range []string{"mem", "paged"} {
		t.Run(kind, func(t *testing.T) {
			base := snapPoints(200, 6)
			var cur *Tree
			if kind == "mem" {
				cur = buildFrozenMem(t, base)
			} else {
				cur = buildFrozenPaged(t, base)
			}
			ref := make(map[uint64]geom.Point, len(base))
			for _, p := range base {
				ref[p.ID] = p
			}
			rng := rand.New(rand.NewSource(7))
			nextID := uint64(100000)
			type pendingRelease struct {
				ids []NodeID
			}
			var pending []pendingRelease

			for step := 0; step < 40; step++ {
				b, err := cur.BeginWrite()
				if err != nil {
					t.Fatal(err)
				}
				nops := 1 + rng.Intn(8)
				for i := 0; i < nops; i++ {
					if rng.Intn(2) == 0 || len(ref) == 0 {
						p := geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000, ID: nextID}
						nextID++
						if err := b.Tree().Insert(p); err != nil {
							t.Fatal(err)
						}
						ref[p.ID] = p
					} else {
						var victim geom.Point
						for _, p := range ref {
							victim = p
							break
						}
						found, err := b.Tree().Delete(victim)
						if err != nil {
							t.Fatal(err)
						}
						if !found {
							t.Fatalf("step %d: delete missed %v", step, victim)
						}
						delete(ref, victim.ID)
					}
				}
				next, delta, err := b.Commit()
				if err != nil {
					t.Fatalf("step %d: commit: %v", step, err)
				}
				pending = append(pending, pendingRelease{ids: delta.Retired})
				// Lag releases: only versions two commits old drain.
				if len(pending) > 2 {
					if err := next.ReleaseNodes(pending[0].ids); err != nil {
						t.Fatal(err)
					}
					pending = pending[1:]
				}
				cur = next

				want := make([]geom.Point, 0, len(ref))
				for _, p := range ref {
					want = append(want, p)
				}
				samePoints(t, fmt.Sprintf("step %d", step), mustAll(t, cur), want)
				if err := cur.CheckInvariants(false); err != nil {
					t.Fatalf("step %d: invariants: %v", step, err)
				}
			}
		})
	}
}

// TestSnapshotConcurrentReaders commits mutations while readers hammer
// pinned versions; run under -race this is the core safety regression
// for shadow allocation.
func TestSnapshotConcurrentReaders(t *testing.T) {
	for _, kind := range []string{"mem", "paged"} {
		t.Run(kind, func(t *testing.T) {
			base := snapPoints(400, 8)
			var cur *Tree
			if kind == "mem" {
				cur = buildFrozenMem(t, base)
			} else {
				cur = buildFrozenPaged(t, base)
			}

			stop := make(chan struct{})
			errs := make(chan error, 4)
			baseSorted := sortedPoints(base)
			for g := 0; g < 3; g++ {
				go func() {
					for {
						select {
						case <-stop:
							errs <- nil
							return
						default:
						}
						all, err := cur.All() // pinned v0, never released during the test
						if err != nil {
							errs <- fmt.Errorf("reader: %v", err)
							return
						}
						got := sortedPoints(all)
						if len(got) != len(baseSorted) {
							errs <- fmt.Errorf("reader saw %d points, want %d", len(got), len(baseSorted))
							return
						}
					}
				}()
			}

			writer := cur
			var retired []NodeID
			for step := 0; step < 25; step++ {
				b, err := writer.BeginWrite()
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 5; i++ {
					p := geom.Point{X: float64(step*10 + i), Y: float64(step), ID: uint64(200000 + step*10 + i)}
					if err := b.Tree().Insert(p); err != nil {
						t.Fatal(err)
					}
				}
				next, delta, err := b.Commit()
				if err != nil {
					t.Fatal(err)
				}
				retired = append(retired, delta.Retired...)
				writer = next
			}
			close(stop)
			for g := 0; g < 3; g++ {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
			// Only now, with all readers of v0 done, release the chain.
			if err := writer.ReleaseNodes(retired); err != nil {
				t.Fatal(err)
			}
			if err := writer.CheckInvariants(false); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCommitDeltaExact pins what derived structures patched from a
// commit's Delta rely on: the written IDs are exactly the nodes reachable
// in the new tree and not in the base, the retired IDs exactly the
// reverse, every written node carries the content the new tree serves,
// and every written node but the root has a written parent. The script
// shrinks the tree to nothing and regrows it, so condense, forced
// reinsertion, root split and root collapse all pass through.
func TestCommitDeltaExact(t *testing.T) {
	for _, kind := range []string{"mem", "paged"} {
		t.Run(kind, func(t *testing.T) {
			live := snapPoints(260, 11)
			var cur *Tree
			if kind == "mem" {
				cur = buildFrozenMem(t, live)
			} else {
				cur = buildFrozenPaged(t, live)
			}
			rng := rand.New(rand.NewSource(12))
			nextID := uint64(500000)
			var pending [][]NodeID
			heights := map[int]bool{}

			reachable := func(tr *Tree) map[NodeID]bool {
				_, ids, err := tr.Contents()
				if err != nil {
					t.Fatal(err)
				}
				set := make(map[NodeID]bool, len(ids))
				for _, id := range ids {
					if set[id] {
						t.Fatalf("node %d reachable twice", id)
					}
					set[id] = true
				}
				return set
			}

			for step := 0; step < 120; step++ {
				// Phases: drain to empty, regrow, then mix.
				insertBias := 5
				switch {
				case step < 45:
					insertBias = 0
				case step < 90:
					insertBias = 10
				}
				b, err := cur.BeginWrite()
				if err != nil {
					t.Fatal(err)
				}
				for i, nops := 0, 1+rng.Intn(12); i < nops; i++ {
					if rng.Intn(10) < insertBias || len(live) == 0 {
						p := geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000, ID: nextID}
						nextID++
						if err := b.Tree().Insert(p); err != nil {
							t.Fatal(err)
						}
						live = append(live, p)
						continue
					}
					j := rng.Intn(len(live))
					if found, err := b.Tree().Delete(live[j]); err != nil || !found {
						t.Fatalf("step %d: delete = (%v, %v)", step, found, err)
					}
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
				}
				next, delta, err := b.Commit()
				if err != nil {
					t.Fatal(err)
				}
				heights[next.Height()] = true

				before, after := reachable(cur), reachable(next)
				written := make(map[NodeID]*Node, len(delta.Written))
				for _, n := range delta.Written {
					if written[n.ID] != nil {
						t.Fatalf("step %d: node %d written twice", step, n.ID)
					}
					written[n.ID] = n
					if before[n.ID] || !after[n.ID] {
						t.Fatalf("step %d: written node %d: in base %v, in new tree %v", step, n.ID, before[n.ID], after[n.ID])
					}
				}
				retired := make(map[NodeID]bool, len(delta.Retired))
				for _, id := range delta.Retired {
					if retired[id] {
						t.Fatalf("step %d: node %d retired twice", step, id)
					}
					retired[id] = true
					if !before[id] || after[id] {
						t.Fatalf("step %d: retired node %d: in base %v, in new tree %v", step, id, before[id], after[id])
					}
				}
				for id := range after {
					if !before[id] && written[id] == nil {
						t.Fatalf("step %d: new node %d missing from the written set", step, id)
					}
				}
				for id := range before {
					if !after[id] && !retired[id] {
						t.Fatalf("step %d: dropped node %d missing from the retired set", step, id)
					}
				}
				if written[next.Root()] == nil {
					t.Fatalf("step %d: root %d not written", step, next.Root())
				}
				hasWrittenParent := map[NodeID]bool{next.Root(): true}
				for id, n := range written {
					stored, err := next.Node(id)
					if err != nil {
						t.Fatal(err)
					}
					if stored.Leaf != n.Leaf || !slices.Equal(stored.Children, n.Children) ||
						!slices.Equal(stored.Rects, n.Rects) || !slices.Equal(stored.Points, n.Points) {
						t.Fatalf("step %d: written node %d differs from the stored node", step, id)
					}
					for _, c := range n.Children {
						hasWrittenParent[c] = true
					}
				}
				for id := range written {
					if !hasWrittenParent[id] {
						t.Fatalf("step %d: written node %d has an unwritten parent", step, id)
					}
				}

				pending = append(pending, delta.Retired)
				if len(pending) > 2 {
					if err := next.ReleaseNodes(pending[0]); err != nil {
						t.Fatal(err)
					}
					pending = pending[1:]
				}
				cur = next
			}
			if len(heights) < 3 {
				t.Fatalf("script only saw tree heights %v; root split and collapse not exercised", heights)
			}
		})
	}
}
