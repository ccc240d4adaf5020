package rstar

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"nwcq/internal/geom"
	"nwcq/internal/pager"
)

func newPagedTree(t *testing.T, opts Options, cache int) (*Tree, *PagedStore) {
	t.Helper()
	pages, err := pager.Create(pager.NewMemFile(), pager.Options{CacheSize: cache})
	if err != nil {
		t.Fatal(err)
	}
	store := NewPagedStore(pages)
	tr, err := New(store, opts)
	if err != nil {
		t.Fatal(err)
	}
	return tr, store
}

func TestMaxPagedEntriesFitsPaperFanout(t *testing.T) {
	if got := MaxPagedEntries(); got < DefaultMaxEntries {
		t.Fatalf("page fits %d entries, need at least %d", got, DefaultMaxEntries)
	}
}

func TestNodeEncodingRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	leaf := &Node{ID: 7, Leaf: true}
	for i := 0; i < 50; i++ {
		leaf.Points = append(leaf.Points, geom.Point{
			X: rng.NormFloat64() * 1e6, Y: rng.NormFloat64() * 1e-6, ID: rng.Uint64(),
		})
	}
	buf, err := encodeNode(leaf)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeNode(7, buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Leaf || len(back.Points) != len(leaf.Points) {
		t.Fatalf("decoded leaf shape wrong: %+v", back)
	}
	for i := range leaf.Points {
		if back.Points[i] != leaf.Points[i] {
			t.Fatalf("point %d: got %v, want %v", i, back.Points[i], leaf.Points[i])
		}
	}

	inner := &Node{ID: 9}
	for i := 0; i < 50; i++ {
		inner.Rects = append(inner.Rects, geom.NewRect(
			rng.Float64()*100, rng.Float64()*100, rng.Float64()*100, rng.Float64()*100))
		inner.Children = append(inner.Children, NodeID(rng.Uint32()))
	}
	buf, err = encodeNode(inner)
	if err != nil {
		t.Fatal(err)
	}
	back, err = decodeNode(9, buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Leaf || len(back.Children) != 50 {
		t.Fatalf("decoded internal shape wrong")
	}
	for i := range inner.Children {
		if back.Rects[i] != inner.Rects[i] || back.Children[i] != inner.Children[i] {
			t.Fatalf("entry %d mismatch", i)
		}
	}
}

func TestNodeEncodingOverflow(t *testing.T) {
	n := &Node{ID: 1}
	for i := 0; i < MaxPagedEntries()+1; i++ {
		n.Rects = append(n.Rects, geom.Rect{})
		n.Children = append(n.Children, 1)
	}
	if _, err := encodeNode(n); err == nil {
		t.Error("oversized node encoded without error")
	}
}

// TestPagedMatchesMem builds identical trees on both stores and checks
// that structure, query results and visit counts agree exactly.
func TestPagedMatchesMem(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := genPoints(rng, 3000, true)

	mem := newTree(t, Options{MaxEntries: 20})
	paged, _ := newPagedTree(t, Options{MaxEntries: 20}, 64)
	for _, p := range pts {
		if err := mem.Insert(p); err != nil {
			t.Fatal(err)
		}
		if err := paged.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := paged.CheckInvariants(false); err != nil {
		t.Fatal(err)
	}
	if mem.Height() != paged.Height() {
		t.Errorf("heights differ: mem %d, paged %d", mem.Height(), paged.Height())
	}

	for i := 0; i < 50; i++ {
		r := geom.NewRect(rng.Float64()*1000, rng.Float64()*1000,
			rng.Float64()*1000, rng.Float64()*1000)
		mem.ResetVisits()
		paged.ResetVisits()
		a, err := mem.SearchCollect(r)
		if err != nil {
			t.Fatal(err)
		}
		b, err := paged.SearchCollect(r)
		if err != nil {
			t.Fatal(err)
		}
		samePointSet(t, a, b, "mem vs paged window")
		if mem.Visits() != paged.Visits() {
			t.Errorf("visit counts differ: mem %d, paged %d", mem.Visits(), paged.Visits())
		}
	}
}

func TestPagedPersistenceAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tree.db")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	pages, err := pager.Create(f, pager.Options{CacheSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	store := NewPagedStore(pages)
	tr, err := New(store, Options{MaxEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	pts := genPoints(rng, 1000, false)
	for _, p := range pts {
		if err := tr.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	want, err := tr.SearchCollect(geom.NewRect(100, 100, 600, 600))
	if err != nil {
		t.Fatal(err)
	}
	if err := pages.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	f2, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	pages2, err := pager.Open(f2, pager.Options{CacheSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := Attach(NewPagedStore(pages2), Options{MaxEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Len() != 1000 || tr2.Height() != tr.Height() {
		t.Fatalf("reopened tree Len=%d Height=%d, want %d/%d",
			tr2.Len(), tr2.Height(), 1000, tr.Height())
	}
	if err := tr2.CheckInvariants(false); err != nil {
		t.Fatal(err)
	}
	got, err := tr2.SearchCollect(geom.NewRect(100, 100, 600, 600))
	if err != nil {
		t.Fatal(err)
	}
	samePointSet(t, got, want, "reopened window query")

	// Continue mutating after reopen.
	if err := tr2.Insert(geom.Point{X: 1, Y: 1, ID: 12345}); err != nil {
		t.Fatal(err)
	}
	if ok, err := tr2.Delete(pts[0]); err != nil || !ok {
		t.Fatalf("delete after reopen: ok=%v err=%v", ok, err)
	}
	if err := tr2.CheckInvariants(false); err != nil {
		t.Fatal(err)
	}
}

func TestAttachEmptyStoreFails(t *testing.T) {
	pages, err := pager.Create(pager.NewMemFile(), pager.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Attach(NewPagedStore(pages), Options{}); err == nil {
		t.Error("Attach on empty store succeeded")
	}
}

func TestPagedDeleteStress(t *testing.T) {
	tr, _ := newPagedTree(t, Options{MaxEntries: 8}, 128)
	rng := rand.New(rand.NewSource(4))
	pts := genPoints(rng, 600, true)
	for _, p := range pts {
		if err := tr.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range rng.Perm(len(pts))[:400] {
		if ok, err := tr.Delete(pts[i]); err != nil || !ok {
			t.Fatalf("paged delete: ok=%v err=%v", ok, err)
		}
	}
	if err := tr.CheckInvariants(false); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 200 {
		t.Fatalf("Len = %d, want 200", tr.Len())
	}
}

// TestVisitsUnchangedByCachingLayers builds the same tree under three
// cache configurations — everything cold, buffer pool only, buffer pool
// plus decoded-node cache — and checks that identical queries report
// identical visit counts. The caches may change where bytes come from,
// never how many nodes the algorithm touches.
func TestVisitsUnchangedByCachingLayers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := genPoints(rng, 2000, true)
	queries := make([]geom.Rect, 40)
	for i := range queries {
		queries[i] = geom.NewRect(rng.Float64()*1000, rng.Float64()*1000,
			rng.Float64()*1000, rng.Float64()*1000)
	}

	configs := []struct {
		name      string
		pageCache int
		nodeCache int
	}{
		{"cold", 0, 0},
		{"pool-only", 256, 0},
		{"pool+nodes", 256, DefaultNodeCacheSize},
	}
	visits := make([][]uint64, len(configs))
	for ci, cfg := range configs {
		pages, err := pager.Create(pager.NewMemFile(), pager.Options{CacheSize: cfg.pageCache})
		if err != nil {
			t.Fatal(err)
		}
		store := NewPagedStoreCache(pages, cfg.nodeCache)
		tr, err := New(store, Options{MaxEntries: 16})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pts {
			if err := tr.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range queries {
			tr.ResetVisits()
			if _, err := tr.SearchCollect(q); err != nil {
				t.Fatal(err)
			}
			visits[ci] = append(visits[ci], tr.Visits())
		}
		// Re-run the same queries on a warm cache: counts must not drop.
		for qi, q := range queries {
			tr.ResetVisits()
			if _, err := tr.SearchCollect(q); err != nil {
				t.Fatal(err)
			}
			if got := tr.Visits(); got != visits[ci][qi] {
				t.Fatalf("%s: query %d warm visits %d != cold visits %d",
					cfg.name, qi, got, visits[ci][qi])
			}
		}
	}
	for ci := 1; ci < len(configs); ci++ {
		for qi := range queries {
			if visits[ci][qi] != visits[0][qi] {
				t.Errorf("%s: query %d visits %d, want %d (as with no caches)",
					configs[ci].name, qi, visits[ci][qi], visits[0][qi])
			}
		}
	}
}

// TestNodeCacheInvalidation checks that Put and Free evict the decoded
// node so readers never see stale entries.
func TestNodeCacheInvalidation(t *testing.T) {
	pages, err := pager.Create(pager.NewMemFile(), pager.Options{CacheSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	s := NewPagedStoreCache(pages, 64)
	n := &Node{Leaf: true, Points: []geom.Point{{X: 1, Y: 2, ID: 3}}}
	if err := s.Alloc(n); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(n.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Points) != 1 || got.Points[0].ID != 3 {
		t.Fatalf("first get = %+v", got)
	}
	if s.cache.len() == 0 {
		t.Fatal("node not cached after get")
	}

	// Mutate-and-Put (the insert/delete pattern): next Get must decode
	// the new image, not return the cached old one.
	upd := &Node{ID: n.ID, Leaf: true,
		Points: []geom.Point{{X: 1, Y: 2, ID: 3}, {X: 4, Y: 5, ID: 6}}}
	if err := s.Put(upd); err != nil {
		t.Fatal(err)
	}
	got, err = s.Get(n.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Points) != 2 || got.Points[1].ID != 6 {
		t.Fatalf("get after put = %+v", got)
	}

	if err := s.Free(n.ID); err != nil {
		t.Fatal(err)
	}
	if s.cache.get(n.ID) != nil {
		t.Error("freed node still cached")
	}
}

// TestNodeCacheStaleDecodeNotInserted drives the version check directly:
// a decode that raced with a Put (read old bytes, then the store moved
// on) must not enter the cache.
func TestNodeCacheStaleDecodeNotInserted(t *testing.T) {
	pages, err := pager.Create(pager.NewMemFile(), pager.Options{CacheSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	s := NewPagedStoreCache(pages, 64)
	n := &Node{Leaf: true}
	if err := s.Alloc(n); err != nil {
		t.Fatal(err)
	}
	stale := &Node{ID: n.ID, Leaf: true}
	v := s.version.Load()
	s.version.Add(1) // a Put happened between the page read and the insert
	s.cache.insertIfVersion(stale, v, s.version.Load)
	if s.cache.get(n.ID) != nil {
		t.Error("stale decode entered the cache")
	}
	s.cache.insertIfVersion(stale, s.version.Load(), s.version.Load)
	if s.cache.get(n.ID) == nil {
		t.Error("current-version decode rejected")
	}
}

// TestPagedStoreConcurrentGetPut hammers one store with concurrent
// readers and a writer (run under -race). Readers must always decode a
// complete image — either the old or the new version of the node.
func TestPagedStoreConcurrentGetPut(t *testing.T) {
	pages, err := pager.Create(pager.NewMemFile(), pager.Options{CacheSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	s := NewPagedStoreCache(pages, 64)
	var ids []NodeID
	for i := 0; i < 16; i++ {
		n := &Node{Leaf: true, Points: []geom.Point{{X: float64(i), Y: float64(i), ID: uint64(i)}}}
		if err := s.Alloc(n); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, n.ID)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // writer: grows and rewrites nodes
		defer wg.Done()
		for round := 0; round < 200; round++ {
			id := ids[round%len(ids)]
			k := round/len(ids) + 2
			n := &Node{ID: id, Leaf: true}
			for j := 0; j < k; j++ {
				n.Points = append(n.Points, geom.Point{ID: uint64(j)})
			}
			if err := s.Put(n); err != nil {
				errs <- err
				return
			}
		}
		close(stop)
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				n, err := s.Get(ids[(g*5+i)%len(ids)])
				if err != nil {
					errs <- err
					return
				}
				// Points IDs are always 0..len-1 in every version the
				// writer installs, so a torn or stale-cached read shows
				// up as a hole.
				for j, p := range n.Points {
					if int(p.ID) != j && len(n.Points) > 1 {
						errs <- fmt.Errorf("goroutine %d: inconsistent node %d: %+v", g, n.ID, n.Points)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
