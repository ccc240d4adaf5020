package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"nwcq/internal/geom"
)

// poolModel is the reference the pool tests hold knwcState to: the same
// maintenance rules with nothing remembered between offers — entries
// found and placed by linear scans under the oracle's groupKey, the
// greedy selection and its bound re-derived from the first entry every
// time they are needed.
type poolModel struct {
	k, m, limit       int
	pool              []poolEntry
	offered, accepted int
}

func (r *poolModel) greedy() []Group {
	var out []Group
	for _, e := range r.pool {
		ok := true
		for _, h := range out {
			if ov := h.OverlapCount(e.g); ov > r.m || ov == len(e.g.Objects) {
				ok = false
				break
			}
		}
		if ok {
			if out = append(out, e.g); len(out) == r.k {
				break
			}
		}
	}
	return out
}

func (r *poolModel) bound() float64 {
	if sel := r.greedy(); len(sel) == r.k {
		return sel[r.k-1].Dist
	}
	return math.Inf(1)
}

func (r *poolModel) offer(g Group) {
	r.offered++
	if g.Dist >= r.bound() {
		return
	}
	key := groupKey(g.Objects)
	for i, e := range r.pool {
		if e.key == key {
			if g.Dist >= e.g.Dist {
				return
			}
			r.pool = slices.Delete(r.pool, i, i+1)
			break
		}
	}
	at := 0
	for at < len(r.pool) && (r.pool[at].g.Dist < g.Dist || r.pool[at].g.Dist == g.Dist && r.pool[at].key < key) {
		at++
	}
	r.accepted++
	r.pool = slices.Insert(r.pool, at, poolEntry{key, g})
	if cut := r.bound(); len(r.pool) > r.limit && !math.IsInf(cut, 1) {
		r.pool = slices.DeleteFunc(r.pool, func(e poolEntry) bool { return e.g.Dist > cut })
	}
}

// offerGroup hands g to the pool through its sink, as evaluateWindows
// does: the distance, the members in scratch that is reused as soon as the
// sink returns — here wiped, so an entry that kept a reference to it no
// longer equals the model's — and the window. The test comes first; only
// an offer that enters is materialised.
func (s *knwcState) offerGroup(g Group) bool {
	sel := make([]distPoint, len(g.Objects))
	for i, p := range g.Objects {
		sel[i] = distPoint{p: p, d: g.Dist}
	}
	defer clear(sel)
	return s.offer(g.Dist, sel, g.Window)
}

// checkAgainst demands of s everything the model has: the same pool in
// the same order, the same selection (by position, ascending), the same
// bound, the same counts, and a key → distance map that is exactly the
// pool's.
func (r *poolModel) checkAgainst(t *testing.T, s *knwcState, at string) {
	t.Helper()
	if len(s.pool) != len(r.pool) {
		t.Fatalf("%s: pool holds %d entries, model %d", at, len(s.pool), len(r.pool))
	}
	for i, e := range r.pool {
		if got := s.pool[i]; got.key != e.key || !reflect.DeepEqual(got.g, e.g) {
			t.Fatalf("%s: pool[%d] = %+v, model %+v", at, i, got.g, e.g)
		}
		if d, ok := s.held[e.key]; !ok || d != e.g.Dist {
			t.Fatalf("%s: held[pool[%d]] = %g, %v; the entry's distance is %g", at, i, d, ok, e.g.Dist)
		}
		if pos := s.position(e.g.Dist, []byte(e.key)); pos != i {
			t.Fatalf("%s: pool[%d] searched for at %d", at, i, pos)
		}
	}
	if len(s.held) != len(s.pool) {
		t.Fatalf("%s: held has %d keys for %d entries", at, len(s.held), len(s.pool))
	}
	want := r.greedy()
	if len(s.sel) != len(want) {
		t.Fatalf("%s: %d groups selected at %v, from scratch %d", at, len(s.sel), s.sel, len(want))
	}
	for i, pos := range s.sel {
		if i > 0 && pos <= s.sel[i-1] || !reflect.DeepEqual(s.pool[pos].g, want[i]) {
			t.Fatalf("%s: selection %v: member %d is %+v, from scratch %+v", at, s.sel, i, s.pool[pos].g, want[i])
		}
	}
	if !reflect.DeepEqual(s.result(), append([]Group{}, want...)) {
		t.Fatalf("%s: result %+v, from scratch %+v", at, s.result(), want)
	}
	if got, want := s.bound(), r.bound(); got != want {
		t.Fatalf("%s: bound %g, from scratch %g", at, got, want)
	}
	if s.offered != r.offered || s.accepted != r.accepted {
		t.Fatalf("%s: offered/accepted %d/%d, model %d/%d", at, s.offered, s.accepted, r.offered, r.accepted)
	}
}

// The ops of a pool script, four bytes each after a two-byte header
// (k−1, m): kind, then three operands.
const (
	opOffer    = iota // objects: bits of a over poolUniverse (none: the one object c names); Dist 1 + b%16
	opCloser          // entry a's set, its objects rotated by b, at Dist − (c%3)/2: c%3 = 0 offers the distance held
	opFarther         // entry a's set, at Dist + (c%3)/2
	opTie             // a new set (bits of a) at entry b's Dist
	opOverflow        // offers past the pool's limit, made to be blocked by the first selected group
	poolOpKinds
)

// poolUniverse is what offered groups are made of: eight objects with
// distinct IDs, sites shared pairwise.
var poolUniverse = func() (u [8]geom.Point) {
	for i := range u {
		u[i] = geom.Point{X: float64(i % 4), Y: float64(i % 2), ID: uint64(i + 1)}
	}
	return u
}()

func poolScript(k, m int, ops ...[4]byte) []byte {
	out := []byte{byte(k - 1), byte(m)}
	for _, op := range ops {
		out = append(out, op[:]...)
	}
	return out
}

func poolSet(bits, fallback byte) []geom.Point {
	var objs []geom.Point
	for i, p := range poolUniverse {
		if bits>>i&1 == 1 {
			objs = append(objs, p)
		}
	}
	if objs == nil {
		objs = []geom.Point{poolUniverse[fallback%8]}
	}
	return objs
}

// runPoolScript interprets data against a knwcState and the model side
// by side, both compacting past limit entries, comparing them after every
// offer, and returns the pool sizes the ops left behind.
func runPoolScript(t *testing.T, data []byte, limit int) (sizes []int) {
	t.Helper()
	if len(data) < 2 {
		return nil
	}
	k, m := 1+int(data[0]%4), int(data[1]%3)
	s, r := newKNWCState(k, m), &poolModel{k: k, m: m, limit: limit}
	s.limit = limit
	defer s.release()
	step := 0
	offer := func(g Group) {
		// Each side gets its own slice: neither may come to depend on the
		// other's, or on the caller's order of objects.
		before := r.accepted
		r.offer(Group{Objects: append([]geom.Point{}, g.Objects...), Dist: g.Dist, Window: g.Window})
		if entered := s.offerGroup(g); entered != (r.accepted > before) {
			t.Fatalf("op %d, offer %d: the sink reported entered=%v, the model accepted %d", step, r.offered, entered, r.accepted-before)
		}
		if limit < compactLimit || r.offered%512 == 0 { // the check is O(pool): sampled when the pool is large
			r.checkAgainst(t, s, fmt.Sprintf("op %d, offer %d", step, r.offered))
		}
	}
	data = data[2:]
	for ; len(data) >= 4 && step < 64; step, data = step+1, data[4:] {
		kind, a, b, c := data[0]%poolOpKinds, data[1], data[2], data[3]
		entry := func(i byte) Group { return r.pool[int(i)%len(r.pool)].g }
		switch {
		case kind == opOffer || len(r.pool) == 0:
			offer(Group{Objects: poolSet(a, c), Dist: 1 + float64(b%16)})
		case kind == opCloser || kind == opFarther:
			g := entry(a)
			objs := append([]geom.Point{}, g.Objects...)
			rot := int(b) % len(objs)
			objs = append(objs[rot:], objs[:rot]...)
			delta := float64(c%3) / 2
			if kind == opCloser {
				delta = -delta
			}
			// The window tells the offers of one set apart.
			offer(Group{Objects: objs, Dist: g.Dist + delta, Window: geom.Rect{MaxX: float64(step)}})
		case kind == opTie:
			offer(Group{Objects: poolSet(a, c), Dist: entry(b).Dist})
		case kind == opOverflow:
			sel := r.greedy()
			if len(sel) == 0 {
				break
			}
			base, span := sel[0], 8.0
			if b := r.bound(); !math.IsInf(b, 1) {
				span = b - base.Dist
			}
			shared := base.Objects[:min(m+1, len(base.Objects))]
			for i := 0; len(r.pool) <= limit && i < limit+8; i++ {
				objs := append([]geom.Point{{X: float64(100 + i), ID: uint64(1000*step + i)}}, shared...)
				offer(Group{Objects: objs, Dist: base.Dist + float64((i+int(a))%8)*span/8})
			}
		}
		r.checkAgainst(t, s, fmt.Sprintf("op %d (kind %d)", step, kind))
		sizes = append(sizes, len(s.pool))
	}
	return sizes
}

// poolScripts are the situations the pool's bookkeeping must survive,
// by name; each is also a file of FuzzKNWCPool's seed corpus.
var poolScripts = map[string][]byte{
	// B, then C (blocked by B), then A, closer than both and overlapping B:
	// B leaves the selection and C enters it.
	"eviction-chain": poolScript(2, 0, [4]byte{opOffer, 0b0011, 4}, [4]byte{opOffer, 0b1010, 8}, [4]byte{opOffer, 0b0101, 0}),
	"duplicate":      poolScript(3, 2, [4]byte{opOffer, 0b0011, 1}, [4]byte{opOffer, 0b0011, 1}, [4]byte{opFarther, 0, 1, 0}),
	// The second member is found again closer than the first and moves
	// ahead of it; then the first is offered farther (ignored).
	"closer-reorders": poolScript(2, 0, [4]byte{opOffer, 0b0011, 2}, [4]byte{opOffer, 0b1100, 6}, [4]byte{opOffer, 0b0110, 4},
		[4]byte{opCloser, 1, 1, 2}, [4]byte{opCloser, 1, 0, 2}, [4]byte{opCloser, 2, 1, 2}, [4]byte{opFarther, 1, 0, 1}),
	"closer-same-place": poolScript(3, 1, [4]byte{opOffer, 0b0111, 3}, [4]byte{opOffer, 0b111000, 5}, [4]byte{opCloser, 1, 2, 1}, [4]byte{opCloser, 0, 1, 0}),
	// Five sets at one distance, offered in an order that is not the keys'.
	"ties": poolScript(4, 1, [4]byte{opOffer, 0b110000, 3}, [4]byte{opTie, 0b0011, 0}, [4]byte{opTie, 0b1100, 0}, [4]byte{opTie, 0b1001, 1},
		[4]byte{opTie, 0b0110, 2}, [4]byte{opOffer, 0, 3, 7}, [4]byte{opOffer, 0, 2, 0}),
	"at-the-bound": poolScript(1, 0, [4]byte{opOffer, 0b0001, 3}, [4]byte{opOffer, 0b0010, 3}, [4]byte{opOffer, 0b0100, 9}, [4]byte{opOffer, 0b1000, 2}),
	// A and a far B fill the selection; the overflow's offers all share an
	// object with A and pile up under B's distance; C, disjoint and close,
	// pulls the bound in, and the pool is cut down to it.
	"overflow": poolScript(2, 0, [4]byte{opOffer, 0b0011, 1}, [4]byte{opOffer, 0b1100, 13}, [4]byte{opOverflow, 3},
		[4]byte{opOffer, 0b110000, 4}, [4]byte{opOffer, 0b11000000, 2}, [4]byte{opCloser, 5, 1, 1}),
	// With k never reached nothing is ever cut.
	"overflow-unfilled": poolScript(4, 1, [4]byte{opOffer, 0b0111, 1}, [4]byte{opOverflow, 0}, [4]byte{opOffer, 0b111000, 0}),
}

// poolFuzzLimit is the pool limit FuzzKNWCPool runs under: small enough
// that an overflow costs a few dozen offers and every offer is checked.
const poolFuzzLimit = 24

// TestKNWCPoolTable runs the named scripts under the limit the fuzzer
// uses and under the real one, and checks that each is in the fuzz corpus
// as written here.
func TestKNWCPoolTable(t *testing.T) {
	for name, script := range poolScripts {
		runPoolScript(t, script, poolFuzzLimit)
		sizes := runPoolScript(t, script, compactLimit)
		if len(sizes) != (len(script)-2)/4 {
			t.Errorf("%s: %d ops ran of %d", name, len(sizes), (len(script)-2)/4)
		}
		file, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzKNWCPool", name))
		if want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", script); err != nil || string(file) != want {
			t.Errorf("%s: corpus file holds %q (%v), want %q", name, file, err, want)
		}
		switch name {
		case "overflow":
			// The overflow went past the limit and the cut came back under it.
			if sizes[2] <= compactLimit || sizes[3] > compactLimit/2 {
				t.Errorf("overflow: pool sizes %v: no overflow, or nothing dropped after it", sizes)
			}
		case "overflow-unfilled":
			if sizes[1] <= compactLimit || sizes[2] != sizes[1]+1 {
				t.Errorf("overflow-unfilled: pool sizes %v: entries dropped before k groups were held", sizes)
			}
		}
	}
}

// FuzzKNWCPool drives the pool with byte-derived scripts through the
// same interpreter; the seed corpus (testdata/fuzz/FuzzKNWCPool) is the
// table above.
func FuzzKNWCPool(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { runPoolScript(t, data, poolFuzzLimit) })
}

// TestSetKeyMatchesOracleKey: the engine's canonicaliser and the
// oracle's are written apart and must stay interchangeable — same bytes,
// hence the same order between any two sets, which is the pool's order
// among equal distances — on sets whose objects share coordinates under
// distinct IDs, whatever order the objects come in, of a handful of
// objects and, one in ten, of more than insertionMax.
func TestSetKeyMatchesOracleKey(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	randomSet := func() []geom.Point {
		n := 1 + rng.Intn(6)
		if rng.Intn(10) == 0 {
			n = insertionMax + 1 + rng.Intn(8)
		}
		objs := make([]geom.Point, n)
		for i := range objs {
			objs[i] = geom.Point{X: float64(rng.Intn(3) - 1), Y: float64(rng.Intn(3)-1) / 2, ID: uint64(rng.Intn(40))}
		}
		return objs
	}
	differ := 0
	for i := 0; i < 2000; i++ {
		a, b := randomSet(), randomSet()
		ka := string(setKey(nil, a))
		kb := string(setKey(nil, b))
		if ka != groupKey(a) || kb != groupKey(b) {
			t.Fatalf("sets %v, %v: engine keys %x, %x; oracle keys %x, %x", a, b, ka, kb, groupKey(a), groupKey(b))
		}
		if got, want := strings.Compare(ka, kb), strings.Compare(groupKey(a), groupKey(b)); got != want {
			t.Fatalf("sets %v, %v order %d by the engine's keys, %d by the oracle's", a, b, got, want)
		} else if got != 0 {
			differ++
		}
		rng.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
		if again := setKey(nil, a); !bytes.Equal(again, []byte(ka)) {
			t.Fatalf("set %v: key depends on the order of its objects", a)
		}
	}
	if differ < 1000 {
		t.Fatalf("only %d of 2000 pairs had different keys", differ)
	}
}
