package core

import (
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"nwcq/internal/geom"
	"nwcq/internal/trace"
)

// KNWCQuery is a kNWC query (k, q, l, w, n, m) per Definition 3: retrieve
// K object groups of N objects each, every group clustered in an L × W
// window, pairwise sharing at most M objects, ordered by ascending
// distance to Q.
type KNWCQuery struct {
	Query
	K int // number of groups to retrieve
	M int // maximum number of identical objects between any two groups
}

// Validate reports whether the kNWC parameters are usable.
func (q KNWCQuery) Validate() error {
	if err := q.Query.Validate(); err != nil {
		return err
	}
	if q.K < 1 {
		return fmt.Errorf("core: k = %d must be at least 1", q.K)
	}
	if q.M < 0 {
		return fmt.Errorf("core: m = %d must not be negative", q.M)
	}
	return nil
}

// KNWC answers a kNWC query (Section 3.4). The search is the NWC
// traversal; once K groups are held, the K-th group's distance drives
// SRR/DIP/DEP pruning in place of dist_best, exactly as the paper
// prescribes. Unless x.Paper the search also ends at the reach of that
// distance, counts before it fetches, offers a set once per run of windows
// and allocates a group on entry: the same groups (DESIGN.md §16, §19).
//
// Group maintenance deviates deliberately from the paper's Steps 1–5,
// which leave holes that violate Definition 3 when a blocker is evicted
// (DESIGN.md §2): a deduplicated pool of the candidate groups under the
// bound, in (distance, set key) order, and the greedy selection over it —
// each group that shares at most M objects with everything accepted
// before it, identical sets never twice. The candidate universe is
// Lemma 1's (CandidateGroups); fewer than K groups are returned when it
// cannot supply them.
//
// The context is consulted per node visit or anchor, as in NWC. With
// x.Rec set, group-pool maintenance (dedup, ordered insert, greedy
// refresh) is attributed to its own phase on top of the shared
// traversal's phases. x.Bound is ignored: the kNWC merge estimate is
// non-monotone (accepting a pooled group can push the k-th greedy
// distance up), so engine-level sharing could under-build the local
// chains the router's single-shard fast path returns verbatim.
// Cooperation for kNWC happens at shard-claim granularity in
// internal/shard instead.
func (e *Engine) KNWC(ctx context.Context, qy KNWCQuery, scheme Scheme, measure Measure, x Exec) ([]Group, Stats, error) {
	if err := qy.Validate(); err != nil {
		return nil, Stats{}, err
	}
	if !measure.Valid() {
		return nil, Stats{}, errInvalidMeasure
	}
	if err := e.checkScheme(scheme); err != nil {
		return nil, Stats{}, err
	}
	st := newKNWCState(qy.K, qy.M)
	defer st.release()
	take := sink(st.offer)
	if rec := x.Rec; rec != nil {
		// Group-pool maintenance happens inside the verify phase's sink;
		// bracket it so its time — the greedy selection included, an entry
		// leaves it current — lands on the dedup phase.
		take = func(dist float64, sel []distPoint) bool {
			rec.Enter(trace.PhaseDedup)
			defer rec.Enter(trace.PhaseVerify)
			return st.offer(dist, sel)
		}
	}
	x.Bound = nil // ignored, see above
	st.strict, st.q = x.Paper, qy.Q
	stats, err := e.search(ctx, qy.Query, scheme, collector{st.bound, take, st.kth}, measure, x, false, nil)
	x.Rec.Count(trace.CtrDedupOffered, int64(st.offered))
	x.Rec.Count(trace.CtrDedupAccepted, int64(st.accepted))
	if err != nil {
		return nil, stats, err
	}
	return st.result(qy.Query), stats, nil
}

// knwcState maintains the candidate-group pool and the greedy selection
// over it. Every offer leaves all of it current, so bound and result
// only read.
type knwcState struct {
	k, m int
	// pool holds candidate groups sorted by (Dist, set key), one entry
	// per distinct object set (keeping the smallest distance seen).
	pool []poolEntry
	// held maps a set key to the distance its pool entry holds, which
	// with the key is where position finds the entry.
	held map[string]float64
	// sel is the greedy selection, as ascending positions in pool.
	sel []int
	// limit is compactLimit; the pool tests lower it to overflow cheaply.
	limit int
	// strict refuses an offer at the bound and orders equal distances by
	// paperKey, as the paper's execution did before the answer rule, which
	// its figures keep.
	strict bool
	// offered/accepted count pool traffic for the query trace: offers
	// received, and offers that entered the pool (new object set or an
	// improved distance for a known one).
	offered  int
	accepted int
	// key is an offer's set key; q the query point and kthSel the members
	// of the group under kthKey, for kth.
	key    []byte
	q      geom.Point
	kthSel []distPoint
	kthKey string
}

type poolEntry struct {
	key string
	g   Group
}

// knwcPool recycles pool, selection and key scratch between queries, as
// scratchPool does the traversal's memory.
var knwcPool = sync.Pool{New: func() any { return &knwcState{held: make(map[string]float64)} }}

func newKNWCState(k, m int) *knwcState {
	s := knwcPool.Get().(*knwcState)
	s.k, s.m, s.limit = k, m, compactLimit
	return s
}

// release hands the state back for the next query; the groups result
// returned stay the caller's, only the pool's references to them go.
func (s *knwcState) release() {
	if cap(s.pool) > scratchKeepCap {
		return // as in putScratch: one huge query does not pin its peak
	}
	clear(s.pool)
	clear(s.held)
	s.pool, s.sel = s.pool[:0], s.sel[:0]
	s.offered, s.accepted, s.strict, s.kthKey = 0, 0, false, ""
	knwcPool.Put(s)
}

// compactLimit bounds pool growth: beyond it, entries at or past the
// current K-th greedy distance are discarded. Such entries can only
// matter if the K-th distance later grows — the eviction corner case
// the paper's pruning already assumes away (Section 4.2) — so this
// trades a sliver of theoretical completeness, only under memory
// pressure, for bounded state.
const compactLimit = 4096

// bound returns the pruning distance: the K-th greedy group's distance
// once K groups exist, +Inf before that.
func (s *knwcState) bound() float64 {
	if len(s.sel) == s.k {
		return s.pool[s.sel[s.k-1]].g.Dist
	}
	return math.Inf(1)
}

// kth returns the K-th greedy group's members, ascending with their
// distances from q, and its distance; nil before K groups exist: the group
// the pool holds at its bound.
func (s *knwcState) kth() ([]distPoint, float64) {
	if len(s.sel) < s.k {
		return nil, math.Inf(1)
	}
	e := &s.pool[s.sel[s.k-1]]
	if e.key != s.kthKey {
		s.kthKey, s.kthSel = e.key, s.kthSel[:0]
		for _, p := range e.g.Objects {
			s.kthSel = append(s.kthSel, distPoint{d: s.q.Dist(p), p: p})
		}
	}
	return s.kthSel, e.g.Dist
}

// setKey appends the set key of a group to key: its members in the group's
// own order, ascending under distLess, four big-endian words each — the
// distance, x and y as order-keeping words (sortable) and the ID. The key
// identifies the set, and two keys compare byte by byte as compareMembers
// compares their members: the order of groups at one distance.
func setKey(key []byte, sel []distPoint) []byte {
	for _, c := range sel {
		key = binary.BigEndian.AppendUint64(key, sortable(c.d))
		key = binary.BigEndian.AppendUint64(key, sortable(c.p.X))
		key = binary.BigEndian.AppendUint64(key, sortable(c.p.Y))
		key = binary.BigEndian.AppendUint64(key, c.p.ID)
	}
	return key
}

// paperKey is the set key Exec.Paper orders a pool's equal distances by:
// the members in (X, Y, ID) order, three raw big-endian words each — the
// order before the answer rule (DESIGN.md §2), which the paper's figures
// were counted under.
func paperKey(key []byte, sel []distPoint) []byte {
	objs := pointsOf(nil, sel)
	slices.SortFunc(objs, func(a, b geom.Point) int {
		return cmp.Or(cmp.Compare(a.X, b.X), cmp.Compare(a.Y, b.Y), cmp.Compare(a.ID, b.ID))
	})
	for _, p := range objs {
		key = binary.BigEndian.AppendUint64(key, math.Float64bits(p.X))
		key = binary.BigEndian.AppendUint64(key, math.Float64bits(p.Y))
		key = binary.BigEndian.AppendUint64(key, p.ID)
	}
	return key
}

// sortable maps v to a word whose unsigned order is v's numeric order; −0
// and +0, equal numbers, map to one word.
func sortable(v float64) uint64 {
	b := math.Float64bits(v + 0) // −0 + 0 is +0
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// position returns where (dist, key) sorts in pool: the position of the
// entry holding them, or the one a new entry takes.
func (s *knwcState) position(dist float64, key []byte) int {
	return sort.Search(len(s.pool), func(i int) bool {
		e := &s.pool[i]
		return e.g.Dist > dist || e.g.Dist == dist && e.key >= string(key)
	})
}

// offer is the pool's sink: a group is tested against the k-th selected
// entry, then by its set key against the distance held for its object set,
// and only one that enters is given objects of its own. A group at the k-th
// distance enters when its key sorts before the k-th entry's: it belongs to
// the selection in that entry's place, or before it.
func (s *knwcState) offer(dist float64, sel []distPoint) bool {
	s.offered++
	b := s.bound()
	if dist > b || s.strict && dist == b {
		// Farther than the K-th greedy group: cannot change the greedy
		// prefix (same assumption the search's own pruning makes).
		return false
	}
	if s.strict {
		s.key = paperKey(s.key[:0], sel)
	} else {
		s.key = setKey(s.key[:0], sel)
	}
	key := s.key
	if dist == b && string(key) > s.pool[s.sel[s.k-1]].key { // b is finite: K are held
		return false // after the K-th group in the pool's order
	}
	old, known := s.held[string(key)]
	if known && dist >= old {
		return false
	}
	e := poolEntry{g: Group{Objects: pointsOf(nil, sel), Dist: dist}}
	if known {
		// Same object set found through a closer window (matters for
		// MeasureWindow): keep the minimum, which may reorder.
		pos := s.position(old, key)
		e.key = s.pool[pos].key
		s.pool = slices.Delete(s.pool, pos, pos+1)
	} else {
		e.key = string(key)
	}
	at := s.position(dist, key)
	s.pool = slices.Insert(s.pool, at, e)
	s.held[e.key] = dist
	s.accepted++
	s.reselect(at, !known)
	if len(s.pool) > s.limit {
		s.compact()
	}
	return true
}

// compact drops pool entries beyond the current K-th greedy distance: a
// suffix of pool, past every selected position.
func (s *knwcState) compact() {
	if len(s.sel) < s.k {
		return
	}
	cut := s.bound()
	n := sort.Search(len(s.pool), func(i int) bool { return s.pool[i].g.Dist > cut })
	for _, e := range s.pool[n:] {
		delete(s.held, e.key)
	}
	clear(s.pool[n:])
	s.pool = s.pool[:n]
}

// admits is the greedy accept test: pool[i]'s overlap with every selected
// group is within m, identical sets always rejected.
func (s *knwcState) admits(i int) bool {
	g := s.pool[i].g
	for _, at := range s.sel {
		if ov := s.pool[at].g.OverlapCount(g); ov > s.m || ov == len(g.Objects) {
			return false
		}
	}
	return true
}

// reselect brings the selection up to date after pool changed at
// position at and nowhere before it. A greedy scan judges each entry
// against those accepted before it, so the members before at stand and
// the scan resumes there: the same tests in the same order as a scan
// from the first entry. When the change is one inserted entry and they
// reject it, the rest of that scan would re-accept the members it had,
// one position on.
func (s *knwcState) reselect(at int, inserted bool) {
	rest := s.sel[sort.SearchInts(s.sel, at):]
	s.sel = s.sel[:len(s.sel)-len(rest)]
	for i := at; i < len(s.pool) && len(s.sel) < s.k; i++ {
		if s.admits(i) {
			s.sel = append(s.sel, i)
		} else if inserted && i == at {
			for j := range rest {
				rest[j]++
			}
			s.sel = s.sel[:len(s.sel)+len(rest)]
			return
		}
	}
}

// result returns the final selection, each group with its window.
func (s *knwcState) result(qy Query) []Group {
	out := make([]Group, len(s.sel))
	for i, at := range s.sel {
		out[i] = s.pool[at].g
		out[i].Window = windowOf(qy, out[i].Objects)
	}
	return out
}
