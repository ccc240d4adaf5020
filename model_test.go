package nwcq_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nwcq"
	"nwcq/internal/core"
	"nwcq/internal/geom"
	"nwcq/internal/shard"
)

// The differential model test (DESIGN.md §9, "The model test"). One
// interpreter reads a byte string as ops against one backend, keeps the
// live point set beside it, and checks every answer, frame and recovered
// state against core.BruteForce* at the version it names. Byte 0 picks
// the backend, byte 1 the base set, then come ops [k, a, b] with
// k%opCount naming the op; ops decode against the live set, so a script
// stays meaningful after a crash changes which state survived. A version
// is one publish: one per mutation on an index, one per shard a batch
// touches on the router. A frame names its version by Gen on the index
// and the router, by the leader's LSN on a follower.
//
// It replaces these fixed-script suites, one bullet each: what they
// asserted → the op and check that carries it now.
//   - TestMutationStressPrefixCorrectness (NWC, kNWC and batch answers
//     under every scheme racing a writer match a version in [lo, hi]; the
//     quiesced index holds the last version) → opReaders, then every
//     later op and finish's contents check.
//   - TestShardedMutationOracle (Len and answers follow a mirror on
//     memory and Dir shards, across a reopen) → the router backends,
//     whose opNWC answers are the oracle's whole groups, opWindow, and
//     opReopen's contents check.
//   - TestShardedBatchMutations (flags in input order, a phantom not
//     found) → opDeleteBatch, whose batch carries an absent point, and
//     apply's flags check.
//   - TestSubscriptionFramesMatchOracle (an init frame at the subscribed
//     version, monotone stamps, a publish instant, each frame the oracle
//     at its version, a frame per changed answer, one active subscription,
//     no evaluation error) → opSubscribe, opDrain, finish's stats check.
//   - TestSubscriptionFollowerDelivery (follower frames carry the leader's
//     LSNs and answers) → opSubscribe on the follower, checked by LSN
//     against the oracle rather than frame for frame against the leader.
//   - TestReplicationCatchUpAndLiveTail and TestReplicationSnapshotBootstrap
//     (a bulk-built leader's first catch-up is a snapshot, the tail
//     streams, a stale follower is reset, the follower equals the leader)
//     → folAttach, folAttachStale, catchUp's recycled check, checkFollower.
//   - TestReplicationSurvivesLeaderCheckpoints (a held stream delivers
//     every record across a checkpoint) → folHold, opCheckpoint, a sync.
//   - TestApplyReplicatedDeduplicates (a record delivered twice is applied
//     once) → folHold, which opens its stream one record early.
//   - TestFollowerCrashReopenResumes (the position survives an unclean and
//     a clean death, the clean one replaying nothing) → folCrash, opReopen
//     on the follower and reopen's position check.
//   - TestLeaderRestartMidStream (a restarted leader covers the
//     follower's position) → opReopen on the leader and reopen's check.
//   - TestCrashRecoveryEveryStep and TestCrashRecoveryAbandonedWithoutSync
//     (a recovered set in [acked, attempted], replayed from the log,
//     serviceable, nothing replayed after the next clean close) → opCrash,
//     crashed(), reopen, finish, and TestModelCrashSweep.
//
// These still run on their own scripts, each for the reason given:
//   - TestReplicationStreamAbortFiltering and
//     TestCloseSurfacesWALPoisonAndReleasesPages: a stream over a WAL
//     written by hand, and a poisoned close's order.
//   - TestSubscriptionOverflowResync, TestSubscriptionChurnUnderMutation
//     and TestZeroSubscriberPublishBypassesRegistry: a full queue
//     coalescing frames (the model drains before one fills),
//     subscriptions opened and closed racing a writer, and a publish with
//     no subscriber leaving the registry's counters alone.
//   - TestTemporalReadsMatchSubscriptionFrames: as-of reads in the slow
//     log and outside the retained window. That an as-of read at a frame's
//     LSN repeats the frame, its other half, is opAsOf and opDrain, both
//     checked against the oracle at that LSN's version.
//   - TestFollowerResetReplays and TestFollowerCheckpointKeepsPosition: a
//     crash at one chosen step of a re-bootstrap, and a checkpoint on every
//     record, which the model's build options never ask for.
//   - TestGridRebuildPublishRace and TestViewPinZeroAlloc: inserts far out
//     of the model's space under readers, and a pin's allocations.
//   - TestConcurrentMutationStraddling: routed reads racing a writer,
//     which opReaders skips — a routed read can see a shard at two
//     versions (ROADMAP item 16(b)).
//   - TestShardedDirBuildReopen: a Dir router closed, reopened and
//     mutated, which the sharded/dir backends' opReopen and the ops after
//     it check too; it is the next to retire (ROADMAP item 5(d)).
//
// The defects this test found are ROADMAP items 15 and 16.

const (
	opInsert = iota
	opDelete
	opInsertBatch
	opDeleteBatch
	opNWC
	opKNWC
	opWindow
	opAsOf
	opSubscribe // on the follower when b is odd
	opDrain
	opUnsubscribe
	opCheckpoint
	opCrash    // the leader's k-th I/O step from here, or (a odd) the follower's
	opReopen   // clean when a is even, the follower when a&2
	opFollower // a%8: the fol* below, 4 and up sync
	opReaders
	opCount
)

const (
	folAttach = iota
	folAttachStale
	folHold
	folCrash
	folSync
)

var (
	modelBackends = []struct {
		name        string
		shards, par int
		paged, dir  bool
	}{
		{"index", 0, 0, false, false}, {"paged", 0, 0, true, false},
		{"sharded/memory/par=1", 4, 1, false, false}, {"sharded/memory/par=4", 4, 4, false, false},
		{"sharded/dir/par=1", 4, 1, false, true}, {"sharded/dir/par=4", 4, 4, false, true},
	}
	modelQueries = []nwcq.Query{
		{X: 40, Y: 40, Length: 40, Width: 40, N: 3},
		{X: 64, Y: 64, Length: 32, Width: 48, N: 2}, // on both seams
		{X: 100, Y: 30, Length: 48, Width: 36, N: 4},
		{X: 20, Y: 110, Length: 44, Width: 44, N: 3},
	}
	modelSchemes = []nwcq.Scheme{nwcq.SchemeDefault, nwcq.SchemeNWC, nwcq.SchemeNWCPlus, nwcq.SchemeNWCStar, nwcq.SchemeIWP}
	// queuedOnly, closed, makes Next return a queued frame or, with none,
	// ErrSubscriptionClosed.
	queuedOnly = make(chan struct{})
)

func init() { close(queuedOnly) }

func kquery(qi int) nwcq.KQuery { return nwcq.KQuery{Query: modelQueries[qi], K: 3, M: 1} }

type backend interface {
	nwcq.Querier
	nwcq.Mutator
	nwcq.Subscriber
	SubscriptionStats() nwcq.SubscriptionStats
}

// version is the point set after one publish: key hashes it, lsn is the
// leader's committed LSN there (0 without a WAL).
type version struct {
	pts      []nwcq.Point
	key, lsn uint64
}

func newVersion(pts []nwcq.Point, lsn uint64) version { return version{pts, setKey(pts), lsn} }

// setKey is an order-free hash of a point set.
func setKey(pts []nwcq.Point) uint64 {
	k := uint64(len(pts))
	for _, p := range pts {
		h := math.Float64bits(p.X)*0x9e3779b97f4a7c15 ^ math.Float64bits(p.Y)*0xc2b2ae3d27d4eb4f ^ p.ID*0x165667b19e3779f9
		h = (h ^ h>>31) * 0xbf58476d1ce4e5b9
		k += h ^ h>>29
	}
	return k
}

// oracleMemo holds brute-force answers per (kind, query, point set),
// shared by every script, version and reader.
var oracleMemo sync.Map

func memo[T any](key [3]uint64, f func() T) T {
	if r, ok := oracleMemo.Load(key); ok {
		return r.(T)
	}
	r := f()
	oracleMemo.Store(key, r)
	return r
}

func coreQuery(qi int) core.Query {
	q := modelQueries[qi]
	return core.Query{Q: geom.Point{X: q.X, Y: q.Y}, L: q.Length, W: q.Width, N: q.N}
}

func oracleNWC(v version, qi int) core.Result {
	return memo([3]uint64{0, uint64(qi), v.key}, func() core.Result { return core.BruteForceNWC(v.pts, coreQuery(qi), core.MeasureMax) })
}

// okNWC and okKNWC hold an answer to the oracle's whole groups — objects,
// distance and window, bit for bit: the queries are under the max measure,
// whose distance sums nothing, and every backend answers with the least
// group in one order (DESIGN.md §2).
func okNWC(found bool, g nwcq.Group, v version, qi int) bool {
	want := oracleNWC(v, qi)
	return found == want.Found && (!found || reflect.DeepEqual(g, want.Group))
}

func okKNWC(r nwcq.KResult, v version, qi int) bool {
	want := memo([3]uint64{1, uint64(qi), v.key}, func() []core.Group {
		return core.BruteForceKNWC(v.pts, core.KNWCQuery{Query: coreQuery(qi), K: 3, M: 1}, core.MeasureMax)
	})
	return len(r.Groups) == len(want) && (len(want) == 0 || reflect.DeepEqual(r.Groups, want))
}

// mutation is one call: one point goes through Insert/Delete, more
// through the batch forms.
type mutation struct {
	del bool
	pts []nwcq.Point
}

// standing is an open subscription: the version and Gen of its init
// frame, the version of its last frame, and how far completeness is
// checked.
type standing struct {
	s                   nwcq.Subscription
	qi                  int
	follower, router    bool
	base, last, checked int
	gen0                uint64
}

type follower struct {
	disk   *nwcq.MemDisk
	px     *nwcq.PagedIndex
	st     *nwcq.ReplicationStream // held across ops, or nil
	synced bool                    // px holds the leader's version at its ReplicaLSN
	leased bool                    // st was held across a checkpoint
	// recycled is the leader's SegmentsRecycled when the follower last
	// synced with this leader, to position at; -1 when it has not.
	recycled int64
	at       uint64
}

// modelStats counts what a script exercised, so a table case can show
// it is not vacuous.
type modelStats map[string]int

type model struct {
	t      *testing.T
	at     int // the op running, for messages
	b      backend
	px     *nwcq.PagedIndex // the paged leader
	disk   *nwcq.MemDisk
	router bool
	dir    string // the router's, in Dir mode
	par    int
	fol    *follower
	live   []nwcq.Point
	vers   []version
	subs   []*standing
	nextID uint64
	st     modelStats
}

func (m *model) fatalf(format string, args ...any) {
	m.t.Helper()
	m.t.Fatalf("op %d: "+format, append([]any{m.at}, args...)...)
}

func (m *model) cur() int { return len(m.vers) - 1 }

func (m *model) push(pts []nwcq.Point) {
	var lsn uint64
	if m.px != nil {
		lsn = m.px.ReplicationLSNs().Committed
	}
	m.vers = append(m.vers, newVersion(pts, lsn))
}

// versionAt is the version a leader LSN names: the oldest of those at
// the newest LSN not above lsn (a reopen may repeat an LSN, never with
// another set).
func (m *model) versionAt(lsn uint64) int {
	v := m.cur()
	for v >= 0 && m.vers[v].lsn > lsn {
		v--
	}
	for v > 0 && m.vers[v-1].lsn == m.vers[v].lsn {
		v--
	}
	if v < 0 {
		m.fatalf("no version at LSN %d", lsn)
	}
	return v
}

func (m *model) point(a, b byte) nwcq.Point {
	m.nextID++
	return nwcq.Point{X: float64(a)/2 + float64(m.nextID%4)/8, Y: float64(b)/2 + float64(m.nextID%3)/8, ID: m.nextID}
}

func (m *model) contentsKey(q nwcq.Querier) uint64 {
	pts, err := q.Window(-math.MaxFloat64, -math.MaxFloat64, math.MaxFloat64, math.MaxFloat64)
	if err != nil {
		m.fatalf("contents: %v", err)
	}
	return setKey(pts)
}

// step applies mu to live and returns the new set, a delete's found
// flags, and the set after each publish the backend makes.
func (m *model) step(live []nwcq.Point, mu mutation) (next []nwcq.Point, founds []bool, states [][]nwcq.Point) {
	groups := make([][]int, 4) // the router's 2×2 grid over [0, 128)², in shard order
	for j, p := range mu.pts {
		if i := min(int(p.X/64), 1) + 2*min(int(p.Y/64), 1); m.router {
			groups[i] = append(groups[i], j)
		} else {
			groups[0] = append(groups[0], j)
		}
	}
	next, founds = slices.Clone(live), make([]bool, len(mu.pts))
	for _, g := range groups {
		for _, j := range g {
			if !mu.del {
				next = append(next, mu.pts[j])
			} else if i := slices.Index(next, mu.pts[j]); i >= 0 {
				next, founds[j] = slices.Delete(next, i, i+1), true
			}
		}
		if len(g) > 0 && (!mu.del || slices.ContainsFunc(g, func(j int) bool { return founds[j] })) {
			states = append(states, slices.Clone(next))
		}
	}
	return next, founds, states
}

func call(b backend, mu mutation) ([]bool, error) {
	switch {
	case !mu.del && len(mu.pts) == 1:
		return nil, b.Insert(mu.pts[0])
	case !mu.del:
		return nil, b.InsertBatch(mu.pts)
	case len(mu.pts) == 1:
		found, err := b.Delete(mu.pts[0])
		return []bool{found}, err
	}
	return b.DeleteBatch(mu.pts)
}

func (m *model) apply(mu mutation) {
	next, want, states := m.step(m.live, mu)
	if founds, err := call(m.b, mu); err != nil {
		var attempted []nwcq.Point
		if len(states) > 0 {
			attempted = next
		}
		m.crashed(err, attempted)
		return
	} else if mu.del && !slices.Equal(founds, want) {
		m.fatalf("delete %v found %v, want %v", mu.pts, founds, want)
	}
	m.live = next
	for _, s := range states {
		m.push(s)
	}
}

// crashed takes a failed call's error: unless an armed crash explains
// it, the test fails; otherwise the crashed index is abandoned and
// recovered from its disk.
func (m *model) crashed(err error, attempted []nwcq.Point) {
	m.t.Helper()
	switch {
	case m.fol != nil && m.fol.disk.Crashed():
		m.st["followerCrashes"]++
		m.reopen(true, false, nil)
	case m.disk != nil && m.disk.Crashed():
		m.st["crashes"]++
		m.reopen(false, false, attempted)
	default:
		m.fatalf("%v", err)
	}
}

// reopen closes the leader or the follower (clean) or abandons it, and
// recovers it from its disk. A clean close leaves nothing to replay. The
// leader holds the acknowledged set or the one a mutation in flight
// attempted, and covers the follower's position. The follower holds the
// leader's version at its position — unless a crash between a snapshot's
// reset and its last chunk left it at 0 over part of the snapshot, which
// the next sync resets.
func (m *model) reopen(follower, clean bool, attempted []nwcq.Point) {
	m.t.Helper()
	disk, px := m.disk, m.px
	if follower {
		disk, px = m.fol.disk, m.fol.px
	}
	m.closeSubs(follower)
	m.dropStream()
	if clean {
		if err := px.Close(); err != nil {
			m.crashed(err, nil)
			return
		}
	}
	re, err := disk.Open()
	if err != nil {
		m.fatalf("recovery: %v", err)
	}
	replayed := int(re.Metrics().WAL.RecordsReplayed)
	if clean && (replayed != 0 || re.ReplicaLSN() != px.ReplicaLSN()) {
		m.fatalf("a clean reopen replayed %d records to position %d, want 0 and %d", replayed, re.ReplicaLSN(), px.ReplicaLSN())
	}
	if follower {
		if m.fol.px, m.fol.synced = re, re.ReplicaLSN() > 0; m.fol.synced {
			m.checkFollower()
		}
		return
	}
	m.px, m.b = re, re
	m.st["replayed"] += replayed
	switch k := m.contentsKey(re); {
	case k == setKey(m.live):
	case attempted != nil && k == setKey(attempted):
		m.live = attempted
	default:
		m.fatalf("the recovered set is neither the acknowledged %d points nor the attempted state", len(m.live))
	}
	committed := re.ReplicationLSNs().Committed
	if last := m.vers[m.cur()]; committed != last.lsn || last.key != setKey(m.live) {
		m.push(slices.Clone(m.live))
	}
	if m.fol != nil {
		m.fol.recycled = -1 // a new leader's counter
	}
	if m.fol != nil && committed < m.fol.px.ReplicaLSN() {
		m.fatalf("the restarted leader committed %d, below the follower's %d", committed, m.fol.px.ReplicaLSN())
	}
}

func (m *model) dropStream() {
	if f := m.fol; f != nil && f.st != nil {
		f.st.Close()
		f.st, f.leased = nil, false
	}
}

// checkFollower compares the follower with the oracle at the leader's
// version with its ReplicaLSN.
func (m *model) checkFollower() {
	m.t.Helper()
	px := m.fol.px
	lsn := px.ReplicaLSN()
	v, qi := m.vers[m.versionAt(lsn)], int(lsn%uint64(len(modelQueries)))
	r, err := px.NWC(modelQueries[qi])
	kr, kerr := px.KNWC(kquery(qi))
	if m.contentsKey(px) != v.key || err != nil || kerr != nil || !okNWC(r.Found, r.Group, v, qi) || !okKNWC(kr, v, qi) {
		m.fatalf("the follower at LSN %d is not the leader's version there (%d points, want %d; %v, %v)", lsn, px.Len(), len(v.pts), err, kerr)
	}
	m.st["followerChecks"]++
}

// catchUp mirrors internal/repl's follower against the direct API:
// stream from the follower's position, bootstrapping from a snapshot
// when that history is compacted (or when forced), until the follower
// holds the leader's committed LSN.
func (m *model) catchUp(force bool) (err error) {
	f, leader := m.fol, m.px
	if f.st == nil {
		f.st, err = leader.StreamFrom(f.px.ReplicaLSN() + 1)
		if errors.Is(err, nwcq.ErrCompacted) && f.px.ReplicaLSN() >= f.at && f.recycled == int64(leader.Metrics().WAL.SegmentsRecycled) {
			m.fatalf("the leader compacted LSN %d away without recycling a segment", f.px.ReplicaLSN()+1)
		}
		if force || errors.Is(err, nwcq.ErrCompacted) {
			m.dropStream()
			m.closeSubs(true)
			m.st["snapshots"]++
			var pts []nwcq.Point
			var snapLSN uint64
			if pts, snapLSN, err = leader.ReplicationSnapshot(); err != nil {
				return err
			}
			if f.px.Len() > 0 || f.px.ReplicaLSN() > 0 {
				if err := f.px.ResetForSnapshot(); err != nil {
					return err
				}
			}
			for off := 0; off == 0 || off < len(pts); off += 7 { // odd chunks: the 0-stamp path
				end, stamp := min(off+7, len(pts)), uint64(0)
				if end == len(pts) {
					stamp = snapLSN
				}
				if err := f.px.ApplySnapshotChunk(pts[off:end], stamp); err != nil {
					return err
				}
			}
			f.st, err = leader.StreamFrom(snapLSN + 1)
		}
		if err != nil {
			return err
		}
	}
	if f.leased {
		m.st["leaseSyncs"]++
	}
	for target := leader.ReplicationLSNs().Committed; f.px.ReplicaLSN() < target; {
		rec, err := f.st.Next()
		if err == nil && rec == nil {
			m.fatalf("the stream dried up at %d, below the leader's %d", f.px.ReplicaLSN(), target)
		}
		if err == nil {
			err = f.px.ApplyReplicated(rec.LSN, rec.Data)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (m *model) sync(force bool) {
	m.t.Helper()
	m.fol.synced = false
	if err := m.catchUp(force); err != nil {
		m.dropStream()
		m.crashed(err, nil)
		return
	}
	m.fol.synced, m.fol.recycled, m.fol.at = true, int64(m.px.Metrics().WAL.SegmentsRecycled), m.fol.px.ReplicaLSN()
	m.checkFollower()
}

func (m *model) followerOp(a, b byte) {
	m.t.Helper()
	op := min(a%8, folSync)
	if m.px == nil || (m.fol == nil && op > folAttachStale) {
		return
	}
	switch op {
	case folAttach, folAttachStale:
		m.closeFollower()
		var stale []nwcq.Point
		if op == folAttachStale {
			stale = []nwcq.Point{{X: 1, Y: 1, ID: 1 << 40}, {X: 2, Y: 2, ID: 1<<40 + 1}}
		}
		m.fol = &follower{disk: nwcq.NewMemDisk(), recycled: -1}
		var err error
		if m.fol.px, err = m.fol.disk.Build(stale); err != nil {
			m.fatalf("follower build: %v", err)
		}
		m.sync(stale != nil)
	case folHold: // one record early: the first delivery repeats one the follower holds
		if m.dropStream(); m.fol.synced {
			m.fol.st, _ = m.px.StreamFrom(m.fol.px.ReplicaLSN())
		}
	case folCrash:
		m.fol.disk.ArmCrash(int(b))
		m.sync(false)
	default:
		m.sync(false)
	}
}

func (m *model) closeFollower() {
	if f := m.fol; f != nil {
		m.closeSubs(true)
		m.dropStream()
		if err := f.px.Close(); err != nil && !f.disk.Crashed() {
			m.fatalf("follower close: %v", err)
		}
		m.fol = nil
	}
}

func (m *model) subscribe(qi int, onFollower bool) {
	m.t.Helper()
	var src nwcq.Subscriber = m.b
	v := m.cur()
	if onFollower {
		if m.fol == nil || !m.fol.synced {
			return
		}
		// Not versionAt(init.LSN): a follower stamps its init frame with
		// its own WAL's LSN, its updates with the leader's (ROADMAP item
		// 15(a)).
		src, v = m.fol.px, m.versionAt(m.fol.px.ReplicaLSN())
	}
	s, err := src.Subscribe(modelQueries[qi])
	if err != nil {
		m.fatalf("subscribe: %v", err)
	}
	u, err := s.Next(context.Background(), nil)
	if err != nil || u.Kind != nwcq.SubInit || !okNWC(u.Result.Found, u.Result.Group, m.vers[v], qi) {
		m.fatalf("the first frame of query %d is %q (%v), not the init frame at version %d", qi, u.Kind, err, v)
	}
	m.subs = append(m.subs, &standing{s: s, qi: qi, follower: onFollower, router: m.router && !onFollower,
		base: v, last: v, checked: v, gen0: u.Gen})
}

// drain pops the frames due, checks each against the oracle at the
// version it names, then completeness up to the current version.
func (m *model) drain(st *standing) {
	m.t.Helper()
	cur, ready := m.cur(), queuedOnly // the index queues its frames at publish
	if st.follower {
		cur = m.versionAt(m.fol.px.ReplicaLSN())
	}
	if st.router {
		ready = nil // the router evaluates in Next: wait for the current version
	}
	delivered, resync := map[int]bool{}, false
	for !st.router || st.last < cur {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		u, err := st.s.Next(ctx, ready)
		cancel()
		if !st.router && errors.Is(err, nwcq.ErrSubscriptionClosed) {
			break
		}
		v := st.base + int(u.Gen-st.gen0)
		if st.follower {
			v = m.versionAt(u.LSN)
		}
		// A router frame woken by an edge whose publish instant an earlier
		// frame took carries none (ROADMAP item 15(b)), so only the index's
		// frames must carry one.
		again := u.Kind == nwcq.SubResync && v == st.last // a resync may repeat the state it resyncs to
		if err != nil || v <= st.last && !again || v > cur || u.PublishedAt.IsZero() || !okNWC(u.Result.Found, u.Result.Group, m.vers[v], st.qi) {
			m.fatalf("%s frame of query %d names version %d, after %d, up to %d: found=%v dist=%g at %v (%v)",
				u.Kind, st.qi, v, st.last, cur, u.Result.Found, u.Result.Dist, u.PublishedAt, err)
		}
		delivered[v], resync, st.last = true, resync || u.Kind == nwcq.SubResync, v
		switch {
		case st.router:
			m.st["routerFrames"]++
		case st.follower:
			m.st["followerFrames"]++
		default:
			m.st["indexFrames"]++
		}
	}
	for v := st.checked + 1; v <= cur && !st.router && !resync; v++ {
		if prev := oracleNWC(m.vers[v-1], st.qi); !okNWC(prev.Found, prev.Group, m.vers[v], st.qi) && !delivered[v] {
			m.fatalf("query %d's answer changed at version %d, and no frame named it", st.qi, v)
		}
	}
	st.checked = cur
}

func (m *model) closeSubs(onFollower bool) {
	m.subs = slices.DeleteFunc(m.subs, func(st *standing) bool {
		if st.follower == onFollower {
			st.s.Close()
		}
		return st.follower == onFollower
	})
}

// read runs an NWC (kind 0), kNWC (1) or batch (2) read of query qi
// under scheme and returns one check per answer it got.
func (m *model) read(kind, qi int, scheme nwcq.Scheme) ([]func(version) bool, error) {
	ctx, q, kq := context.Background(), modelQueries[qi], kquery(qi)
	q.Scheme, kq.Scheme = scheme, scheme
	switch kind {
	case 0:
		r, err := m.b.NWCCtx(ctx, q)
		return []func(version) bool{func(v version) bool { return okNWC(r.Found, r.Group, v, qi) }}, err
	case 1:
		r, err := m.b.KNWCCtx(ctx, kq)
		return []func(version) bool{func(v version) bool { return okKNWC(r, v, qi) }}, err
	}
	rs, err := m.b.NWCBatchCtx(ctx, modelQueries, nwcq.BatchOptions{Parallelism: 4})
	var oks []func(version) bool
	for i, r := range rs {
		oks = append(oks, func(v version) bool { return okNWC(r.Found, r.Group, v, i) })
	}
	return oks, err
}

func (m *model) query(k, a, b byte) {
	m.t.Helper()
	qi, scheme := int(a)%len(modelQueries), modelSchemes[int(b)%len(modelSchemes)]
	switch k {
	case opNWC, opKNWC:
		oks, err := m.read(int(k-opNWC), qi, scheme)
		if err != nil || !oks[0](m.vers[m.cur()]) {
			m.fatalf("%s %d under %v disagrees with the oracle (%v)", []string{"NWC", "kNWC"}[k-opNWC], qi, scheme, err)
		}
	case opWindow:
		x, y := float64(a)/2, float64(b)/2
		got, err := m.b.Window(x, y, x+32, y+32)
		want := slices.DeleteFunc(slices.Clone(m.live), func(p nwcq.Point) bool { return p.X < x || p.X > x+32 || p.Y < y || p.Y > y+32 })
		if err != nil || setKey(got) != setKey(want) {
			m.fatalf("window at (%g, %g): %d points, want %d (%v)", x, y, len(got), len(want), err)
		}
	case opAsOf:
		if m.px == nil {
			return
		}
		oldest, newest := m.px.RetainedLSNs()
		lsn := oldest + uint64(int(a)<<8|int(b))%(newest-oldest+1)
		v, ctx := m.vers[m.versionAt(lsn)], context.Background()
		r, err := m.px.NWCAsOf(ctx, modelQueries[qi], lsn)
		kr, kerr := m.px.KNWCAsOf(ctx, kquery(qi), lsn)
		if err != nil || kerr != nil || !okNWC(r.Found, r.Group, v, qi) || !okKNWC(kr, v, qi) {
			m.fatalf("query %d as of LSN %d disagrees with the oracle (%v, %v)", qi, lsn, err, kerr)
		}
		m.st["asOf"]++
	}
	m.st["checks"]++
}

// readers applies 2–7 single-point mutations while three readers run
// NWC, kNWC and batch queries. A read that starts after lo mutations
// completed and ends before hi+1 did must match a version in [lo, hi].
// Not on the router: a routed read can see one shard at two versions,
// its scatter's and its border fetch's, and so match no version at all
// (ROADMAP item 16(b)); TestConcurrentMutationStraddling keeps its
// writers where that cannot show.
func (m *model) readers(a, b byte) {
	m.t.Helper()
	if m.router || m.disk != nil && m.disk.Armed() {
		return
	}
	var muts []mutation
	pre, live := []version{m.vers[m.cur()]}, m.live
	for j := 0; j < 2+int(a%6); j++ {
		mu := mutation{pts: []nwcq.Point{m.point(b+byte(37*j), a+byte(53*j))}}
		if j%2 == 1 && len(live) > 0 {
			mu = mutation{del: true, pts: []nwcq.Point{live[(int(b)+7*j)%len(live)]}}
		}
		live, _, _ = m.step(live, mu)
		muts, pre = append(muts, mu), append(pre, newVersion(live, 0))
	}
	var done, checks atomic.Int64
	lsns := make([]uint64, len(muts))
	stop := make(chan struct{})
	go func() {
		defer close(stop)
		for j, mu := range muts {
			if _, err := call(m.b, mu); err != nil {
				m.t.Errorf("op %d: mutation %d beside readers: %v", m.at, j, err)
				return
			}
			if m.px != nil {
				lsns[j] = m.px.ReplicationLSNs().Committed
			}
			done.Store(int64(j + 1))
			time.Sleep(time.Millisecond)
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it, stopped := 0, false; !stopped; it++ { // one read after the last mutation too
				select {
				case <-stop:
					stopped = true
				default:
				}
				lo, qi := int(done.Load()), (w+it)%len(modelQueries)
				answers, err := m.read(w, qi, modelSchemes[it%len(modelSchemes)])
				hi := min(int(done.Load())+1, len(muts))
				for _, ok := range answers {
					if err != nil || !slices.ContainsFunc(pre[lo:hi+1], ok) {
						m.t.Errorf("op %d: reader %d, query %d matches no version in [%d, %d] (%v)", m.at, w, qi, lo, hi, err)
						return
					}
				}
				checks.Add(1)
			}
		}()
	}
	wg.Wait()
	<-stop // the writer reports on m.t too
	if m.t.Failed() {
		m.t.FailNow()
	}
	for j, v := range pre[1:] {
		v.lsn = lsns[j]
		m.vers = append(m.vers, v)
	}
	m.live = live
	m.st["readerChecks"] += int(checks.Load())
}

func runModel(t *testing.T, data []byte) modelStats {
	if len(data) < 2 {
		return nil
	}
	cfg := modelBackends[int(data[0])%len(modelBackends)]
	rng := rand.New(rand.NewSource(int64(data[1])))
	m := &model{t: t, router: cfg.shards > 0, par: cfg.par, nextID: 1000, st: modelStats{}}
	for i := range 12 * int(data[1]%4) {
		m.live = append(m.live, nwcq.Point{X: rng.Float64() * 128, Y: rng.Float64() * 128, ID: uint64(i + 1)})
	}
	var err error
	switch {
	case m.router:
		opt := shard.Options{Shards: cfg.shards, Space: nwcq.Rect{MaxX: 128, MaxY: 128}, Parallelism: cfg.par}
		if cfg.dir {
			m.dir = t.TempDir()
			opt.Dir = m.dir
		}
		m.b, err = shard.NewSharded(m.live, opt)
	case cfg.paged:
		m.disk = nwcq.NewMemDisk()
		m.px, err = m.disk.Build(m.live)
		m.b = m.px
	default:
		m.b, err = nwcq.Build(m.live)
	}
	if err != nil {
		t.Fatalf("%s: build: %v", cfg.name, err)
	}
	defer m.release()
	m.push(slices.Clone(m.live))
	for ops := data[2:min(len(data), 2+3*64)]; len(ops) >= 3; ops = ops[3:] {
		m.at++
		switch k, a, b := ops[0]%opCount, ops[1], ops[2]; k {
		case opInsert:
			m.apply(mutation{pts: []nwcq.Point{m.point(a, b)}})
		case opDelete:
			if len(m.live) > 0 {
				m.apply(mutation{del: true, pts: []nwcq.Point{m.live[(int(a)<<8|int(b))%len(m.live)]}})
			}
		case opInsertBatch:
			mu := mutation{}
			for j := 0; j < 2+int(a%4); j++ {
				mu.pts = append(mu.pts, m.point(b+byte(71*j), a*13+byte(29*j)+b))
			}
			m.apply(mu)
		case opDeleteBatch:
			mu, live := mutation{del: true}, slices.Clone(m.live)
			for j := 0; j < 1+int(a%3) && len(live) > 0; j++ {
				i := (int(b) + 7*j) % len(live)
				mu.pts, live = append(mu.pts, live[i]), slices.Delete(live, i, i+1)
			}
			m.apply(mutation{del: true, pts: append(mu.pts, nwcq.Point{X: 0.25, Y: 0.25, ID: 1 << 50})}) // and one absent
		case opNWC, opKNWC, opWindow, opAsOf:
			m.query(k, a, b)
		case opSubscribe:
			m.subscribe(int(a)%len(modelQueries), b&1 == 1)
		case opDrain:
			for _, st := range m.subs {
				m.drain(st)
			}
		case opUnsubscribe:
			if len(m.subs) > 0 {
				i := int(a) % len(m.subs)
				m.subs[i].s.Close()
				m.subs = slices.Delete(m.subs, i, i+1)
			}
		case opCheckpoint:
			if m.px != nil {
				if m.fol != nil && m.fol.st != nil {
					m.fol.leased = true
				}
				if err := m.px.Sync(); err != nil {
					m.crashed(err, nil)
				}
			}
		case opCrash:
			if m.px != nil && a&1 == 0 {
				m.disk.ArmCrash(int(a>>1)<<8 | int(b))
			} else if m.fol != nil {
				m.followerOp(folCrash, b)
			}
		case opReopen:
			switch {
			case a&2 != 0 && m.fol != nil:
				m.reopen(true, a&1 == 0, nil)
			case m.px != nil:
				m.reopen(false, a&1 == 0, nil)
			case m.dir != "":
				m.reopenRouter()
			}
		case opFollower:
			m.followerOp(a, b)
		case opReaders:
			m.readers(a, b)
		}
	}
	m.finish()
	return m.st
}

func (m *model) reopenRouter() {
	m.t.Helper()
	m.closeSubs(false)
	if err := m.b.Close(); err != nil {
		m.fatalf("close: %v", err)
	}
	sh, err := shard.OpenSharded(m.dir, shard.Options{Parallelism: m.par})
	if err != nil {
		m.fatalf("reopen: %v", err)
	}
	if m.b = sh; m.contentsKey(sh) != setKey(m.live) {
		m.fatalf("the reopened router does not hold the %d points it held", len(m.live))
	}
}

// finish drains every subscription, then closes the leader cleanly and
// reopens it: nothing may be replayed after a clean close.
func (m *model) finish() {
	m.t.Helper()
	m.at++
	for _, st := range m.subs {
		m.drain(st)
	}
	open := int64(0)
	for _, st := range m.subs {
		if !st.follower {
			open++
		}
	}
	if st := m.b.SubscriptionStats(); st.EvalErrors != 0 || st.Active != open {
		m.fatalf("%d subscription evaluation errors, %d active, want 0 and %d", st.EvalErrors, st.Active, open)
	}
	if m.px != nil {
		m.reopen(false, true, nil)
	}
	if m.contentsKey(m.b) != setKey(m.live) {
		m.fatalf("the backend does not hold the model's %d points", len(m.live))
	}
}

func (m *model) release() {
	for _, st := range m.subs {
		st.s.Close()
	}
	if m.fol != nil {
		m.fol.px.Close()
	}
	m.b.Close()
}

// draw returns n ops drawn from kinds (a kind listed twice is drawn
// twice as often) with uniform operands.
func draw(seed int64, n int, kinds ...byte) []byte {
	rng := rand.New(rand.NewSource(seed))
	var s []byte
	for i := 0; i < n; i++ {
		s = append(s, kinds[rng.Intn(len(kinds))], byte(rng.Intn(256)), byte(rng.Intn(256)))
	}
	return s
}

var (
	mutateOps    = []byte{opInsert, opInsert, opDelete, opInsertBatch, opDeleteBatch}
	readOps      = []byte{opNWC, opKNWC, opWindow, opSubscribe, opDrain, opDrain}
	subscribeAll = []byte{opSubscribe, 0, 0, opSubscribe, 1, 0, opSubscribe, 2, 0, opSubscribe, 3, 0}
	// The follower's story: attach with two subscriptions of its own, a
	// held stream across a checkpoint, a crash mid-sync, a leader
	// restart, both kinds of follower reopen, a stale follower's reset.
	followerOps = slices.Concat(
		[]byte{opFollower, folAttach, 0, opSubscribe, 0, 1, opSubscribe, 1, 1}, subscribeAll,
		draw(30, 8, mutateOps...), []byte{opFollower, folSync, 0, opDrain, 0, 0, opFollower, folHold, 0, opCheckpoint, 0, 0},
		draw(31, 8, mutateOps...), []byte{opFollower, folSync, 0, opDrain, 0, 0, opAsOf, 7, 7, opFollower, folCrash, 6},
		draw(32, 6, mutateOps...), []byte{opFollower, folSync, 0, opReopen, 1, 0, opSubscribe, 2, 1},
		draw(33, 6, mutateOps...), []byte{opFollower, folSync, 0, opDrain, 0, 0, opReopen, 2, 0, opReopen, 3, 0},
		draw(34, 4, mutateOps...), []byte{opFollower, folAttachStale, 0, opFollower, folSync, 0, opDrain, 0, 0})
)

type modelCase struct {
	name   string
	script []byte
	least  modelStats // what the script must exercise
}

var modelTable = []modelCase{
	{"index", slices.Concat([]byte{0, 2}, subscribeAll, draw(1, 60, slices.Concat(mutateOps, readOps, []byte{opUnsubscribe, opReaders})...)),
		modelStats{"checks": 10, "indexFrames": 10, "readerChecks": 20}},
	{"paged", slices.Concat([]byte{1, 3}, subscribeAll, draw(2, 60, slices.Concat(mutateOps, readOps, []byte{opAsOf, opAsOf, opCheckpoint, opReopen, opReaders})...)),
		modelStats{"checks": 10, "indexFrames": 10, "asOf": 3, "readerChecks": 20, "replayed": 1}},
	{"paged/follower", slices.Concat([]byte{1, 1}, followerOps),
		modelStats{"indexFrames": 10, "followerFrames": 5, "snapshots": 2, "leaseSyncs": 1, "followerChecks": 6, "followerCrashes": 1}},
	{"paged/empty-leader", slices.Concat([]byte{1, 0}, followerOps),
		modelStats{"indexFrames": 10, "followerFrames": 5, "snapshots": 1, "leaseSyncs": 1, "followerChecks": 6, "followerCrashes": 1}},
}

func init() {
	for i, b := range modelBackends[2:] {
		kinds := slices.Concat(mutateOps, readOps)
		modelTable = append(modelTable, modelCase{b.name,
			slices.Concat([]byte{byte(2 + i), 2}, subscribeAll, draw(int64(10+i), 25, kinds...),
				[]byte{opReopen, 0, 0}, subscribeAll, draw(int64(20+i), 25, kinds...)),
			modelStats{"checks": 5, "routerFrames": 5}})
	}
}

func TestModel(t *testing.T) {
	for _, tc := range modelTable {
		t.Run(tc.name, func(t *testing.T) {
			got := runModel(t, tc.script)
			for name, n := range tc.least {
				if got[name] < n {
					t.Errorf("script too tame: %s=%d, want at least %d", name, got[name], n)
				}
			}
		})
	}
}

// TestModelCrashSweep crashes the paged script at every I/O step after
// its opCrash, until a run completes uninjured.
func TestModelCrashSweep(t *testing.T) {
	script := slices.Concat([]byte{1, 3, opCrash, 0, 0, opSubscribe, 0, 0},
		draw(5, 30, slices.Concat(mutateOps, mutateOps, []byte{opNWC, opCheckpoint, opDrain})...),
		[]byte{opReopen, 0, 0, opNWC, 1, 0})
	k := 0
	for ; k < 1<<15; k++ {
		script[3], script[4] = byte(k>>8)<<1, byte(k)
		if runModel(t, script)["crashes"] == 0 {
			break
		}
	}
	if k < 50 || k == 1<<15 {
		t.Fatalf("the script completed uninjured at crash point %d", k)
	}
}

func FuzzModel(f *testing.F) {
	for _, tc := range modelTable {
		f.Add(tc.script)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runModel(t, data) })
}
