package nwcq

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"nwcq/internal/geom"
	"nwcq/internal/wal"
)

// Replication correctness against the same acked-prefix oracle as the
// crash sweep: a follower that has drained the stream must hold exactly
// the leader's acknowledged point set, answer NWC/kNWC identically, and
// survive leader restarts and its own crashes without losing anything
// it acknowledged.

// Mutation script: a deterministic mix of the four mutation entry
// points, with precomputed oracle states.
type scriptOp int

const (
	opInsert scriptOp = iota
	opInsertBatch
	opDelete
	opDeleteBatch
)

type scriptStep struct {
	op  scriptOp
	pts []Point
}

func doStep(px *PagedIndex, s scriptStep) error {
	switch s.op {
	case opInsert:
		return px.Insert(s.pts[0])
	case opInsertBatch:
		return px.InsertBatch(s.pts)
	case opDelete:
		_, err := px.Delete(s.pts[0])
		return err
	default:
		_, err := px.DeleteBatch(s.pts)
		return err
	}
}

// buildCrashScript derives steps and the oracle: states[i] is the point
// set after the first i steps all succeeded.
func buildCrashScript(rng *rand.Rand, base []Point, steps int) ([]scriptStep, []map[Point]bool) {
	alive := append([]Point(nil), base...)
	nextID := uint64(100000)
	newPoint := func() Point {
		p := Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000, ID: nextID}
		nextID++
		return p
	}
	states := make([]map[Point]bool, 0, steps+1)
	snapshot := func() map[Point]bool {
		m := make(map[Point]bool, len(alive))
		for _, p := range alive {
			m[p] = true
		}
		return m
	}
	states = append(states, snapshot())
	script := make([]scriptStep, 0, steps)
	for i := 0; i < steps; i++ {
		var s scriptStep
		switch rng.Intn(4) {
		case 0:
			s = scriptStep{op: opInsert, pts: []Point{newPoint()}}
			alive = append(alive, s.pts[0])
		case 1:
			n := 2 + rng.Intn(5)
			s = scriptStep{op: opInsertBatch}
			for j := 0; j < n; j++ {
				p := newPoint()
				s.pts = append(s.pts, p)
				alive = append(alive, p)
			}
		case 2:
			j := rng.Intn(len(alive))
			s = scriptStep{op: opDelete, pts: []Point{alive[j]}}
			alive = append(alive[:j], alive[j+1:]...)
		default:
			// A batch mixing present and absent points, so replay of the
			// logged (found-only) subset is exercised.
			s = scriptStep{op: opDeleteBatch}
			for j := 0; j < 2 && len(alive) > 0; j++ {
				k := rng.Intn(len(alive))
				s.pts = append(s.pts, alive[k])
				alive = append(alive[:k], alive[k+1:]...)
			}
			s.pts = append(s.pts, Point{X: -1, Y: -1, ID: 999999999})
		}
		script = append(script, s)
		states = append(states, snapshot())
	}
	return script, states
}

// memPaged is one index's backing store: a page file plus a WAL
// directory, both in memory and both surviving an abandoned index the
// way a disk survives a killed process.
type memPaged struct {
	pf  *wal.MemFile
	mfs *wal.MemFS
}

func newMemPaged() *memPaged {
	return &memPaged{pf: wal.NewMemFile(), mfs: wal.NewMemFS()}
}

func (m *memPaged) build(t *testing.T, pts []Point, o buildOptions) *PagedIndex {
	t.Helper()
	px, err := buildPagedOn(pts, m.pf, m.mfs, o)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return px
}

func (m *memPaged) open(t *testing.T, o buildOptions) *PagedIndex {
	t.Helper()
	px, err := openPagedOn(m.pf, m.mfs, o)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return px
}

// syncFollower mirrors the internal/repl follower algorithm against the
// direct API: stream from the follower's position, bootstrapping from a
// snapshot when that history is compacted, until the follower reaches
// the leader's committed LSN.
func syncFollower(t *testing.T, leader, follower *PagedIndex) {
	t.Helper()
	from := follower.ReplicaLSN() + 1
	st, err := leader.StreamFrom(from)
	if errors.Is(err, ErrCompacted) {
		pts, snapLSN, serr := leader.ReplicationSnapshot()
		if serr != nil {
			t.Fatalf("snapshot: %v", serr)
		}
		if follower.Len() > 0 || follower.ReplicaLSN() > 0 {
			if err := follower.ResetForSnapshot(); err != nil {
				t.Fatalf("reset: %v", err)
			}
		}
		if len(pts) == 0 {
			if err := follower.ApplySnapshotChunk(nil, snapLSN); err != nil {
				t.Fatalf("empty snapshot stamp: %v", err)
			}
		}
		const chunk = 7 // small odd chunks exercise the 0-stamp path
		for off := 0; off < len(pts); off += chunk {
			end := min(off+chunk, len(pts))
			stamp := uint64(0)
			if end == len(pts) {
				stamp = snapLSN
			}
			if err := follower.ApplySnapshotChunk(pts[off:end], stamp); err != nil {
				t.Fatalf("snapshot chunk: %v", err)
			}
		}
		st, err = leader.StreamFrom(snapLSN + 1)
	}
	if err != nil {
		t.Fatalf("StreamFrom: %v", err)
	}
	defer st.Close()
	target := leader.ReplicationLSNs().Committed
	for follower.ReplicaLSN() < target {
		rec, err := st.Next()
		if err != nil {
			t.Fatalf("stream Next: %v", err)
		}
		if rec == nil {
			t.Fatalf("stream dried up at replica %d with target %d", follower.ReplicaLSN(), target)
		}
		if err := follower.ApplyReplicated(rec.LSN, rec.Data); err != nil {
			t.Fatalf("apply lsn %d: %v", rec.LSN, err)
		}
	}
}

// assertConverged checks the acceptance oracle: identical point sets
// and identical NWC / kNWC answers at the same LSN.
func assertConverged(t *testing.T, leader, follower *PagedIndex) {
	t.Helper()
	if got, want := follower.ReplicaLSN(), leader.ReplicationLSNs().Committed; got != want {
		t.Fatalf("replica LSN %d, leader committed %d", got, want)
	}
	ls, fs := recoveredSet(t, leader), recoveredSet(t, follower)
	if !setsEqual(ls, fs) {
		t.Fatalf("point sets diverge: leader %d points, follower %d", len(ls), len(fs))
	}
	q := Query{X: 500, Y: 500, Length: 120, Width: 120, N: 3}
	lr, err1 := leader.NWC(q)
	fr, err2 := follower.NWC(q)
	if err1 != nil || err2 != nil {
		t.Fatalf("NWC: leader %v, follower %v", err1, err2)
	}
	if lr.Found != fr.Found || lr.Group.Dist != fr.Group.Dist || len(lr.Group.Objects) != len(fr.Group.Objects) {
		t.Fatalf("NWC answers diverge: leader %+v, follower %+v", lr.Group, fr.Group)
	}
	lk, err1 := leader.KNWC(KQuery{Query: q, K: 3, M: 1})
	fk, err2 := follower.KNWC(KQuery{Query: q, K: 3, M: 1})
	if err1 != nil || err2 != nil {
		t.Fatalf("KNWC: leader %v, follower %v", err1, err2)
	}
	if lk.Found != fk.Found || len(lk.Groups) != len(fk.Groups) {
		t.Fatalf("KNWC answers diverge: %d vs %d groups", len(lk.Groups), len(fk.Groups))
	}
	for i := range lk.Groups {
		if lk.Groups[i].Dist != fk.Groups[i].Dist {
			t.Fatalf("KNWC group %d dist diverges: %g vs %g", i, lk.Groups[i].Dist, fk.Groups[i].Dist)
		}
	}
}

// TestReplicationSurvivesLeaderCheckpoints is the retention bug's
// integration proof: a stream opened at the log's start holds its lease
// while aggressive checkpoints run on the leader, and still delivers
// every committed record.
func TestReplicationSurvivesLeaderCheckpoints(t *testing.T) {
	base := crashBasePoints()
	script, _ := buildCrashScript(rand.New(rand.NewSource(33)), base, 30)
	// Tiny segments and an aggressive checkpoint threshold force many
	// recycle decisions while the stream is pinned at LSN 1.
	o := buildOptions{maxEntries: 8, gridCellSize: 25,
		walSegmentBytes: 1 << 10, walCheckpointBytes: 768}

	leader := newMemPaged().build(t, base, o)
	defer leader.Close()
	follower := newMemPaged().build(t, nil, o)
	defer follower.Close()

	// Bootstrap the follower to the leader's base state first, then pin
	// a stream at the frontier — the lease exists from before the first
	// scripted mutation…
	syncFollower(t, leader, follower)
	st, err := leader.StreamFrom(leader.ReplicationLSNs().Appended + 1)
	if err != nil {
		t.Fatalf("StreamFrom at frontier: %v", err)
	}
	for _, s := range script {
		if err := doStep(leader, s); err != nil {
			t.Fatal(err)
		}
	}
	if leader.dur.checkpoints.Load() == 0 {
		t.Fatal("script did not trigger a checkpoint; retention not exercised")
	}
	// …and every record must still be streamable after the checkpoints.
	target := leader.ReplicationLSNs().Committed
	for follower.ReplicaLSN() < target {
		rec, err := st.Next()
		if err != nil {
			t.Fatalf("stream Next: %v", err)
		}
		if rec == nil {
			t.Fatalf("stream dried up at replica %d with target %d", follower.ReplicaLSN(), target)
		}
		if err := follower.ApplyReplicated(rec.LSN, rec.Data); err != nil {
			t.Fatalf("apply lsn %d: %v", rec.LSN, err)
		}
	}
	st.Close()
	assertConverged(t, leader, follower)

	// With the lease released, the next checkpoint may recycle freely.
	leader.wmu.Lock()
	err = leader.dur.checkpointLocked(leader.cur.Load().tree)
	leader.wmu.Unlock()
	if err != nil {
		t.Fatalf("post-release checkpoint: %v", err)
	}
}

// TestReplicationStreamAbortFiltering pins the settled-fate machine at
// the WAL level: aborted pairs vanish, bare aborts are skipped, and a
// record is held until its fate is decided.
func TestReplicationStreamAbortFiltering(t *testing.T) {
	mfs := wal.NewMemFS()
	l, err := wal.Open(mfs, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	pt := func(id uint64) []byte {
		return encodeMutation(recInsert, []geom.Point{{X: float64(id), Y: float64(id), ID: id}})
	}
	lsn1, _ := l.Append(pt(1))
	lsn2, _ := l.Append(encodeAbort(lsn1))
	lsn3, _ := l.Append(pt(3))
	if err := l.Sync(lsn3); err != nil {
		t.Fatal(err)
	}
	d := &durability{log: l}
	d.settled.Store(lsn3)

	r, err := l.NewReader(1)
	if err != nil {
		t.Fatal(err)
	}
	st := &ReplicationStream{d: d, r: r}
	defer st.Close()
	rec, err := st.Next()
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil || rec.LSN != lsn3 {
		t.Fatalf("first delivered record = %+v, want lsn %d (aborted pair %d/%d filtered)", rec, lsn3, lsn1, lsn2)
	}

	// A record with fate unknown is held even though durable.
	lsn4, _ := l.Append(pt(4))
	if err := l.Sync(lsn4); err != nil {
		t.Fatal(err)
	}
	if rec, err := st.Next(); err != nil || rec != nil {
		t.Fatalf("undecided record leaked: %+v, %v", rec, err)
	}
	// Its abort decides it: the pair disappears.
	lsn5, _ := l.Append(encodeAbort(lsn4))
	if err := l.Sync(lsn5); err != nil {
		t.Fatal(err)
	}
	d.settled.Store(lsn5)
	if rec, err := st.Next(); err != nil || rec != nil {
		t.Fatalf("aborted pair leaked: %+v, %v", rec, err)
	}
	// A published record after the pair flows normally.
	lsn6, _ := l.Append(pt(6))
	if err := l.Sync(lsn6); err != nil {
		t.Fatal(err)
	}
	d.settled.Store(lsn6)
	rec, err = st.Next()
	if err != nil || rec == nil || rec.LSN != lsn6 {
		t.Fatalf("record after aborted pair = %+v, %v, want lsn %d", rec, err, lsn6)
	}
}

// TestFollowerCrashReopenResumes kills the follower two ways — unclean
// (abandoned mid-catch-up, replica position recovered from recApply
// replay) and clean (Close checkpoints the position into the header) —
// and checks it resumes from its own position each time.
func TestFollowerCrashReopenResumes(t *testing.T) {
	base := crashBasePoints()
	script, _ := buildCrashScript(rand.New(rand.NewSource(59)), base, 24)
	o := buildOptions{maxEntries: 8, gridCellSize: 25, walSegmentBytes: 1 << 10}

	leader := newMemPaged().build(t, base, o)
	defer leader.Close()
	fm := newMemPaged()
	follower := fm.build(t, nil, o)

	for _, s := range script[:12] {
		if err := doStep(leader, s); err != nil {
			t.Fatal(err)
		}
	}
	syncFollower(t, leader, follower)
	mid := follower.ReplicaLSN()
	if mid == 0 {
		t.Fatal("no position to resume from")
	}
	// Unclean death: abandon without Close, reopen from surviving bytes.
	follower = fm.open(t, o)
	if got := follower.ReplicaLSN(); got != mid {
		t.Fatalf("replica LSN after unclean reopen = %d, want %d", got, mid)
	}
	assertConverged(t, leader, follower)

	for _, s := range script[12:] {
		if err := doStep(leader, s); err != nil {
			t.Fatal(err)
		}
	}
	syncFollower(t, leader, follower)
	final := follower.ReplicaLSN()

	// Clean death: Close checkpoints, reopen must replay nothing and
	// still know its position (now from the page-file header alone).
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	follower = fm.open(t, o)
	defer follower.Close()
	if follower.dur.replayed != 0 {
		t.Fatalf("%d records replayed after clean close", follower.dur.replayed)
	}
	if got := follower.ReplicaLSN(); got != final {
		t.Fatalf("replica LSN after clean reopen = %d, want %d", got, final)
	}
	assertConverged(t, leader, follower)
}

// TestLeaderRestartMidStream kills and reopens the leader between two
// catch-up rounds: the follower's acked prefix must still be exactly a
// prefix of the restarted leader's history, and convergence must
// complete.
func TestLeaderRestartMidStream(t *testing.T) {
	base := crashBasePoints()
	script, _ := buildCrashScript(rand.New(rand.NewSource(71)), base, 24)
	o := buildOptions{maxEntries: 8, gridCellSize: 25, walSegmentBytes: 1 << 10}

	lm := newMemPaged()
	leader := lm.build(t, base, o)
	follower := newMemPaged().build(t, nil, o)
	defer follower.Close()

	for _, s := range script[:12] {
		if err := doStep(leader, s); err != nil {
			t.Fatal(err)
		}
	}
	syncFollower(t, leader, follower)
	assertConverged(t, leader, follower)

	// Kill the leader: abandoned, never closed. Every record the
	// follower applied was durable (SyncAlways), so the restarted leader
	// must still cover the follower's position.
	leader = lm.open(t, o)
	defer leader.Close()
	if lc := leader.ReplicationLSNs().Committed; lc < follower.ReplicaLSN() {
		t.Fatalf("restarted leader committed %d below follower position %d: follower applied non-durable records",
			lc, follower.ReplicaLSN())
	}
	syncFollower(t, leader, follower)
	assertConverged(t, leader, follower)

	for _, s := range script[12:] {
		if err := doStep(leader, s); err != nil {
			t.Fatal(err)
		}
	}
	syncFollower(t, leader, follower)
	assertConverged(t, leader, follower)
}

// TestCloseSurfacesWALPoisonAndReleasesPages is the Close-ordering
// fix: with the append path poisoned, Close must surface the sticky WAL
// error exactly once, skip the (impossible) final checkpoint, and still
// hand the deferred retired pages back so the in-process tree is not
// leaked.
func TestCloseSurfacesWALPoisonAndReleasesPages(t *testing.T) {
	base := crashBasePoints()
	o := buildOptions{maxEntries: 8, gridCellSize: 25, walSegmentBytes: 1 << 10}
	inj := &crashInjector{}
	pf := wal.NewMemFile()
	mfs := wal.NewMemFS()
	px, err := buildPagedOn(base, pf, &crashFS{fs: mfs, inj: inj}, o)
	if err != nil {
		t.Fatal(err)
	}
	// Mutations park retired pages in pending until the next durable
	// checkpoint.
	for i := 0; i < 8; i++ {
		if err := px.Insert(Point{X: float64(i), Y: float64(i), ID: uint64(900000 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	if len(px.dur.pending) == 0 {
		t.Fatal("no pending retired pages; the release path is not exercised")
	}
	// Poison the WAL: the next append (and everything after) fails.
	inj.arm(0)
	if err := px.Insert(Point{X: 1, Y: 1, ID: 999999}); err == nil {
		t.Fatal("mutation succeeded with a dead WAL")
	}
	if err := px.Insert(Point{X: 2, Y: 2, ID: 999998}); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("poisoned index accepted a mutation: %v", err)
	}
	err = px.Close()
	if err == nil || !strings.Contains(err.Error(), "write-ahead log failed") {
		t.Fatalf("Close = %v, want the sticky WAL failure", err)
	}
	if n := strings.Count(err.Error(), "injected crash"); n != 1 {
		t.Fatalf("sticky error surfaced %d times in %q, want once", n, err)
	}
	if len(px.dur.pending) != 0 {
		t.Fatalf("%d retired pages still pending after Close", len(px.dur.pending))
	}
	if err := px.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
	// The poisoned tail stays frozen: recovery from the surviving bytes
	// still works and holds only acknowledged state.
	rec, err := openPagedOn(pf, mfs, o)
	if err != nil {
		t.Fatalf("recovery after poisoned close: %v", err)
	}
	defer rec.Close()
	got := recoveredSet(t, rec)
	if got[Point{X: 1, Y: 1, ID: 999999}] {
		t.Fatal("unacknowledged mutation recovered")
	}
}
