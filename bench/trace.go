package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"nwcq"
	"nwcq/internal/server"
	"nwcq/internal/shard"
)

// The traced pass replays the first T ops of the script one at a time
// through three wrappers the benchmark owns: around http.Client.Do
// (client span), around the server's handler (server span) and around
// the backend handed to server.New (backend span). The backend wrapper
// forwards NWC and kNWC to ExplainNWC / ExplainKNWC and turns the
// returned phases and counters into child spans and counts. None of
// this exists while the measured window runs.

// span is one interval of one op at one layer boundary.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a client span, the root of its op
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Aggregate marks an engine phase: phases interleave during the
	// best-first traversal, so the engine reports each one's total and
	// the span is that total laid after the previous phase, not the
	// instants the phase ran.
	Aggregate bool `json:"aggregate,omitempty"`
}

// opTrace is what the traced pass learned about one op.
type opTrace struct {
	kind                 opKind
	client, srv, backend int64 // span durations, ns
	respBytes            int
	phases               map[string]int64 // engine phase → ns
	stats                nwcq.Stats
	counters             nwcq.TraceCounters
	heapHigh, candHigh   int
	explained            bool
	afterMutation        bool // first query after a mutation: pays the IWP rebuild
	router               shard.RouterStats
}

type recorder struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	open   []int // ids of the open spans, innermost last
	ops    []opTrace
	dirty  bool // a mutation ran since the last query
	// routerMs is the mean time a routed query of the pass spent in the
	// router's scatter, border and merge phases; sharded backend only.
	routerMs map[string]float64
}

func newRecorder(n int) *recorder {
	return &recorder{origin: time.Now(), ops: make([]opTrace, 0, n)}
}

func (r *recorder) cur() *opTrace { return &r.ops[len(r.ops)-1] }

func (r *recorder) begin(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := 0
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: len(r.ops) - 1, Name: name, Start: int64(time.Since(r.origin))})
	r.open = append(r.open, id)
	return id
}

// end closes span id and returns its duration.
func (r *recorder) end(id int) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = int64(time.Since(r.origin))
	r.open = r.open[:len(r.open)-1]
	return s.End - s.Start
}

// clientDo is the wrapper around http.Client.Do.
func (r *recorder) clientDo(hc *http.Client) func(*http.Request) (*http.Response, error) {
	return func(req *http.Request) (*http.Response, error) {
		id := r.begin("client")
		resp, err := hc.Do(req)
		r.cur().client = r.end(id)
		return resp, err
	}
}

type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += n
	return n, err
}

// middleware is the wrapper around the server's handler.
func (r *recorder) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id := r.begin("server")
		cw := &countingWriter{ResponseWriter: w}
		next.ServeHTTP(cw, req)
		d := r.end(id)
		r.mu.Lock()
		r.cur().srv, r.cur().respBytes = d, cw.n
		r.mu.Unlock()
	})
}

// explained closes backend span id of a query and records the engine's
// trace as child spans and counts.
func (r *recorder) explained(id int, st nwcq.Stats, qt *nwcq.QueryTrace) {
	d := r.end(id)
	r.mu.Lock()
	defer r.mu.Unlock()
	o := r.cur()
	o.backend, o.stats, o.afterMutation = d, st, r.dirty
	r.dirty = false
	if qt == nil {
		return
	}
	o.explained, o.counters, o.heapHigh, o.candHigh = true, qt.Counters, qt.HeapHighWater, qt.CandidateHighWater
	o.phases = make(map[string]int64, len(qt.Phases))
	at := r.spans[id-1].Start
	for _, p := range qt.Phases {
		// A sharded backend prefixes each phase with the shard that ran it.
		name := p.Phase[strings.LastIndexByte(p.Phase, ':')+1:]
		o.phases[name] += int64(p.Duration)
		r.spans = append(r.spans, span{
			ID: len(r.spans) + 1, Parent: id, Op: len(r.ops) - 1, Name: p.Phase,
			Start: at, End: at + int64(p.Duration), Aggregate: true,
		})
		at += int64(p.Duration)
	}
}

// plain closes the backend span of an op the engine does not explain.
func (r *recorder) plain(id int, mutation bool) {
	d := r.end(id)
	r.mu.Lock()
	r.cur().backend = d
	r.dirty = r.dirty || mutation
	r.mu.Unlock()
}

// tracedQuerier and tracedMutator are the backend wrapper.
type tracedQuerier struct {
	nwcq.Querier
	rec *recorder
}

func (t *tracedQuerier) NWCCtx(ctx context.Context, q nwcq.Query) (nwcq.Result, error) {
	id := t.rec.begin("backend")
	res, qt, err := t.Querier.ExplainNWC(ctx, q)
	t.rec.explained(id, res.Stats, qt)
	return res, err
}

func (t *tracedQuerier) KNWCCtx(ctx context.Context, q nwcq.KQuery) (nwcq.KResult, error) {
	id := t.rec.begin("backend")
	res, qt, err := t.Querier.ExplainKNWC(ctx, q)
	t.rec.explained(id, res.Stats, qt)
	return res, err
}

// NWCBatchCtx keeps the backend's own fan-out over its worker pool, so
// a batch has a backend span but no engine phases.
func (t *tracedQuerier) NWCBatchCtx(ctx context.Context, qs []nwcq.Query, opt nwcq.BatchOptions) ([]nwcq.Result, error) {
	id := t.rec.begin("backend")
	res, err := t.Querier.NWCBatchCtx(ctx, qs, opt)
	t.rec.plain(id, false)
	return res, err
}

type tracedMutator struct {
	nwcq.Mutator
	rec *recorder
}

func (t *tracedMutator) Insert(p nwcq.Point) error {
	id := t.rec.begin("backend")
	err := t.Mutator.Insert(p)
	t.rec.plain(id, true)
	return err
}

func (t *tracedMutator) Delete(p nwcq.Point) (bool, error) {
	id := t.rec.begin("backend")
	ok, err := t.Mutator.Delete(p)
	t.rec.plain(id, true)
	return ok, err
}

// replay sends ops one at a time to base and returns each op's latency
// in ms. Mutations get IDs of their own per pass, and an insert the
// prefix leaves without its delete is deleted at the end, so a pass
// leaves the dataset as it found it. before and after, when set, run
// around each op.
func replay(c *caller, ops []op, pass uint64, before func(*op), after func()) ([]float64, error) {
	ms := make([]float64, 0, len(ops))
	var pending *op
	for i := range ops {
		o := ops[i]
		if o.kind == opInsert || o.kind == opDelete {
			o.id |= pass << 40
		}
		if before != nil {
			before(&o)
		}
		start := time.Now()
		_, err := c.call(&o)
		ms = append(ms, float64(time.Since(start))/1e6)
		if after != nil {
			after()
		}
		if err != nil {
			return ms, fmt.Errorf("replay op %d: %w", i, err)
		}
		switch o.kind {
		case opInsert:
			pending = &o
		case opDelete:
			pending = nil
		}
	}
	if pending != nil {
		pending.kind = opDelete
		if before != nil {
			before(pending)
		}
		if _, err := c.call(pending); err != nil {
			return ms, fmt.Errorf("replay clean-up: %w", err)
		}
	}
	return ms, nil
}

// tracedPass serves e's backend through the wrappers on a listener of
// its own and replays ops through it.
func tracedPass(e *env, ops []op) (*recorder, []float64, error) {
	rec := newRecorder(len(ops))
	app := server.New(&tracedQuerier{e.q, rec}, &tracedMutator{e.m, rec})
	defer app.Close()
	ln, err := listen(rec.middleware(app.Handler()))
	if err != nil {
		return nil, nil, err
	}
	defer ln.stop()
	c := newCaller(ln.url)
	defer c.close()
	c.do = rec.clientDo(c.hc)

	var routerBefore shard.RouterStats
	var phasesBefore map[string]nwcq.RouterPhaseMetrics
	if e.sharded != nil {
		phasesBefore = e.sharded.Metrics().Router.Phases
	}
	before := func(o *op) {
		rec.mu.Lock()
		rec.ops = append(rec.ops, opTrace{kind: o.kind})
		rec.mu.Unlock()
		if e.sharded != nil {
			routerBefore = e.sharded.RouterStats()
		}
	}
	after := func() {
		if e.sharded == nil {
			return
		}
		now := e.sharded.RouterStats()
		rec.cur().router = shard.RouterStats{
			ShardQueries:     now.ShardQueries - routerBefore.ShardQueries,
			ShardsPruned:     now.ShardsPruned - routerBefore.ShardsPruned,
			BorderFetches:    now.BorderFetches - routerBefore.BorderFetches,
			BorderPoints:     now.BorderPoints - routerBefore.BorderPoints,
			FetchReruns:      now.FetchReruns - routerBefore.FetchReruns,
			BoundTightenings: now.BoundTightenings - routerBefore.BoundTightenings,
		}
	}
	ms, err := replay(c, ops, 2, before, after)
	// replay's clean-up delete has spans but is not one of the T ops.
	rec.ops = rec.ops[:min(len(rec.ops), len(ops))]
	if e.sharded != nil {
		rec.routerMs = map[string]float64{}
		for name, now := range e.sharded.Metrics().Router.Phases {
			// The router reports each phase's mean and count; their
			// product is the phase's total.
			was := phasesBefore[name]
			if n := now.Count - was.Count; n > 0 {
				rec.routerMs[name] = (now.LatencyMeanMs*float64(now.Count) - was.LatencyMeanMs*float64(was.Count)) / float64(n)
			}
		}
	}
	return rec, ms[:min(len(ms), len(ops))], err
}

// writeTrace writes the spans of the traced pass as JSON.
func (r *recorder) writeTrace(path, workload string, seed int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, r.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// probes are timings taken on the quiesced backend after the traced
// pass, each of one layer called alone.
type probes struct {
	windowUs, nearestUs float64 // rstar: Window / Nearest at the script's centres
	explainRatio        float64 // ExplainNWC time over NWCCtx time, same queries
	rebuildMs           float64 // first query after a mutation minus the same query repeated
}

// probeBudget caps the explain probe, whose queries take 17 ms each on
// dense-read.
const probeBudget = 1500 * time.Millisecond

func runProbes(e *env, ops []op) (probes, error) {
	var p probes
	var centres []xy
	for _, o := range ops {
		if o.kind == opNWC || o.kind == opKNWC {
			centres = append(centres, xy{o.x, o.y})
		}
	}
	if len(centres) == 0 {
		return p, fmt.Errorf("probes: the traced prefix holds no query")
	}
	var window, nearest time.Duration
	for _, c := range centres {
		start := time.Now()
		if _, err := e.q.Window(c.x-winL/2, c.y-winW/2, c.x+winL/2, c.y+winW/2); err != nil {
			return p, fmt.Errorf("probe window: %w", err)
		}
		mid := time.Now()
		if _, err := e.q.Nearest(c.x, c.y, groupN); err != nil {
			return p, fmt.Errorf("probe nearest: %w", err)
		}
		window += mid.Sub(start)
		nearest += time.Since(mid)
	}
	p.windowUs = float64(window) / 1e3 / float64(len(centres))
	p.nearestUs = float64(nearest) / 1e3 / float64(len(centres))

	query := func(c xy) nwcq.Query {
		return nwcq.Query{X: c.x, Y: c.y, Length: winL, Width: winW, N: groupN}
	}
	ctx := context.Background()
	var plain, explained time.Duration
	began := time.Now()
	for i, c := range centres {
		if i >= 20 && time.Since(began) > probeBudget {
			break
		}
		start := time.Now()
		if _, err := e.q.NWCCtx(ctx, query(c)); err != nil {
			return p, fmt.Errorf("probe nwc: %w", err)
		}
		mid := time.Now()
		if _, _, err := e.q.ExplainNWC(ctx, query(c)); err != nil {
			return p, fmt.Errorf("probe explain: %w", err)
		}
		plain += mid.Sub(start)
		explained += time.Since(mid)
	}
	p.explainRatio = float64(explained) / float64(plain)

	// Both queries of a pair go through ExplainNWC, which bypasses the
	// router's result cache, so their difference is the rebuild alone.
	timed := func(c xy) (float64, error) {
		start := time.Now()
		_, _, err := e.q.ExplainNWC(ctx, query(c))
		return float64(time.Since(start)) / 1e6, err
	}
	var rebuilds []float64
	for i := 0; i < rebuildRounds; i++ {
		c := centres[i%len(centres)]
		pt := nwcq.Point{X: c.x, Y: c.y, ID: mutationIDBase | 3<<40 | uint64(i)}
		for _, mutate := range []func() error{
			func() error { return e.m.Insert(pt) },
			func() error { _, err := e.m.Delete(pt); return err },
		} {
			if err := mutate(); err != nil {
				return p, fmt.Errorf("probe mutation: %w", err)
			}
			first, err := timed(c)
			if err != nil {
				return p, fmt.Errorf("probe rebuild: %w", err)
			}
			again, err := timed(c)
			if err != nil {
				return p, fmt.Errorf("probe rebuild: %w", err)
			}
			rebuilds = append(rebuilds, first-again)
		}
	}
	p.rebuildMs = median(rebuilds)
	return p, nil
}
