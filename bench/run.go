package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"nwcq"
)

const (
	// warmUp is the load sent before the measured window; outDir holds
	// result files, traces and temporary index files, beside the sources.
	warmUp = 3 * time.Second
	outDir = "out"
	// setupRuns, recoveryRuns: a time of a fifth of a second is reported
	// as the median of this many repetitions. The set-ups take three to
	// five seconds together, so a stall of the machine shorter than that
	// moves a minority of them.
	setupRuns    = 21
	recoveryRuns = 3
	// An open-loop workload spends one part in capacityShare of its
	// window on the closed loop that measures its capacity. A few queries
	// in a hundred cost a hundred times the median there, so a fifth of
	// the window spread by 16% between ten seeds.
	capacityShare = 2
	// rebuildRounds is the number of insert/delete pairs the IWP rebuild
	// probe times; each gives two samples.
	rebuildRounds = 3
	// pointBytes is the size of one nwcq.Point in the dataset slice.
	pointBytes = 24
)

// config is one run of one workload. The program sets only workload,
// seed, window and trace from its flags; warm, points, traceOps and
// outDir are fields so that the test can run at toy scale.
type config struct {
	workload     string
	seed         int64
	warm, window time.Duration
	points       int
	// traceOps overrides the workload's T when positive.
	traceOps int
	trace    bool
	outDir   string
}

// runWorkload sets the workload up, measures it, checks its answers
// and, when asked, runs the traced pass.
func runWorkload(cfg config) (res *result, err error) {
	s, ok := specByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.outDir, "tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	res = &result{Workload: s.name, Traced: cfg.trace, Metrics: map[string]value{}}

	probe := startSpeedProbe()
	defer probe.close()
	var base runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&base)

	// Set up several times and keep the last: one set-up takes a fifth
	// of a second, too short to report from a single sample.
	var e *env
	var setupS, buildS []float64
	for i := 0; i < setupRuns; i++ {
		dir := filepath.Join(tmp, fmt.Sprintf("setup-%d", i))
		if e != nil {
			if err := e.close(); err != nil {
				return nil, fmt.Errorf("close set-up %d: %w", i-1, err)
			}
			e = nil
			debug.FreeOSMemory()
			if err := os.RemoveAll(filepath.Join(tmp, fmt.Sprintf("setup-%d", i-1))); err != nil {
				return nil, err
			}
		}
		if err := os.Mkdir(dir, 0o755); err != nil {
			return nil, err
		}
		began := time.Now()
		if e, err = setUp(s, cfg.points, dir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS, buildS = append(setupS, e.setupS/probe.factor(began, time.Now()).wall), append(buildS, e.buildS)
	}
	closed := false
	defer func() {
		if !closed {
			if cerr := e.close(); err == nil {
				err = cerr
			}
		}
	}()
	res.setN("setup_s", median(setupS), len(setupS), stddev(setupS))
	res.set("index.build_s", median(buildS))
	var built runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&built)
	res.set("index.heap_bytes_per_point",
		(float64(built.HeapAlloc)-float64(base.HeapAlloc)-float64(pointBytes*len(e.pts)))/float64(len(e.pts)))
	if in, ok := e.q.(nwcq.Introspector); ok {
		gridB, iwpB := in.StorageOverheadBytes()
		res.set("grid.bytes", float64(gridB))
		res.set("iwp.bytes_per_point", float64(iwpB)/float64(len(e.pts)))
	}

	// The script is drawn from the seed; the data is not. An open loop
	// spends the last part of the window on a closed loop over two further
	// scripts, which measures the capacity its fixed rate is a share of.
	// loop is how long the closed loop's scripts have to last.
	var scripts [][]op
	open, capacity, loop := cfg.window, time.Duration(0), cfg.warm+cfg.window
	if s.openRate > 0 {
		capacity = cfg.window / capacityShare
		open, loop = open-capacity, capacity
		scripts = [][]op{s.script(cfg.seed, 0, int(s.openRate*(cfg.warm+open).Seconds()*1.25)+100, e.pts)}
	}
	for c := 0; c < clients; c++ {
		scripts = append(scripts, s.script(cfg.seed, len(scripts), max(1000, int(scriptRate*loop.Seconds())), e.pts))
	}
	res.DatasetSHA256, res.ScriptSHA256 = hashPoints(e.pts), hashScripts(scripts)

	runtime.GC()
	// l is the measured window; cl the closed loop throughput comes from.
	var l, cl *load
	var parts []*load
	if s.openRate > 0 {
		l = runLoad(e, probe, scripts[:1], true, cfg.warm, open, cfg.seed)
		cl = runLoad(e, probe, scripts[1:], false, 0, capacity, cfg.seed)
		parts = []*load{l, cl}
	} else {
		l = runLoad(e, probe, scripts, false, cfg.warm, cfg.window, cfg.seed)
		cl, parts = l, []*load{l}
	}
	for _, part := range parts {
		res.ScriptWrapped = res.ScriptWrapped || part.wrapped
		if part.firstErr != nil && res.FirstError == "" {
			res.FirstError = part.firstErr.Error()
		}
		res.Attempted += len(part.samples)
		for _, sm := range part.samples {
			if sm.failed {
				res.Failed++
			}
		}
	}
	if len(l.samples) == 0 || len(cl.samples) == 0 {
		return nil, fmt.Errorf("no op started in the measured window")
	}
	rate, sd := cl.throughput()
	res.setN("throughput_ops_s", rate, cleanSlices, sd)
	windowMetrics(res, e, l)

	// Checks, on the quiesced backend.
	if e.paged != nil {
		rc, rerr := recoverCopies(e, tmp, l.live, l.deleted)
		if rerr != nil {
			return nil, rerr
		}
		res.LostAcked = rc.lost
		res.set("recovery_s", rc.seconds)
		res.set("wal.records_replayed", float64(rc.replayed))
		// An insert the window's end left without its delete would make
		// the oracle see a point the sampled answers did not.
		for _, p := range l.live {
			if _, derr := e.m.Delete(p); derr != nil {
				return nil, fmt.Errorf("delete leftover insert: %w", derr)
			}
		}
	}
	if res.OracleChecked, res.OracleWrong, res.OracleSkipped, err = oracleCheck(e.q, l.oracle); err != nil {
		return nil, err
	}
	res.set("failed_share", float64(res.Failed+res.LostAcked)/float64(res.Attempted))
	if res.OracleChecked > 0 {
		res.setN("wrong_share", float64(res.OracleWrong)/float64(res.OracleChecked), res.OracleChecked, 0)
	}
	res.Correct = res.Failed == 0 && res.LostAcked == 0 && res.OracleWrong == 0 && res.OracleChecked > 0

	if cfg.trace {
		t := s.traceOps
		if cfg.traceOps > 0 {
			t = cfg.traceOps
		}
		prefix := scripts[0][:min(t, len(scripts[0]))]
		if err := tracedMetrics(res, e, prefix, filepath.Join(cfg.outDir, s.name+".trace.json"), cfg.seed); err != nil {
			return nil, err
		}
	}

	points := float64(len(e.pts))
	closed = true
	if err := e.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	if e.paged != nil {
		pageFile, wal, derr := e.diskBytes()
		if derr != nil {
			return nil, derr
		}
		res.set("disk_bytes_per_point", float64(pageFile+wal)/points)
		res.set("pager.file_bytes_per_point", float64(pageFile)/points)
	}
	return res, nil
}

// windowMetrics derives every metric that comes from the measured
// window: the latency samples and the counter deltas around it.
func windowMetrics(res *result, e *env, l *load) {
	ops := float64(max(1, l.completed()))
	secs := float64(l.after.at-l.before.at) / 1e9
	ms, sd := l.cpuMsPerOp()
	res.setN("cpu_ms_per_op", ms, cleanSlices, sd)
	var wall, stretch []float64
	for i, sp := range l.speed {
		if l.clean[i] {
			wall, stretch = append(wall, sp.wall), append(stretch, sp.wall/sp.cpu)
		}
	}
	res.set("loadgen.speed_factor", mean(wall))
	res.set("loadgen.steal_stretch", mean(stretch))
	res.set("peak_rss_mb", l.peakRSSMB)
	for _, p := range []struct {
		name  string
		p     float64
		kinds []opKind
	}{
		{"nwc_p50_ms", 0.50, []opKind{opNWC}}, {"nwc_p99_ms", 0.99, []opKind{opNWC}},
		{"knwc_p50_ms", 0.50, []opKind{opKNWC}}, {"knwc_p95_ms", 0.95, []opKind{opKNWC}},
		{"batch_p50_ms", 0.50, []opKind{opBatch}},
		{"mutate_p50_ms", 0.50, []opKind{opInsert, opDelete}}, {"mutate_p95_ms", 0.95, []opKind{opInsert, opDelete}},
	} {
		if lat := l.latenciesMs(p.kinds...); len(lat) > 0 {
			res.setN(p.name, percentile(lat, p.p), len(lat), l.sliceSpread(p.p, p.kinds...))
		}
	}

	a, b := &l.before, &l.after
	res.set("runtime.alloc_bytes_per_op", float64(b.mem.TotalAlloc-a.mem.TotalAlloc)/ops)
	res.set("runtime.mallocs_per_op", float64(b.mem.Mallocs-a.mem.Mallocs)/ops)
	res.set("runtime.gc_cycles_per_s", float64(b.mem.NumGC-a.mem.NumGC)/secs)
	res.set("runtime.gc_pause_ms_total", float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs)/1e6)

	mutations := float64(l.completed(opInsert, opDelete))
	if mutations > 0 {
		res.set("index.iwp_rebuilds_per_mutation", float64(b.met.IWPRebuilds-a.met.IWPRebuilds)/mutations)
	} else {
		// No mutation, so any rebuild at all is reported as it is.
		res.set("index.iwp_rebuilds_per_mutation", float64(b.met.IWPRebuilds-a.met.IWPRebuilds))
	}
	if e.paged != nil {
		reads, hits, misses := b.page.Reads-a.page.Reads, b.page.CacheHits-a.page.CacheHits, b.page.CacheMisses-a.page.CacheMisses
		res.set("pager.reads_per_op", float64(reads)/ops)
		res.set("pager.hit_rate", float64(hits)/float64(max(1, hits+misses)))
		res.set("pager.evictions_per_op", float64(b.page.Evictions-a.page.Evictions)/ops)
		res.set("pager.syncs", float64(b.page.Syncs-a.page.Syncs))
		wa, wb := a.met.WAL, b.met.WAL
		res.set("wal.checkpoints", float64(wb.Checkpoints-wa.Checkpoints))
		res.set("wal.rotations", float64(wb.Rotations-wa.Rotations))
		if mutations > 0 {
			res.set("pager.writes_per_mutation", float64(b.page.Writes-a.page.Writes)/mutations)
			res.set("wal.fsyncs_per_mutation", float64(wb.Fsyncs-wa.Fsyncs)/mutations)
			res.set("wal.append_bytes_per_mutation", float64(wb.AppendBytes-wa.AppendBytes)/mutations)
		}
	}
	if ca, cb := a.met.ResultCache, b.met.ResultCache; ca != nil && cb != nil {
		hits, misses := cb.Hits-ca.Hits, cb.Misses-ca.Misses
		res.set("qcache.hit_rate", float64(hits)/float64(max(1, hits+misses)))
		res.set("qcache.coalesced_per_op", float64(cb.Coalesced-ca.Coalesced)/ops)
	}
	if e.spec.openRate > 0 {
		late := append([]float64(nil), l.lateMs...)
		sort.Float64s(late)
		res.setN("loadgen.late_p50_ms", percentile(late, 0.50), len(late), 0)
		res.setN("loadgen.late_p99_ms", percentile(late, 0.99), len(late), 0)
		res.set("loadgen.backlog_max", float64(l.backlogMax))
		res.set("loadgen.achieved_rate_ops_s", float64(len(late))/secs)
	}
}

// tracedMetrics replays prefix untraced, then traced, runs the probes
// and derives every metric that comes from them. A layer's self time is
// its span minus its child's: the spans of one op nest strictly.
func tracedMetrics(res *result, e *env, prefix []op, tracePath string, seed int64) error {
	c := newCaller(e.ln.url)
	untraced, err := replay(c, prefix, 1, nil, nil)
	c.close()
	if err != nil {
		return fmt.Errorf("untraced %w", err)
	}
	rec, traced, err := tracedPass(e, prefix)
	if err != nil {
		return fmt.Errorf("traced %w", err)
	}
	if err := rec.writeTrace(tracePath, res.Workload, seed); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	res.setN("loadgen.trace_overhead_ratio", mean(traced)/mean(untraced), len(traced), 0)

	// over collects f over the ops that pass keep and sets name to its mean.
	over := func(name string, spread bool, keep func(*opTrace) bool, f func(*opTrace) float64) {
		var vals []float64
		for i := range rec.ops {
			if o := &rec.ops[i]; keep(o) {
				vals = append(vals, f(o))
			}
		}
		if len(vals) == 0 {
			return
		}
		sd := 0.0
		if spread {
			sd = stddev(vals)
		}
		res.setN(name, mean(vals), len(vals), sd)
	}
	all := func(*opTrace) bool { return true }
	query := func(o *opTrace) bool { return o.explained }
	kind := func(k opKind, settled bool) func(*opTrace) bool {
		return func(o *opTrace) bool { return o.kind == k && !(settled && o.afterMutation) }
	}
	over("nethttp.self_us", false, all, func(o *opTrace) float64 { return float64(o.client-o.srv) / 1e3 })
	over("server.self_us", false, all, func(o *opTrace) float64 { return float64(o.srv-o.backend) / 1e3 })
	over("server.resp_bytes_per_op", false, all, func(o *opTrace) float64 { return float64(o.respBytes) })
	backendUs := func(o *opTrace) float64 { return float64(o.backend) / 1e3 }
	// The first query after a mutation also rebuilds the IWP index;
	// iwp.rebuild_ms reports that, so the query times leave it out.
	over("index.nwc_us", false, kind(opNWC, true), backendUs)
	over("index.knwc_us", false, kind(opKNWC, true), backendUs)
	over("index.insert_us", false, kind(opInsert, false), backendUs)
	over("index.delete_us", false, kind(opDelete, false), backendUs)
	for name, phase := range map[string]string{
		"core.descent_us": "descent", "core.srr_us": "srr", "core.window_enum_us": "window-enum",
		"core.verify_us": "verify", "core.knwc_dedup_us": "knwc-dedup",
	} {
		over(name, false, query, func(o *opTrace) float64 { return float64(o.phases[phase]) / 1e3 })
	}
	for name, f := range map[string]func(*opTrace) float64{
		"core.objects_processed_per_op":  func(o *opTrace) float64 { return float64(o.stats.ObjectsProcessed) },
		"core.objects_skipped_per_op":    func(o *opTrace) float64 { return float64(o.stats.ObjectsSkipped) },
		"core.nodes_pruned_per_op":       func(o *opTrace) float64 { return float64(o.stats.NodesPruned) },
		"core.window_queries_per_op":     func(o *opTrace) float64 { return float64(o.counters.WindowQueries) },
		"core.candidate_windows_per_op":  func(o *opTrace) float64 { return float64(o.counters.CandidateWindows) },
		"core.qualified_windows_per_op":  func(o *opTrace) float64 { return float64(o.counters.QualifiedWindows) },
		"core.groups_emitted_per_op":     func(o *opTrace) float64 { return float64(o.counters.GroupsEmitted) },
		"core.candidate_high_water_mean": func(o *opTrace) float64 { return float64(o.candHigh) },
		"core.heap_high_water_mean":      func(o *opTrace) float64 { return float64(o.heapHigh) },
		"rstar.node_visits_per_op":       func(o *opTrace) float64 { return float64(o.stats.NodeVisits) },
		"iwp.jump_starts_per_op":         func(o *opTrace) float64 { return float64(o.counters.IWPJumpStarts) },
		"iwp.root_starts_per_op":         func(o *opTrace) float64 { return float64(o.counters.IWPRootStarts) },
		"iwp.overlap_scans_per_op":       func(o *opTrace) float64 { return float64(o.counters.IWPOverlapScans) },
		"grid.probes_per_op":             func(o *opTrace) float64 { return float64(o.stats.GridProbes) },
	} {
		over(name, false, query, f)
	}
	var emitted, qualified int64
	for i := range rec.ops {
		emitted += rec.ops[i].counters.GroupsEmitted
		qualified += rec.ops[i].counters.QualifiedWindows
	}
	if qualified > 0 {
		res.set("core.emitted_per_qualified", float64(emitted)/float64(qualified))
	}
	if e.sharded != nil {
		// The parallel scatter shares its bound by timing, so these
		// counts carry their spread across the pass's queries.
		for name, f := range map[string]func(*opTrace) float64{
			"shard.shard_queries_per_op":     func(o *opTrace) float64 { return float64(o.router.ShardQueries) },
			"shard.pruned_per_op":            func(o *opTrace) float64 { return float64(o.router.ShardsPruned) },
			"shard.border_fetches_per_op":    func(o *opTrace) float64 { return float64(o.router.BorderFetches) },
			"shard.border_points_per_op":     func(o *opTrace) float64 { return float64(o.router.BorderPoints) },
			"shard.bound_tightenings_per_op": func(o *opTrace) float64 { return float64(o.router.BoundTightenings) },
			"shard.fetch_reruns_per_op":      func(o *opTrace) float64 { return float64(o.router.FetchReruns) },
		} {
			over(name, true, query, f)
		}
		for phase, ms := range rec.routerMs {
			res.set("shard."+phase+"_ms_mean", ms)
		}
	}

	p, err := runProbes(e, prefix)
	if err != nil {
		return err
	}
	res.set("rstar.window_us", p.windowUs)
	res.set("rstar.nearest_us", p.nearestUs)
	res.set("index.explain_overhead_ratio", p.explainRatio)
	res.set("iwp.rebuild_ms", p.rebuildMs)
	return nil
}

// driverLine renders the last line of output the driver reads: the
// end-to-end metrics BENCHMARK.json lists, or with trace every metric
// it lists per layer, 0 standing for one with no meaning here.
func (r *result) driverLine(trace bool) string {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed + r.LostAcked, map[string]metric{}}
	for _, d := range registry {
		if d.driver != trace {
			line.Metrics[d.name] = metric{r.Metrics[d.name].Value, d.unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		panic(err) // only a non-finite value can fail, and none is computed
	}
	return string(data)
}
