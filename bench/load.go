package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"nwcq"
	"nwcq/internal/shard"
)

const (
	// clients is the number of client goroutines, each with its own
	// connection: at most nproc (2) on the machine the bounds were set on.
	clients = 2
	// clientTimeout counts a request as failed.
	clientTimeout = 10 * time.Second
	// slices is the number of equal parts the measured window is cut
	// into; the timings come from the cleanSlices of them in which the
	// machine ran fastest (see speed.go). Dropping a third costs nothing
	// measurable in a calm hour: ten runs spread the same with and without.
	slices      = 12
	cleanSlices = 8
	// oracleSamples is the number of NWC answers kept for the oracle.
	oracleSamples = 100
	// scriptRate sizes a closed-loop client's script, in ops per second
	// of run; a client that exhausts its script starts it again.
	scriptRate = 5000
)

// sample is one completed request. Times are nanoseconds from the start
// of the run; start is the intended send time on an open loop.
type sample struct {
	kind       opKind
	failed     bool
	start, end int64
}

// caller sends scripted ops to one server over one connection and
// checks every answer.
type caller struct {
	hc   *http.Client
	base string
	// do sends the request; the traced pass wraps it in a client span.
	do func(*http.Request) (*http.Response, error)
}

func newCaller(base string) *caller {
	hc := &http.Client{
		Timeout:   clientTimeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
	}
	return &caller{hc: hc, base: base, do: hc.Do}
}

func (c *caller) close() { c.hc.CloseIdleConnections() }

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func queryJSON(b *strings.Builder, c xy) {
	fmt.Fprintf(b, `{"x":%s,"y":%s,"l":%g,"w":%g,"n":%d}`, formatFloat(c.x), formatFloat(c.y), winL, winW, groupN)
}

// request builds the HTTP request for o.
func (c *caller) request(o *op) (*http.Request, error) {
	var b strings.Builder
	switch o.kind {
	case opNWC, opKNWC:
		b.WriteString(c.base)
		if o.kind == opKNWC {
			b.WriteString("/knwc?k=" + strconv.Itoa(knwcK) + "&m=" + strconv.Itoa(knwcM) + "&x=")
		} else {
			b.WriteString("/nwc?x=")
		}
		b.WriteString(formatFloat(o.x))
		b.WriteString("&y=")
		b.WriteString(formatFloat(o.y))
		b.WriteString("&l=" + formatFloat(winL) + "&w=" + formatFloat(winW) + "&n=" + strconv.Itoa(groupN))
		return http.NewRequest(http.MethodGet, b.String(), nil)
	case opBatch:
		b.WriteString(`{"queries":[`)
		for i, q := range o.batch {
			if i > 0 {
				b.WriteByte(',')
			}
			queryJSON(&b, q)
		}
		b.WriteString("]}")
		return http.NewRequest(http.MethodPost, c.base+"/batch/nwc", strings.NewReader(b.String()))
	default:
		fmt.Fprintf(&b, `{"x":%s,"y":%s,"id":%d}`, formatFloat(o.x), formatFloat(o.y), o.id)
		path := "/insert"
		if o.kind == opDelete {
			path = "/delete"
		}
		return http.NewRequest(http.MethodPost, c.base+path, strings.NewReader(b.String()))
	}
}

// call sends o and validates the answer. A transport error, a timeout,
// a status other than 200 and a malformed or invalid answer all fail.
func (c *caller) call(o *op) (*nwcAnswer, error) {
	req, err := c.request(o)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", o.kind, resp.StatusCode, bytes.TrimSpace(body))
	}
	return checkAnswer(o, body)
}

// snapshot is every counter the benchmark reads from outside, at one
// instant.
type snapshot struct {
	at     int64 // nanoseconds from the start of the run
	cpu    time.Duration
	mem    runtime.MemStats
	met    nwcq.MetricsSnapshot
	page   nwcq.PageStats
	router shard.RouterStats
}

// processCPU returns the user and system CPU time of the process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (e *env) snapshot(start time.Time) snapshot {
	s := snapshot{at: int64(time.Since(start)), cpu: processCPU(), met: e.q.Metrics()}
	runtime.ReadMemStats(&s.mem)
	if e.paged != nil {
		s.page = e.paged.PageStats()
	}
	if e.sharded != nil {
		s.router = e.sharded.RouterStats()
	}
	return s
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// load is what one run of the load generator observed.
type load struct {
	samples []sample
	// before and after bracket the measured window.
	before, after snapshot
	// marks are the boundaries of the window's slices, slices+1 of them
	// from before to after; speed[i] is the machine's speed between marks
	// i and i+1, ops[i] the measured ops that finished between them, and
	// clean[i] says slice i is one the timings come from.
	marks     []mark
	speed     []speed
	ops       []float64
	clean     []bool
	peakRSSMB float64
	// oracle holds the NWC answers sampled for the oracle; live and
	// deleted the acknowledged inserts not yet deleted and the
	// acknowledged deletes, for the durability check.
	oracle        []sampled
	live, deleted []nwcq.Point
	firstErr      error
	wrapped       bool
	// Open loop only: how late the scheduler handed each op to the
	// clients (ms), and the longest queue of ops due but not yet sent.
	lateMs     []float64
	backlogMax int
}

// mark is the instant, in nanoseconds from the start of the run, and the
// process's CPU time at one slice boundary.
type mark struct {
	at  int64
	cpu time.Duration
}

// worker is the per-client state the load loops fill in.
type worker struct {
	c       *caller
	samples []sample
	oracle  []sampled
	seen    int
	rng     *rand.Rand
	// live holds the acknowledged inserts not yet deleted, deleted the
	// acknowledged deletes not inserted again since.
	live, deleted map[uint64]nwcq.Point
	err           error
	wrapped       bool
}

// run sends o, records the sample as begun at begin (the intended send
// time on an open loop) and keeps what the checks need.
func (w *worker) run(o *op, start time.Time, begin int64) {
	answer, err := w.c.call(o)
	w.samples = append(w.samples, sample{kind: o.kind, failed: err != nil, start: begin, end: int64(time.Since(start))})
	if err != nil {
		if w.err == nil {
			w.err = err
		}
		return
	}
	switch o.kind {
	case opNWC:
		// Reservoir sampling: every answer of the run is kept with the
		// same probability.
		w.seen++
		s := sampled{q: xy{o.x, o.y}, answer: answer}
		if len(w.oracle) < oracleSamples/clients {
			w.oracle = append(w.oracle, s)
		} else if j := w.rng.Intn(w.seen); j < len(w.oracle) {
			w.oracle[j] = s
		}
	case opInsert:
		w.live[o.id] = nwcq.Point{X: o.x, Y: o.y, ID: o.id}
		delete(w.deleted, o.id)
	case opDelete:
		w.deleted[o.id] = nwcq.Point{X: o.x, Y: o.y, ID: o.id}
		delete(w.live, o.id)
	}
}

// runLoad warms up, then measures for window. scripts holds one script
// per client on a closed loop and a single script on an open loop.
func runLoad(e *env, probe *speedProbe, scripts [][]op, openLoop bool, warm, window time.Duration, seed int64) *load {
	total := int64(warm + window)
	workers := make([]*worker, clients)
	for i := range workers {
		workers[i] = &worker{c: newCaller(e.ln.url), rng: rand.New(rand.NewSource(seed + int64(i))), live: map[uint64]nwcq.Point{}, deleted: map[uint64]nwcq.Point{}}
		defer workers[i].c.close()
	}
	l := &load{}
	var wg sync.WaitGroup
	start := time.Now()

	if openLoop {
		// The scheduler gets a processor of its own: with every processor
		// running a query, nothing runs Go's timers until one of them
		// finishes, and the scheduler would be late by a query's length.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.GOMAXPROCS(0) + 1))
		ops := scripts[0]
		// Sized to the number of sends, so the scheduler never blocks on
		// busy clients and the queue's length is the backlog.
		queue := make(chan int, len(ops))
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(queue)
			for i := range ops {
				due := ops[i].due
				if due >= total {
					return
				}
				time.Sleep(time.Duration(due) - time.Since(start))
				if due >= int64(warm) {
					l.lateMs = append(l.lateMs, float64(int64(time.Since(start))-due)/1e6)
					l.backlogMax = max(l.backlogMax, len(queue))
				}
				queue <- i
			}
			l.wrapped = true // the script ended before the window did
		}()
		for _, w := range workers {
			wg.Add(1)
			go func(w *worker) {
				defer wg.Done()
				for i := range queue {
					w.run(&ops[i], start, ops[i].due)
				}
			}(w)
		}
	} else {
		for i, w := range workers {
			wg.Add(1)
			go func(w *worker, ops []op) {
				defer wg.Done()
				for n := 0; int64(time.Since(start)) < total; n++ {
					if n == len(ops) {
						n = 0
						w.wrapped = true
					}
					w.run(&ops[n], start, int64(time.Since(start)))
				}
			}(w, scripts[i])
		}
	}

	// The coordinator brackets the measured window with snapshots and
	// reads the CPU time at every slice boundary between them.
	time.Sleep(warm)
	l.before = e.snapshot(start)
	l.marks = append(l.marks, mark{l.before.at, l.before.cpu})
	for i := 1; i < slices; i++ {
		time.Sleep(warm + window*time.Duration(i)/slices - time.Since(start))
		l.marks = append(l.marks, mark{int64(time.Since(start)), processCPU()})
	}
	time.Sleep(time.Duration(total) - time.Since(start))
	l.after = e.snapshot(start)
	l.marks = append(l.marks, mark{l.after.at, l.after.cpu})
	l.peakRSSMB = peakRSSMB()
	wg.Wait()
	at := func(ns int64) time.Time { return start.Add(time.Duration(ns)) }
	for i := 0; i < slices; i++ {
		l.speed = append(l.speed, probe.factor(at(l.marks[i].at), at(l.marks[i+1].at)))
	}
	// The clean slices: those with the lowest wall factors.
	order := make([]int, slices)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return l.speed[order[a]].wall < l.speed[order[b]].wall })
	l.clean = make([]bool, slices)
	for _, i := range order[:cleanSlices] {
		l.clean[i] = true
	}

	for _, w := range workers {
		for _, s := range w.samples {
			if s.start >= int64(warm) && s.start < total {
				l.samples = append(l.samples, s)
			}
		}
		l.oracle = append(l.oracle, w.oracle...)
		for _, p := range w.live {
			l.live = append(l.live, p)
		}
		for _, p := range w.deleted {
			l.deleted = append(l.deleted, p)
		}
		if l.firstErr == nil {
			l.firstErr = w.err
		}
		l.wrapped = l.wrapped || w.wrapped
	}
	l.ops = make([]float64, slices)
	for _, s := range l.samples {
		if l.measured(s) {
			l.ops[l.sliceOf(s.end)]++
		}
	}
	return l
}

// sliceOf returns the slice the instant at, in nanoseconds from the
// start of the run, falls in: the first whose closing mark is after it.
func (l *load) sliceOf(at int64) int {
	return min(slices-1, sort.Search(slices, func(i int) bool { return l.marks[i+1].at > at }))
}

// latenciesMs returns the sorted latencies, at reference speed, of the
// successful ops of the given kinds sent in the clean slices.
func (l *load) latenciesMs(kinds ...opKind) []float64 {
	var out []float64
	for _, s := range l.samples {
		i := l.sliceOf(s.start)
		for _, k := range kinds {
			if s.kind == k && !s.failed && l.clean[i] {
				out = append(out, float64(s.end-s.start)/1e6/l.speed[i].wall)
			}
		}
	}
	sort.Float64s(out)
	return out
}

// sliceSpread returns the standard deviation of the p-quantile taken in
// each clean slice alone: how far the window's own parts disagree about
// the value latenciesMs gives for them together.
func (l *load) sliceSpread(p float64, kinds ...opKind) float64 {
	parts := make([][]float64, slices)
	for _, s := range l.samples {
		i := l.sliceOf(s.start)
		for _, k := range kinds {
			if s.kind == k && !s.failed && l.clean[i] {
				parts[i] = append(parts[i], float64(s.end-s.start)/1e6/l.speed[i].wall)
			}
		}
	}
	var qs []float64
	for _, part := range parts {
		if len(part) > 0 {
			sort.Float64s(part)
			qs = append(qs, percentile(part, p))
		}
	}
	return stddev(qs)
}

// measured reports whether s succeeded and finished between the two
// snapshots, the interval the counter deltas cover.
func (l *load) measured(s sample) bool {
	return !s.failed && s.end >= l.before.at && s.end < l.after.at
}

// throughput returns the completion rate over the clean slices, in
// ops/s at reference speed, and the standard deviation of the same rate
// taken in each of them alone.
func (l *load) throughput() (rate, sd float64) {
	var ops, secs float64
	var each []float64
	for i, n := range l.ops {
		if l.clean[i] {
			n, s := n*l.speed[i].wall, float64(l.marks[i+1].at-l.marks[i].at)/1e9
			ops, secs, each = ops+n, secs+s, append(each, n/s)
		}
	}
	return ops / secs, stddev(each)
}

// cpuMsPerOp returns the process CPU time per op finished in the clean
// slices, in ms at reference speed, and the standard deviation of the
// same in each of them that finished any.
func (l *load) cpuMsPerOp() (ms, sd float64) {
	var cpu, ops float64
	var each []float64
	for i, n := range l.ops {
		if l.clean[i] {
			c := float64(l.marks[i+1].cpu-l.marks[i].cpu) / 1e6 / l.speed[i].cpu
			cpu, ops = cpu+c, ops+n
			if n > 0 {
				each = append(each, c/n)
			}
		}
	}
	return cpu / max(1, ops), stddev(each)
}

// completed counts the measured ops of the given kinds (all kinds when
// none is given).
func (l *load) completed(kinds ...opKind) int {
	n := 0
	for _, s := range l.samples {
		if !l.measured(s) {
			continue
		}
		if len(kinds) == 0 {
			n++
		}
		for _, k := range kinds {
			if s.kind == k {
				n++
			}
		}
	}
	return n
}
