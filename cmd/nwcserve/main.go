// Command nwcserve serves NWC queries over HTTP — the location-based
// service of the paper's motivating scenario.
//
//	nwcgen -dataset ca > ca.csv
//	nwcserve -data ca.csv -addr :8080 -slowlog 100ms
//	nwcserve -data ca.csv -index ca.nwc        # paged, WAL-protected
//	nwcserve -index ca.nwc                     # reopen (crash recovery)
//	nwcserve -data ca.csv -shards 4 -parallelism 4 -result-cache 1024
//	nwcserve -follow http://leader:8080 -index replica.nwc -addr :8081
//
//	curl 'localhost:8080/nwc?x=5000&y=5000&l=50&w=50&n=8'
//	curl 'localhost:8080/nwc?x=5000&y=5000&l=50&w=50&n=8&explain=1'
//	curl 'localhost:8080/knwc?x=5000&y=5000&l=50&w=50&n=8&k=3&m=1'
//	curl 'localhost:8080/stats'
//	curl 'localhost:8080/metrics?format=prometheus'
//	curl -N 'localhost:8080/subscribe?x=5000&y=5000&l=50&w=50&n=8'
//	curl 'localhost:8080/debug/slowlog'
//	curl 'localhost:8080/readyz'
//	go tool pprof 'localhost:8080/debug/pprof/profile?seconds=10'
//
// The listener comes up before the backend opens: /healthz answers 200
// immediately, while /readyz (and every query endpoint) answers 503
// until the index is built or reopened — including any WAL replay — so
// orchestrators and cmd/nwcload can gate on readiness without racing
// crash recovery.
//
// The tree is built by STR bulk loading (nwcbench -insert measures the
// paper's one-by-one insertion build). With -index it lives on disk and
// POST /insert and /delete are crash-safe: each mutation is written
// ahead to <index>.wal/ before it is acknowledged (tune with -wal-sync
// and -wal-sync-interval), and reopening after a crash replays the
// log. SIGINT/SIGTERM shut the
// server down gracefully: in-flight requests get -shutdown-timeout to
// finish, then the index is checkpointed and closed so the next start
// needs no recovery.
//
// Every request is logged through log/slog (text by default, JSON with
// -log-format json); -query-log-sample N additionally emits one
// structured wide-event record per N sampled NWC/kNWC requests (cache
// outcome, engine phases, shard fan-out and the router's
// scatter/border/merge split); profiling endpoints are mounted under
// /debug/pprof/.
//
// With -follow the process is a read replica: it opens (or creates) its
// own paged index at -index, tails the leader's WAL over
// GET /wal/stream, and serves queries only — mutations answer 501.
// /readyz additionally gates on the replica having caught up within
// -max-replica-lag, so load balancers never route to a stale follower.
//
// GET /subscribe registers a standing NWC query and streams its answer
// as Server-Sent Events whenever a mutation may have changed it, with
// Last-Event-ID resume (works on leaders, followers and sharded
// backends; each subscription queues at most 64 frames, and a consumer
// that falls further behind gets a resync frame). With
// -retain-views N, as_of_lsn= on /nwc and /knwc reads the answer as of
// a past LSN from the retained views.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"

	"nwcq"
	"nwcq/internal/datagen"
	"nwcq/internal/repl"
	"nwcq/internal/server"
	"nwcq/internal/shard"
)

func main() {
	var (
		data        = flag.String("data", "", "CSV dataset file (x,y[,id] per line)")
		index       = flag.String("index", "", "page file for a disk-backed index: reopened if it exists (replaying its WAL), else built from -data; with -shards > 1, a directory of per-shard page files")
		shards      = flag.Int("shards", 1, "spatial shards: 1 serves a single index, > 1 a scatter-gather router over a grid partition")
		parallelism = flag.Int("parallelism", 0, "query worker-pool width: scatter fan-out over shards and batch execution (0 = GOMAXPROCS, 1 = sequential)")
		resultCache = flag.Int("result-cache", 0, "query result cache entries per query kind, invalidated by any mutation (0 disables)")
		addr        = flag.String("addr", ":8080", "listen address")
		slowlog     = flag.Duration("slowlog", 0, "slow-query log threshold (0 disables), e.g. 100ms")
		walSync     = flag.String("wal-sync", "always", "WAL fsync policy for -index: always, interval or never")
		walInterval = flag.Duration("wal-sync-interval", 100*time.Millisecond, "background fsync cadence when -wal-sync=interval")
		shutdownTO  = flag.Duration("shutdown-timeout", 10*time.Second, "grace period for in-flight requests on SIGINT/SIGTERM")
		follow      = flag.String("follow", "", "run as a read replica of this leader URL (e.g. http://leader:8080); requires -index, serves reads only")
		maxLag      = flag.Duration("max-replica-lag", 10*time.Second, "with -follow: /readyz answers 503 once the replica lags the leader by more than this (0 disables the gate)")
		retainViews = flag.Int("retain-views", 0, "retain the last N superseded index views for as_of_lsn temporal reads (0 disables; single index only)")
		logFormat   = flag.String("log-format", "text", "access log format: text or json")
		accessLog   = flag.Bool("access-log", true, "log every HTTP request")
		querySample = flag.Int("query-log-sample", 0, "sample 1 in N NWC/kNWC requests into the wide-event query log (0 disables)")
	)
	flag.Parse()
	logger, err := newLogger(*logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nwcserve: %v\n", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)

	opts := []nwcq.BuildOption{nwcq.WithBulkLoad(), nwcq.WithSlowQueryThreshold(*slowlog)}
	if *retainViews > 0 {
		opts = append(opts, nwcq.WithViewRetention(*retainViews))
	}
	switch *walSync {
	case "always":
		opts = append(opts, nwcq.WithWALSync(nwcq.SyncAlways))
	case "interval":
		opts = append(opts, nwcq.WithWALSyncInterval(*walInterval))
	case "never":
		opts = append(opts, nwcq.WithWALSync(nwcq.SyncNever))
	default:
		fmt.Fprintf(os.Stderr, "nwcserve: unknown -wal-sync %q (want always, interval or never)\n", *walSync)
		os.Exit(2)
	}

	// Listen before opening the backend: building or reopening an index
	// (WAL replay in particular) can take a while, and orchestrators
	// probe /healthz and /readyz from the first second. The boot handler
	// answers liveness immediately and 503s everything else; once the
	// backend is open the full handler is swapped in atomically and
	// /readyz flips to 200. cmd/nwcload gates its warmup on exactly that
	// transition.
	health := server.NewHealth()
	var handler atomic.Pointer[http.Handler]
	boot := server.BootHandler(health)
	handler.Store(&boot)
	srv := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			(*handler.Load()).ServeHTTP(w, r)
		}),
		ReadHeaderTimeout: 5 * time.Second,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(logger, err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	logger.Info("listening, opening backend", "addr", *addr)

	srvOpts := []server.Option{server.WithHealth(health)}
	if *querySample > 0 {
		srvOpts = append(srvOpts, server.WithQueryLog(logger, *querySample))
	}
	var (
		qr           nwcq.Querier
		mu           nwcq.Mutator
		closeIndex   func() error
		followerDone chan struct{}
	)
	if *follow != "" {
		px, follower, err := openFollower(logger, *follow, *index, *data, *shards, *maxLag, *parallelism, *resultCache, opts)
		if err != nil {
			fatal(logger, err)
		}
		// Reads only: a nil Mutator makes /insert and /delete answer 501,
		// so the leader's WAL stays the single source of mutations.
		qr, mu, closeIndex = px, nil, px.Close
		followerDone = make(chan struct{})
		go func() {
			defer close(followerDone)
			follower.Run(ctx)
		}()
		srvOpts = append(srvOpts, server.WithReplica(follower.Status))
	} else {
		var err error
		qr, mu, closeIndex, err = openBackend(logger, *data, *index, *shards, *parallelism, *resultCache, opts)
		if err != nil {
			fatal(logger, err)
		}
	}
	api := server.New(qr, mu, srvOpts...)
	mux := http.NewServeMux()
	mux.Handle("/", api.Handler())
	// Profiling endpoints: CPU/heap/goroutine profiles for go tool pprof.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	var full http.Handler = mux
	if *accessLog {
		full = logRequests(logger, full)
	}
	handler.Store(&full)
	health.SetReady(true)
	logger.Info("serving NWC queries", "addr", *addr)

	// Graceful shutdown: the first SIGINT/SIGTERM stops accepting
	// connections and gives in-flight requests -shutdown-timeout to
	// finish; a second signal kills the process the default way.

	select {
	case err := <-errc:
		fatal(logger, err)
	case <-ctx.Done():
		stop()
		logger.Info("shutting down", "grace", *shutdownTO)
		// End the long-lived streams (WAL shipping, SSE subscriptions)
		// first: Shutdown waits for in-flight handlers, and those never
		// finish while their clients stay connected.
		api.Close()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *shutdownTO)
		err := srv.Shutdown(shutdownCtx)
		cancel()
		if err != nil {
			logger.Error("shutdown incomplete", "err", err)
		}
	}
	// The server is drained (or timed out): checkpoint and release the
	// index so the next start opens clean, with no WAL to replay. A
	// follower must stop applying records first, or the replay loop
	// would race the close.
	if followerDone != nil {
		<-followerDone
	}
	if err := closeIndex(); err != nil {
		fatal(logger, err)
	}
	logger.Info("stopped")
}

// openBackend builds or opens the query/mutation backend per the
// flags. With shards > 1 it is a scatter-gather router (in-memory from
// -data, or a directory of per-shard page files when -index is set);
// otherwise a single index as before: paged when indexPath is set
// (reopened if the file exists, built from data otherwise), in-memory
// built from data when it is not. The returned func releases whatever
// was opened.
func openBackend(logger *slog.Logger, data, indexPath string, shards, parallelism, resultCache int, opts []nwcq.BuildOption) (nwcq.Querier, nwcq.Mutator, func() error, error) {
	if shards > 1 {
		// The router owns the scatter width and the (single, top-level)
		// result cache; the per-shard build options deliberately get
		// neither, so shard-local caches never duplicate the router's.
		return openSharded(logger, data, indexPath, shards, parallelism, resultCache, opts)
	}
	opts = append(opts, nwcq.WithParallelism(parallelism), nwcq.WithResultCache(resultCache))
	return openIndex(logger, data, indexPath, opts)
}

// openSharded serves -shards > 1: reopen the shard directory if its
// manifest exists, else build the partition from -data (on disk when
// indexPath names the directory, in memory otherwise).
func openSharded(logger *slog.Logger, data, indexPath string, shards, parallelism, resultCache int, opts []nwcq.BuildOption) (nwcq.Querier, nwcq.Mutator, func() error, error) {
	started := time.Now()
	if indexPath != "" {
		if _, err := os.Stat(filepath.Join(indexPath, "manifest.json")); err == nil {
			sh, err := shard.OpenSharded(indexPath, shard.Options{Build: opts, Parallelism: parallelism, ResultCache: resultCache})
			if err != nil {
				return nil, nil, nil, err
			}
			logger.Info("opened sharded index",
				"dir", indexPath,
				"shards", sh.Shards(),
				"points", sh.Len(),
				"elapsed", time.Since(started).Round(time.Millisecond))
			return sh, sh, sh.Close, nil
		} else if !errors.Is(err, os.ErrNotExist) {
			return nil, nil, nil, err
		}
	}
	if data == "" {
		if indexPath != "" {
			return nil, nil, nil, fmt.Errorf("shard directory %s has no manifest and -data was not given to build it", indexPath)
		}
		return nil, nil, nil, errors.New("-data is required (or -index pointing at an existing shard directory)")
	}
	pts, err := loadPoints(data)
	if err != nil {
		return nil, nil, nil, err
	}
	sh, err := shard.NewSharded(pts, shard.Options{Shards: shards, Dir: indexPath, Build: opts, Parallelism: parallelism, ResultCache: resultCache})
	if err != nil {
		return nil, nil, nil, err
	}
	logger.Info("built sharded index",
		"dir", indexPath,
		"shards", sh.Shards(),
		"points", sh.Len(),
		"elapsed", time.Since(started).Round(time.Millisecond))
	return sh, sh, sh.Close, nil
}

// openIndex is the single-index (shards = 1) path of openBackend. A
// paged index is returned as the *nwcq.PagedIndex itself (not its
// embedded Index) so the server can discover the replication surface —
// GET /wal/stream works only against a WAL-backed index.
func openIndex(logger *slog.Logger, data, indexPath string, opts []nwcq.BuildOption) (nwcq.Querier, nwcq.Mutator, func() error, error) {
	started := time.Now()
	if indexPath != "" {
		if _, err := os.Stat(indexPath); err == nil {
			px, err := nwcq.OpenPaged(indexPath, opts...)
			if err != nil {
				return nil, nil, nil, err
			}
			logger.Info("opened paged index",
				"path", indexPath,
				"points", px.Len(),
				"elapsed", time.Since(started).Round(time.Millisecond),
				"tree_height", px.TreeHeight())
			return px, px, px.Close, nil
		} else if !errors.Is(err, os.ErrNotExist) {
			return nil, nil, nil, err
		}
	}
	if data == "" {
		if indexPath != "" {
			return nil, nil, nil, fmt.Errorf("index file %s does not exist and -data was not given to build it", indexPath)
		}
		return nil, nil, nil, errors.New("-data is required (or -index pointing at an existing index file)")
	}
	pts, err := loadPoints(data)
	if err != nil {
		return nil, nil, nil, err
	}
	if indexPath != "" {
		px, err := nwcq.BuildPaged(pts, indexPath, opts...)
		if err != nil {
			return nil, nil, nil, err
		}
		logger.Info("built paged index",
			"path", indexPath,
			"points", px.Len(),
			"elapsed", time.Since(started).Round(time.Millisecond),
			"tree_height", px.TreeHeight())
		return px, px, px.Close, nil
	}
	idx, err := nwcq.Build(pts, opts...)
	if err != nil {
		return nil, nil, nil, err
	}
	logger.Info("indexed",
		"points", idx.Len(),
		"elapsed", time.Since(started).Round(time.Millisecond),
		"tree_height", idx.TreeHeight())
	return idx, idx, func() error { return nil }, nil
}

// openFollower opens (or creates empty) the follower's local paged
// index and builds the replication client around it.
func openFollower(logger *slog.Logger, leader, indexPath, data string, shards int, maxLag time.Duration, parallelism, resultCache int, opts []nwcq.BuildOption) (*nwcq.PagedIndex, *repl.Follower, error) {
	switch {
	case indexPath == "":
		return nil, nil, errors.New("-follow requires -index: the follower's local page file")
	case shards != 1:
		return nil, nil, errors.New("-follow supports a single index only (drop -shards)")
	case data != "":
		return nil, nil, errors.New("-follow replicates the leader's data; drop -data")
	}
	opts = append(opts, nwcq.WithParallelism(parallelism), nwcq.WithResultCache(resultCache))
	started := time.Now()
	var (
		px  *nwcq.PagedIndex
		err error
	)
	if _, serr := os.Stat(indexPath); serr == nil {
		px, err = nwcq.OpenPaged(indexPath, opts...)
	} else if errors.Is(serr, os.ErrNotExist) {
		px, err = nwcq.BuildPaged(nil, indexPath, opts...)
	} else {
		err = serr
	}
	if err != nil {
		return nil, nil, err
	}
	logger.Info("follower index open",
		"path", indexPath,
		"points", px.Len(),
		"replica_lsn", px.ReplicaLSN(),
		"elapsed", time.Since(started).Round(time.Millisecond))
	follower, err := repl.New(repl.Config{Leader: leader, MaxLag: maxLag, Logger: logger}, px)
	if err != nil {
		px.Close()
		return nil, nil, err
	}
	return px, follower, nil
}

func loadPoints(path string) ([]nwcq.Point, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	pts, err := datagen.LoadCSV(f)
	f.Close()
	return pts, err
}

func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}

// logRequests wraps h with one structured access-log line per request.
// server.StatusWriter preserves http.Flusher, which the streaming
// endpoints (WAL shipping, SSE subscriptions) depend on.
func logRequests(logger *slog.Logger, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := server.NewStatusWriter(w)
		h.ServeHTTP(rec, r)
		logger.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"query", r.URL.RawQuery,
			"status", rec.Status(),
			"duration", time.Since(start).Round(time.Microsecond),
			"remote", r.RemoteAddr)
	})
}

func fatal(logger *slog.Logger, err error) {
	logger.Error("fatal", "err", err)
	os.Exit(1)
}
