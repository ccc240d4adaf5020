package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"nwcq"
	"nwcq/internal/server"
	"nwcq/internal/shard"
)

// Cache sizes of the paged backend: 512 pages is about 9% of the 5 600
// pages a 200k-point tree occupies, so paged-mixed is the one workload
// larger than its cache.
const (
	pageCachePages = 512
	nodeCacheNodes = 512
	shardCount     = 4
	routerCache    = 4096
)

// listener is one loopback HTTP server.
type listener struct {
	srv  *http.Server
	url  string
	done chan error
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &listener{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { l.done <- l.srv.Serve(ln) }()
	return l, nil
}

// stop shuts the server down and waits for Serve to return.
func (l *listener) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := l.srv.Shutdown(ctx)
	if serr := <-l.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// env is one complete set-up: dataset, backend, handler and listener.
type env struct {
	spec    spec
	pts     []nwcq.Point
	q       nwcq.Querier
	m       nwcq.Mutator
	paged   *nwcq.PagedIndex // paged backend only
	sharded *shard.Sharded   // sharded backend only
	path    string           // page file; paged backend only
	app     *server.Server
	ln      *listener
	// setupS covers data generation, build and the listener answering
	// /readyz; buildS is the build call alone.
	setupS, buildS float64
}

func pagedOptions(sd float64) []nwcq.BuildOption {
	return []nwcq.BuildOption{
		nwcq.WithBulkLoad(), nwcq.WithSpace(0, 0, sd, sd),
		nwcq.WithPageCacheSize(pageCachePages), nwcq.WithNodeCacheSize(nodeCacheNodes),
		nwcq.WithWALSync(nwcq.SyncAlways),
	}
}

// setUp builds the workload's backend over freshly generated data and
// serves it, returning once GET /readyz answers 200.
func setUp(s spec, points int, dir string) (e *env, err error) {
	start := time.Now()
	e = &env{spec: s, pts: dataset(s.data, points, s.dataSeed)}
	sd := side(points)
	built := time.Now()
	switch s.backend {
	case backendMemory:
		ix, berr := nwcq.Build(e.pts, nwcq.WithBulkLoad(), nwcq.WithSpace(0, 0, sd, sd))
		if berr != nil {
			return nil, fmt.Errorf("build: %w", berr)
		}
		e.q, e.m = ix, ix
	case backendPaged:
		e.path = filepath.Join(dir, "index.nwcq")
		px, berr := nwcq.BuildPaged(e.pts, e.path, pagedOptions(sd)...)
		if berr != nil {
			return nil, fmt.Errorf("build paged: %w", berr)
		}
		e.q, e.m, e.paged = px, px, px
	case backendSharded:
		sx, berr := shard.NewSharded(e.pts, shard.Options{
			Shards: shardCount, Space: nwcq.Rect{MaxX: sd, MaxY: sd},
			Build: []nwcq.BuildOption{nwcq.WithBulkLoad()}, ResultCache: routerCache,
			// Fixed here because the open loop adds a processor for its
			// scheduler, which the router must not take for a worker.
			Parallelism: runtime.GOMAXPROCS(0),
		})
		if berr != nil {
			return nil, fmt.Errorf("build sharded: %w", berr)
		}
		e.q, e.m, e.sharded = sx, sx, sx
	}
	e.buildS = time.Since(built).Seconds()
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	e.app = server.New(e.q, e.m)
	if e.ln, err = listen(e.app.Handler()); err != nil {
		return nil, err
	}
	hc := &http.Client{Timeout: clientTimeout}
	defer hc.CloseIdleConnections()
	for {
		resp, gerr := hc.Get(e.ln.url + "/readyz")
		if gerr != nil {
			return nil, fmt.Errorf("readyz: %w", gerr)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Since(start) > clientTimeout {
			return nil, fmt.Errorf("readyz: still %d after %v", resp.StatusCode, clientTimeout)
		}
		time.Sleep(time.Millisecond)
	}
	e.setupS = time.Since(start).Seconds()
	return e, nil
}

// close stops the listener and closes the backend (a clean close: the
// paged backend checkpoints).
func (e *env) close() error {
	var first error
	if e.ln != nil {
		e.app.Close()
		first = e.ln.stop()
	}
	if err := e.m.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// diskBytes returns the size of the page file and of the WAL directory.
func (e *env) diskBytes() (pageFile, wal int64, err error) {
	st, err := os.Stat(e.path)
	if err != nil {
		return 0, 0, err
	}
	entries, err := os.ReadDir(e.path + ".wal")
	if err != nil {
		return 0, 0, err
	}
	for _, ent := range entries {
		info, ierr := ent.Info()
		if ierr != nil {
			return 0, 0, ierr
		}
		wal += info.Size()
	}
	return st.Size(), wal, nil
}
