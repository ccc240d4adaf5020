package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"nwcq"
)

// The handler's ruler (ROADMAP 2a): each benchmark runs the same queries
// through Server.Handler().ServeHTTP into a discarding writer ("handler")
// and through the bare Querier call ("querier") on one index, so the
// difference is what the HTTP layer costs before net/http reads a byte.

// discardWriter is a ResponseWriter that counts what it is handed.
type discardWriter struct {
	header http.Header
	bytes  int
	failed int
}

func (d *discardWriter) Header() http.Header { return d.header }
func (d *discardWriter) WriteHeader(code int) {
	if code >= 400 {
		d.failed = code
	}
}
func (d *discardWriter) Write(p []byte) (int, error) {
	d.bytes += len(p)
	return len(p), nil
}

const benchQueries = 64

func benchIndex(b *testing.B) (*nwcq.Index, []nwcq.KQuery) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	pts := make([]nwcq.Point, 20000)
	for i := range pts {
		pts[i] = nwcq.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000, ID: uint64(i + 1)}
	}
	idx, err := nwcq.Build(pts, nwcq.WithBulkLoad())
	if err != nil {
		b.Fatal(err)
	}
	qs := make([]nwcq.KQuery, benchQueries)
	for i := range qs {
		qs[i] = nwcq.KQuery{
			Query: nwcq.Query{X: 100 + rng.Float64()*800, Y: 100 + rng.Float64()*800, Length: 40, Width: 40, N: 8},
			K:     3, M: 1,
		}
	}
	return idx, qs
}

// benchHandler serves reqs round-robin and reports response bytes per op.
func benchHandler(b *testing.B, h http.Handler, reqs []*http.Request, bodies []string) {
	b.Helper()
	w := &discardWriter{header: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := reqs[i%len(reqs)]
		if bodies != nil {
			r.Body = io.NopCloser(strings.NewReader(bodies[i%len(reqs)]))
		}
		h.ServeHTTP(w, r)
	}
	if w.failed != 0 {
		b.Fatalf("a request was answered with status %d", w.failed)
	}
	b.ReportMetric(float64(w.bytes)/float64(b.N), "resp-B/op")
}

func BenchmarkHandlerNWC(b *testing.B) {
	idx, qs := benchIndex(b)
	b.Run("handler", func(b *testing.B) {
		reqs := make([]*http.Request, len(qs))
		for i, q := range qs {
			reqs[i] = httptest.NewRequest("GET", fmt.Sprintf("/nwc?x=%g&y=%g&l=%g&w=%g&n=%d", q.X, q.Y, q.Length, q.Width, q.N), nil)
		}
		benchHandler(b, New(idx, nil).Handler(), reqs, nil)
	})
	b.Run("querier", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := idx.NWCCtx(context.Background(), qs[i%len(qs)].Query); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkHandlerKNWC(b *testing.B) {
	idx, qs := benchIndex(b)
	b.Run("handler", func(b *testing.B) {
		reqs := make([]*http.Request, len(qs))
		for i, q := range qs {
			reqs[i] = httptest.NewRequest("GET", fmt.Sprintf("/knwc?x=%g&y=%g&l=%g&w=%g&n=%d&k=%d&m=%d", q.X, q.Y, q.Length, q.Width, q.N, q.K, q.M), nil)
		}
		benchHandler(b, New(idx, nil).Handler(), reqs, nil)
	})
	b.Run("querier", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := idx.KNWCCtx(context.Background(), qs[i%len(qs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHandlerBatch8 is one POST /batch/nwc of eight queries beside
// one NWCBatchCtx of the same eight, both at parallelism 1.
func BenchmarkHandlerBatch8(b *testing.B) {
	idx, qs := benchIndex(b)
	const per = 8
	b.Run("handler", func(b *testing.B) {
		reqs := make([]*http.Request, len(qs)/per)
		bodies := make([]string, len(reqs))
		for i := range reqs {
			var body bytes.Buffer
			body.WriteString(`{"parallelism":1,"queries":[`)
			for j, q := range qs[i*per : (i+1)*per] {
				if j > 0 {
					body.WriteByte(',')
				}
				fmt.Fprintf(&body, `{"x":%g,"y":%g,"l":%g,"w":%g,"n":%d}`, q.X, q.Y, q.Length, q.Width, q.N)
			}
			body.WriteString("]}")
			bodies[i] = body.String()
			reqs[i] = httptest.NewRequest("POST", "/batch/nwc", nil)
		}
		benchHandler(b, New(idx, nil).Handler(), reqs, bodies)
	})
	b.Run("querier", func(b *testing.B) {
		batches := make([][]nwcq.Query, len(qs)/per)
		for i := range batches {
			for _, q := range qs[i*per : (i+1)*per] {
				batches[i] = append(batches[i], q.Query)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := idx.NWCBatchCtx(context.Background(), batches[i%len(batches)], nwcq.BatchOptions{Parallelism: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
