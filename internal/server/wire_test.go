package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"nwcq"
	"nwcq/internal/shard"
)

// updateWire rewrites testdata/wire.golden from the running code. The
// checked-in file was generated at the commit before the answer's types
// carried the wire names as struct tags (PR 26's parent); regenerating it
// is a wire-format change and needs that said in the commit.
var updateWire = flag.Bool("update-wire", false, "rewrite testdata/wire.golden")

// wirePoints is the golden test's fixed dataset: 4,000 uniform points on
// [0, 1000]² and a 1,000-point Gaussian cluster at (700, 300).
func wirePoints() []nwcq.Point {
	rng := rand.New(rand.NewSource(42))
	pts := make([]nwcq.Point, 5000)
	for i := range pts {
		if i < 4000 {
			pts[i] = nwcq.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000, ID: uint64(i + 1)}
		} else {
			pts[i] = nwcq.Point{X: 700 + 20*rng.NormFloat64(), Y: 300 + 20*rng.NormFloat64(), ID: uint64(i + 1)}
		}
	}
	return pts
}

// traceShape reduces a decoded JSON value to its keys: numbers become 0,
// strings "", an array keeps its first element's shape.
func traceShape(v any) any {
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			x[k] = traceShape(e)
		}
		return x
	case []any:
		if len(x) == 0 {
			return x
		}
		return []any{traceShape(x[0])}
	case string:
		return ""
	case float64:
		return 0
	}
	return v
}

// wireRecorder appends one probe's status, content type and body to the
// transcript the golden file holds.
type wireRecorder struct {
	t   *testing.T
	buf bytes.Buffer
}

func (wr *wireRecorder) probe(h http.Handler, label, method, target, body string) {
	wr.t.Helper()
	req := httptest.NewRequest(method, target, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	out := rec.Body.Bytes()
	// An explained response carries durations and a start time: everything
	// before the trace is compared byte for byte, the trace by shape.
	if i := bytes.Index(out, []byte(`,"trace":`)); i >= 0 {
		var tr any
		rest := bytes.TrimSuffix(out[i+len(`,"trace":`):], []byte("}\n"))
		if err := json.Unmarshal(rest, &tr); err != nil {
			wr.t.Fatalf("%s: trace does not decode: %v", label, err)
		}
		shape, err := json.Marshal(traceShape(tr))
		if err != nil {
			wr.t.Fatal(err)
		}
		out = append(append(append([]byte{}, out[:i]...), `,"trace-shape":`...), shape...)
		out = append(out, "}\n"...)
	}
	fmt.Fprintf(&wr.buf, "### %s: %s %s %s\n%d %s\n%s", label, method, target, body, rec.Code, rec.Header().Get("Content-Type"), out)
}

// TestWireGolden pins the bytes of every answer-carrying response: the
// names, their order, what is omitted and what is an empty array are the
// contract clients parse, and the struct tags on geom.Point, geom.Rect,
// core.Group and core.Stats carry it now.
func TestWireGolden(t *testing.T) {
	pts := wirePoints()
	idx, err := nwcq.Build(pts, nwcq.WithBulkLoad())
	if err != nil {
		t.Fatal(err)
	}
	single := New(idx, idx).Handler()
	sh, err := shard.NewSharded(pts, shard.Options{Shards: 4, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sh.Close() })
	sharded := New(sh, sh).Handler()
	empty, err := nwcq.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	none := New(empty, empty).Handler()

	wr := &wireRecorder{t: t}
	spots := [][2]float64{{500, 500}, {700, 300}, {120.5, 880.25}, {999, 1}}
	for _, backend := range []struct {
		name string
		h    http.Handler
	}{{"single", single}, {"sharded", sharded}} {
		for _, measure := range []string{"max", "min", "avg", "window"} {
			for _, s := range spots {
				wr.probe(backend.h, backend.name, "GET", fmt.Sprintf("/nwc?x=%g&y=%g&l=60&w=40&n=5&measure=%s", s[0], s[1], measure), "")
				wr.probe(backend.h, backend.name, "GET", fmt.Sprintf("/knwc?x=%g&y=%g&l=60&w=40&n=4&k=3&m=1&measure=%s", s[0], s[1], measure), "")
			}
			wr.probe(backend.h, backend.name, "GET", "/nwc?x=500&y=500&l=1&w=1&n=50&measure="+measure, "")
			wr.probe(backend.h, backend.name, "GET", "/knwc?x=500&y=500&l=1&w=1&n=50&k=2&measure="+measure, "")
		}
		wr.probe(backend.h, backend.name, "GET", "/nwc?x=500&y=500&l=60&w=40&n=5&explain=1", "")
		wr.probe(backend.h, backend.name, "GET", "/knwc?x=500&y=500&l=60&w=40&n=4&k=2&m=1&explain=1", "")
		wr.probe(backend.h, backend.name, "GET", "/nwc?x=500&y=500&l=1&w=1&n=50&explain=1", "")
		wr.probe(backend.h, backend.name, "GET", "/nearest?x=500&y=500&k=3", "")
		wr.probe(backend.h, backend.name, "POST", "/batch/nwc",
			`{"queries":[{"x":500,"y":500,"l":60,"w":40,"n":5},{"x":1,"y":1,"l":1,"w":1,"n":50},{"x":700,"y":300,"l":30,"w":30,"n":6,"measure":"avg","scheme":"NWC+"}]}`)
		wr.probe(backend.h, backend.name, "POST", "/batch/knwc",
			`{"queries":[{"x":500,"y":500,"l":60,"w":40,"n":4,"k":3,"m":1},{"x":1,"y":1,"l":1,"w":1,"n":50,"k":2},{"x":700,"y":300,"l":30,"w":30,"n":6,"k":2,"measure":"min"}]}`)
		wr.probe(backend.h, backend.name, "GET", "/nwc?x=500&y=500&l=60&w=40", "")
		wr.probe(backend.h, backend.name, "GET", "/nwc?x=500&y=500&l=-1&w=40&n=5", "")
		wr.probe(backend.h, backend.name, "GET", "/nwc?x=500&y=500&l=60&w=40&n=5&scheme=bogus", "")
		wr.probe(backend.h, backend.name, "GET", "/nwc?x=500&y=500&l=60&w=40&n=5&measure=bogus", "")
		wr.probe(backend.h, backend.name, "GET", "/nwc?x=500&y=500&l=60&w=40&n=5&scheme=nwc%2B&measure=WINDOW", "")
		wr.probe(backend.h, backend.name, "POST", "/batch/nwc", `{"queries":[{"x":500,"y":500,"l":60,"w":40,"n":5,"scheme":"nope"}]}`)
		wr.probe(backend.h, backend.name, "POST", "/insert", `{"x":500.5,"y":499.5,"id":900001}`)
		wr.probe(backend.h, backend.name, "GET", "/nwc?x=500&y=500&l=60&w=40&n=5", "")
		wr.probe(backend.h, backend.name, "POST", "/delete", `{"x":500.5,"y":499.5,"id":900001}`)
		wr.probe(backend.h, backend.name, "POST", "/delete", `{"x":500.5,"y":499.5,"id":900001}`)
		wr.probe(backend.h, backend.name, "POST", "/insert", `{"x":1,"y":2,"id":3,"z":4}`)
	}
	wr.probe(none, "empty", "GET", "/nearest?x=500&y=500&k=3", "")
	wr.probe(none, "empty", "GET", "/nwc?x=500&y=500&l=60&w=40&n=5", "")
	wr.probe(none, "empty", "GET", "/knwc?x=500&y=500&l=60&w=40&n=5&k=2", "")

	// One SSE init frame: the stream needs a live connection.
	ts := httptest.NewServer(single)
	defer ts.Close()
	for _, target := range []string{"/subscribe?x=500&y=500&l=60&w=40&n=5", "/subscribe?x=500&y=500&l=1&w=1&n=50"} {
		resp, err := http.Get(ts.URL + target)
		if err != nil {
			t.Fatal(err)
		}
		ev := mustReadEvent(t, bufio.NewReader(resp.Body))
		resp.Body.Close()
		fmt.Fprintf(&wr.buf, "### sse: GET %s\nid: %s\nevent: %s\ndata: %s\n", target, ev.id, ev.event, ev.data)
	}

	const golden = "testdata/wire.golden"
	if *updateWire {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, wr.buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := wr.buf.Bytes(); !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("wire bytes differ from %s at line %d:\n got %s\nwant %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("wire bytes differ from %s in length: %d lines, want %d", golden, len(gl), len(wl))
	}
}

// TestWireGoldenWindows reads every group of testdata/wire.golden — NWC and
// kNWC answers, batch items and the SSE init frame — and holds its window
// to the one its objects and q give: per axis, of the windows of the
// query's side that hold the objects, the one whose centre is nearest q's
// coordinate. It also checks that the window holds each object.
func TestWireGoldenWindows(t *testing.T) {
	raw, err := os.ReadFile("testdata/wire.golden")
	if err != nil {
		t.Fatal(err)
	}
	type query struct{ X, Y, L, W float64 }
	type group struct {
		Objects []nwcq.Point `json:"objects"`
		Window  nwcq.Rect    `json:"window"`
	}
	type answer struct {
		Group   *group  `json:"group"`
		Groups  []group `json:"groups"`
		Results []struct {
			Group  *group  `json:"group"`
			Groups []group `json:"groups"`
		} `json:"results"`
	}
	side := func(c, ext, lo, hi float64) (float64, float64) {
		return min(max(c-ext/2, hi-ext), lo), max(min(c+ext/2, lo+ext), hi)
	}
	checked := 0
	check := func(at string, q query, g group) {
		t.Helper()
		lo, hi := g.Objects[0], g.Objects[0]
		for _, p := range g.Objects {
			lo.X, lo.Y, hi.X, hi.Y = min(lo.X, p.X), min(lo.Y, p.Y), max(hi.X, p.X), max(hi.Y, p.Y)
		}
		var want nwcq.Rect
		want.MinX, want.MaxX = side(q.X, q.L, lo.X, hi.X)
		want.MinY, want.MaxY = side(q.Y, q.W, lo.Y, hi.Y)
		if g.Window != want {
			t.Errorf("%s: window %+v, its objects and q give %+v", at, g.Window, want)
		}
		for _, p := range g.Objects {
			if p.X < g.Window.MinX || p.X > g.Window.MaxX || p.Y < g.Window.MinY || p.Y > g.Window.MaxY {
				t.Errorf("%s: object %+v outside the window %+v", at, p, g.Window)
			}
		}
		checked++
	}
	lines := strings.Split(string(raw), "\n")
	for i, line := range lines {
		head, ok := strings.CutPrefix(line, "### ")
		if !ok {
			continue
		}
		_, req, _ := strings.Cut(head, ": ")
		method, rest, _ := strings.Cut(req, " ")
		target, body, _ := strings.Cut(rest, " ")
		var queries []query
		switch path, params, _ := strings.Cut(target, "?"); {
		case method == "GET" && (path == "/nwc" || path == "/knwc" || path == "/subscribe"):
			var q query
			for _, kv := range strings.Split(params, "&") {
				k, v, _ := strings.Cut(kv, "=")
				var f float64
				fmt.Sscan(v, &f)
				switch k {
				case "x":
					q.X = f
				case "y":
					q.Y = f
				case "l":
					q.L = f
				case "w":
					q.W = f
				}
			}
			queries = []query{q}
		case method == "POST" && strings.HasPrefix(path, "/batch/"):
			var b struct{ Queries []query }
			if err := json.Unmarshal([]byte(body), &b); err != nil {
				t.Fatalf("line %d: %v", i+1, err)
			}
			queries = b.Queries
		default:
			continue
		}
		// The body is the third line of a probe, or the data line of an
		// SSE frame.
		data := lines[i+2]
		if d, ok := strings.CutPrefix(lines[min(i+3, len(lines)-1)], "data: "); ok {
			data = d
		}
		var a answer
		if json.Unmarshal([]byte(data), &a) != nil {
			continue // an error body
		}
		at := fmt.Sprintf("line %d", i+1)
		if a.Group != nil {
			check(at, queries[0], *a.Group)
		}
		for _, g := range a.Groups {
			check(at, queries[0], g)
		}
		for j, r := range a.Results {
			if r.Group != nil {
				check(at, queries[j], *r.Group)
			}
			for _, g := range r.Groups {
				check(at, queries[j], g)
			}
		}
	}
	if n := strings.Count(string(raw), `"window":`); checked != n {
		t.Fatalf("%d groups checked of the %d windows in the golden file", checked, n)
	}
}
