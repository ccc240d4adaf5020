package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"nwcq"
)

// TestPagedIndexMutations serves a disk-backed, WAL-protected index and
// checks the durability contract the package doc promises: a mutation
// acknowledged with 200 survives closing and reopening the index, and
// the WAL's activity is visible through GET /metrics.
func TestPagedIndexMutations(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.nwc")
	pts := make([]nwcq.Point, 500)
	for i := range pts {
		pts[i] = nwcq.Point{X: float64((i * 37) % 1000), Y: float64((i * 91) % 1000), ID: uint64(i + 1)}
	}
	px, err := nwcq.BuildPaged(pts, path, nwcq.WithBulkLoad())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(&px.Index, px).Handler())

	var ins struct {
		Inserted bool `json:"inserted"`
		Points   int  `json:"points"`
	}
	if code := postJSON(t, ts.URL+"/insert", `{"x": 321.5, "y": 654.5, "id": 90001}`, &ins); code != http.StatusOK {
		t.Fatalf("insert status %d", code)
	}
	if !ins.Inserted || ins.Points != 501 {
		t.Fatalf("insert response %+v", ins)
	}
	var del struct {
		Deleted bool `json:"deleted"`
		Points  int  `json:"points"`
	}
	if code := postJSON(t, ts.URL+"/delete", fmt.Sprintf(`{"x": %g, "y": %g, "id": 1}`, pts[0].X, pts[0].Y), &del); code != http.StatusOK {
		t.Fatalf("delete status %d", code)
	}
	if !del.Deleted || del.Points != 500 {
		t.Fatalf("delete response %+v", del)
	}

	values, typed := scrapeProm(t, ts.URL)
	for _, want := range []string{"nwcq_wal_appends_total", "nwcq_page_syncs_total"} {
		if typed[want] != "counter" {
			t.Fatalf("prometheus metrics: family %s has type %q, want counter", want, typed[want])
		}
	}
	if values["nwcq_wal_appends_total"] < 2 {
		t.Fatalf("nwcq_wal_appends_total = %g after one insert and one delete", values["nwcq_wal_appends_total"])
	}

	ts.Close()
	if err := px.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := nwcq.OpenPaged(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Len(); got != 500 {
		t.Fatalf("reopened index has %d points, want 500", got)
	}
	win, err := re.Window(321, 654, 322, 655)
	if err != nil {
		t.Fatal(err)
	}
	if len(win) != 1 || win[0].ID != 90001 {
		t.Fatalf("acknowledged insert missing after reopen: %v", win)
	}
}
