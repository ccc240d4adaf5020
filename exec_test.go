package nwcq

import (
	"context"
	"math"
	"path/filepath"
	"reflect"
	"testing"
)

// TestEntryPointsAgree holds the one-query-path property: the same
// query through every public entry point — plain, explained, temporal
// at the committed LSN, a batch member, a subscription's init frame —
// is one execution of one evaluator, so the answers and their node
// visits are identical, and every recorded entry point shows up in
// Metrics exactly once per call (a subscription frame is not a recorded
// query; a cache hit is, with zero visits).
func TestEntryPointsAgree(t *testing.T) {
	ctx := context.Background()
	pts := testPoints(3000, 41)
	backends := []struct {
		name  string
		build func(t *testing.T) *Index
	}{
		{"memory", func(t *testing.T) *Index {
			idx, err := Build(pts, WithBulkLoad())
			if err != nil {
				t.Fatal(err)
			}
			return idx
		}},
		{"memory+cache", func(t *testing.T) *Index {
			idx, err := Build(pts, WithBulkLoad(), WithResultCache(64))
			if err != nil {
				t.Fatal(err)
			}
			return idx
		}},
		{"paged+wal", func(t *testing.T) *Index {
			px, err := BuildPaged(pts[:2990], filepath.Join(t.TempDir(), "idx.nwcq"), WithBulkLoad(), WithViewRetention(4))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { px.Close() })
			for _, p := range pts[2990:] { // move the committed LSN off zero
				if err := px.Insert(p); err != nil {
					t.Fatal(err)
				}
			}
			return &px.Index
		}},
	}
	queries := []Query{
		{X: 500, Y: 500, Length: 60, Width: 60, N: 5},
		{X: 120, Y: 880, Length: 40, Width: 90, N: 4, Scheme: SchemeNWC, Measure: AvgDistance},
		{X: 990, Y: 10, Length: 30, Width: 30, N: 6, Scheme: SchemeIWP, Measure: MinDistance},
		{X: 300, Y: 300, Length: 1, Width: 1, N: 50}, // not found
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			idx := b.build(t)
			cached := idx.nwcCache != nil
			_, committed := idx.RetainedLSNs()
			if b.name == "paged+wal" && committed == 0 {
				t.Fatal("paged backend still at LSN 0")
			}
			// counted runs one entry point and checks Metrics recorded it
			// exactly once under kind, with wantVisits node visits.
			counted := func(label, kind string, wantVisits uint64, call func()) {
				t.Helper()
				before := idx.Metrics().Queries[kind]
				call()
				after := idx.Metrics().Queries[kind]
				if after.Count != before.Count+1 || after.Errors != before.Errors {
					t.Fatalf("%s: %s count %d → %d, errors %d → %d; want one more, no errors",
						label, kind, before.Count, after.Count, before.Errors, after.Errors)
				}
				sum := func(m QueryKindMetrics) float64 { return m.NodeVisitsMean * float64(m.Count) }
				if got := sum(after) - sum(before); math.Abs(got-float64(wantVisits)) > 1e-6*(1+sum(after)) {
					t.Fatalf("%s: recorded %.3f node visits, want %d", label, got, wantVisits)
				}
			}
			for qi, q := range queries {
				// The reference; on a cached index, the miss that fills the cache.
				ref, err := idx.NWCCtx(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				if ref.Found != (qi != len(queries)-1) {
					t.Fatalf("q%d: Found = %v", qi, ref.Found)
				}
				same := func(label string, got Result) {
					t.Helper()
					if !reflect.DeepEqual(got, ref) {
						t.Fatalf("q%d %s:\n got %+v\nwant %+v", qi, label, got, ref)
					}
				}
				plainVisits := ref.Stats.NodeVisits
				if cached {
					plainVisits = 0 // served from the cache: recorded, nothing visited
				}
				counted("NWCCtx", "nwc", plainVisits, func() {
					got, err := idx.NWCCtx(ctx, q)
					if err != nil {
						t.Fatal(err)
					}
					same("NWCCtx", got)
				})
				counted("ExplainNWC", "nwc", ref.Stats.NodeVisits, func() {
					got, tr, err := idx.ExplainNWC(ctx, q)
					if err != nil {
						t.Fatal(err)
					}
					same("ExplainNWC", got)
					if tr.NodeVisits != ref.Stats.NodeVisits {
						t.Fatalf("q%d trace visits %d, want %d", qi, tr.NodeVisits, ref.Stats.NodeVisits)
					}
				})
				counted("NWCAsOf", "nwc", ref.Stats.NodeVisits, func() {
					got, err := idx.NWCAsOf(ctx, q, committed)
					if err != nil {
						t.Fatal(err)
					}
					same("NWCAsOf", got)
				})
				counted("NWCBatch", "nwc", plainVisits, func() {
					got, err := idx.NWCBatchCtx(ctx, []Query{q}, BatchOptions{})
					if err != nil {
						t.Fatal(err)
					}
					same("NWCBatch", got[0])
				})
				before := idx.Metrics().Queries["nwc"].Count
				s, err := idx.Subscribe(q)
				if err != nil {
					t.Fatal(err)
				}
				init, err := s.Next(ctx, nil)
				s.Close()
				if err != nil || init.Kind != SubInit {
					t.Fatalf("q%d init frame: %+v, %v", qi, init, err)
				}
				same("Subscribe init", init.Result)
				if after := idx.Metrics().Queries["nwc"].Count; after != before {
					t.Fatalf("q%d: subscription init frame recorded as a query (%d → %d)", qi, before, after)
				}

				kq := KQuery{Query: q, K: 3, M: 1}
				kref, err := idx.KNWCCtx(ctx, kq)
				if err != nil {
					t.Fatal(err)
				}
				ksame := func(label string, got KResult) {
					t.Helper()
					if !reflect.DeepEqual(got, kref) {
						t.Fatalf("q%d %s:\n got %+v\nwant %+v", qi, label, got, kref)
					}
				}
				kplain := kref.Stats.NodeVisits
				if cached {
					kplain = 0
				}
				counted("KNWCCtx", "knwc", kplain, func() {
					got, err := idx.KNWCCtx(ctx, kq)
					if err != nil {
						t.Fatal(err)
					}
					ksame("KNWCCtx", got)
				})
				counted("ExplainKNWC", "knwc", kref.Stats.NodeVisits, func() {
					got, _, err := idx.ExplainKNWC(ctx, kq)
					if err != nil {
						t.Fatal(err)
					}
					ksame("ExplainKNWC", got)
				})
				counted("KNWCAsOf", "knwc", kref.Stats.NodeVisits, func() {
					got, err := idx.KNWCAsOf(ctx, kq, committed)
					if err != nil {
						t.Fatal(err)
					}
					ksame("KNWCAsOf", got)
				})
				counted("KNWCBatch", "knwc", kplain, func() {
					got, err := idx.KNWCBatchCtx(ctx, []KQuery{kq}, BatchOptions{})
					if err != nil {
						t.Fatal(err)
					}
					ksame("KNWCBatch", got[0])
				})
			}
		})
	}
}
