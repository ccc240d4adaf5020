package loadgen

import (
	"encoding/json"
	"math"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
)

func parseOpQuery(t *testing.T, op Op) url.Values {
	t.Helper()
	i := strings.IndexByte(op.Path, '?')
	if i < 0 {
		t.Fatalf("op path %q has no query", op.Path)
	}
	v, err := url.ParseQuery(op.Path[i+1:])
	if err != nil {
		t.Fatalf("op query: %v", err)
	}
	return v
}

func TestGenMixShares(t *testing.T) {
	p := Profile{KNWCShare: 0.25, BatchShare: 0.1, MutateShare: 0.1}
	var ids atomic.Uint64
	g := p.NewGen(1, &ids)
	counts := map[string]int{}
	const total = 4000
	for i := 0; i < total; i++ {
		op := g.Next()
		counts[op.Class]++
		switch op.Class {
		case ClassNWC, ClassKNWC:
			if op.Method != "GET" {
				t.Fatalf("%s op method %q", op.Class, op.Method)
			}
		case ClassBatch, ClassMutate:
			if op.Method != "POST" || op.Body == "" {
				t.Fatalf("%s op %+v lacks a body", op.Class, op)
			}
		}
	}
	within := func(class string, share float64) {
		t.Helper()
		got := float64(counts[class]) / total
		if math.Abs(got-share) > 0.04 {
			t.Errorf("%s share = %.3f, want ~%.2f", class, got, share)
		}
	}
	within(ClassKNWC, 0.25)
	within(ClassBatch, 0.1)
	within(ClassMutate, 0.1)
	within(ClassNWC, 0.55)
}

func TestGenQueryShape(t *testing.T) {
	p := Profile{Window: 150, N: 6, K: 4, M: 2, KNWCShare: 1, Schemes: []string{"NWC*", "SRR"}}
	var ids atomic.Uint64
	g := p.NewGen(2, &ids)
	schemes := map[string]int{}
	for i := 0; i < 50; i++ {
		op := g.Next()
		if op.Class != ClassKNWC {
			t.Fatalf("class %q with KNWCShare=1", op.Class)
		}
		v := parseOpQuery(t, op)
		if v.Get("l") != "150" || v.Get("w") != "150" || v.Get("n") != "6" {
			t.Fatalf("query params %v", v)
		}
		if v.Get("k") != "4" || v.Get("m") != "2" {
			t.Fatalf("k/m params %v", v)
		}
		x, err := strconv.ParseFloat(v.Get("x"), 64)
		if err != nil || x < 0 || x > 10000 {
			t.Fatalf("x = %q outside the space", v.Get("x"))
		}
		schemes[v.Get("scheme")]++
	}
	if schemes["NWC*"] != 25 || schemes["SRR"] != 25 {
		t.Errorf("scheme rotation = %v", schemes)
	}
}

func TestGenHotSpot(t *testing.T) {
	p := Profile{HotShare: 1, HotX: 2000, HotY: 3000, HotSigma: 50}
	var ids atomic.Uint64
	g := p.NewGen(3, &ids)
	far := 0
	for i := 0; i < 200; i++ {
		v := parseOpQuery(t, g.Next())
		x, _ := strconv.ParseFloat(v.Get("x"), 64)
		y, _ := strconv.ParseFloat(v.Get("y"), 64)
		// 4 sigma covers all but ~1e-4 of draws.
		if math.Abs(x-2000) > 200 || math.Abs(y-3000) > 200 {
			far++
		}
	}
	if far > 2 {
		t.Errorf("%d/200 hot-spot centers far from (2000, 3000)", far)
	}
}

func TestGenMutateAlternates(t *testing.T) {
	p := Profile{MutateShare: 1}
	var ids atomic.Uint64
	g := p.NewGen(4, &ids)
	type mutation struct {
		X  float64 `json:"x"`
		Y  float64 `json:"y"`
		ID uint64  `json:"id"`
	}
	var lastIns mutation
	for i := 0; i < 20; i++ {
		op := g.Next()
		var m mutation
		if err := json.Unmarshal([]byte(op.Body), &m); err != nil {
			t.Fatalf("mutation body %q: %v", op.Body, err)
		}
		if i%2 == 0 {
			if op.Path != "/insert" {
				t.Fatalf("op %d path %q, want /insert", i, op.Path)
			}
			if m.ID <= 1<<40 {
				t.Fatalf("insert id %d not above the collision base", m.ID)
			}
			lastIns = m
		} else {
			if op.Path != "/delete" {
				t.Fatalf("op %d path %q, want /delete", i, op.Path)
			}
			if m != lastIns {
				t.Fatalf("delete %+v does not match the preceding insert %+v", m, lastIns)
			}
		}
	}
}

func TestGenBatchBody(t *testing.T) {
	p := Profile{BatchShare: 1, BatchSize: 5, Schemes: []string{"DIP"}}
	var ids atomic.Uint64
	g := p.NewGen(5, &ids)
	op := g.Next()
	if op.Path != "/batch/nwc" {
		t.Fatalf("batch path %q", op.Path)
	}
	var body struct {
		Queries []struct {
			X, Y, L, W float64
			N          int
			Scheme     string `json:"scheme"`
		} `json:"queries"`
	}
	if err := json.Unmarshal([]byte(op.Body), &body); err != nil {
		t.Fatalf("batch body: %v\n%s", err, op.Body)
	}
	if len(body.Queries) != 5 {
		t.Fatalf("%d queries in batch, want 5", len(body.Queries))
	}
	for _, q := range body.Queries {
		if q.N != 8 || q.L != 200 || q.Scheme != "DIP" {
			t.Fatalf("batch query %+v", q)
		}
	}
}

func TestGenUniqueInsertIDs(t *testing.T) {
	var ids atomic.Uint64
	p := Profile{MutateShare: 1}
	a, b := p.NewGen(6, &ids), p.NewGen(7, &ids)
	seen := map[string]bool{}
	for i := 0; i < 40; i++ {
		for _, g := range []*Gen{a, b} {
			op := g.Next()
			if op.Path != "/insert" {
				continue
			}
			if seen[op.Body] {
				t.Fatalf("duplicate insert across workers: %s", op.Body)
			}
			seen[op.Body] = true
		}
	}
}

func TestProfileValidate(t *testing.T) {
	for _, bad := range []Profile{
		{KNWCShare: -0.1},
		{BatchShare: 1.5},
		{KNWCShare: 0.6, BatchShare: 0.3, MutateShare: 0.3},
		{SpaceMin: 10, SpaceMax: 5},
		{N: -1},
		{Schemes: []string{"NWC*", "SRX"}},  // nwcload -schemes 'NWC*,SRX'
		{Schemes: []string{"NWC*", " SRR"}}, // nwcload -schemes 'NWC*, SRR'
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("profile %+v accepted", bad)
		}
	}
	if err := (Profile{}).Validate(); err != nil {
		t.Errorf("zero profile rejected: %v", err)
	}
}
