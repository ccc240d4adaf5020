package shard

import (
	"fmt"
	"math/rand"
	"testing"

	"nwcq"
	"nwcq/internal/datagen"
)

// BenchmarkNewSharded measures the router's set-up over 200k uniform
// points: the partition into 4 shards and their STR-packed builds.
func BenchmarkNewSharded(b *testing.B) {
	pts := datagen.Uniform(200000, 101)
	opt := Options{Shards: 4, Build: []nwcq.BuildOption{nwcq.WithBulkLoad()}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sh, err := NewSharded(pts, opt)
		if err != nil {
			b.Fatal(err)
		}
		sh.Close()
	}
}

// BenchmarkShardedScatterGather measures routed NWC latency across
// shard counts under two query mixes: hot-spot (all queries land in one
// shard's dense cluster, where MINDIST pruning should skip most
// siblings) and uniform (queries spread over the whole space, paying
// the scatter and border-fetch overhead). shardspruned/op reports how
// many shards the MINDIST bound skipped per query — the routing win the
// paper's node-level pruning predicts at shard granularity.
func BenchmarkShardedScatterGather(b *testing.B) {
	const nPoints = 20_000
	rng := rand.New(rand.NewSource(101))
	pts := make([]nwcq.Point, nPoints)
	for i := range pts {
		// Clustered dataset: 70% in a dense corner hot-spot, the rest
		// uniform, so pruning has something to skip.
		var x, y float64
		if i%10 < 7 {
			x, y = rng.Float64()*150, rng.Float64()*150
		} else {
			x, y = rng.Float64()*1000, rng.Float64()*1000
		}
		pts[i] = nwcq.Point{X: x, Y: y, ID: uint64(i + 1)}
	}
	spaceRect := nwcq.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}

	mixes := []struct {
		name string
		next func(rng *rand.Rand) (x, y float64)
	}{
		{"hotspot", func(rng *rand.Rand) (float64, float64) {
			return rng.Float64() * 140, rng.Float64() * 140
		}},
		{"uniform", func(rng *rand.Rand) (float64, float64) {
			return rng.Float64() * 1000, rng.Float64() * 1000
		}},
	}

	for _, shards := range []int{1, 2, 4} {
		sh, err := NewSharded(pts, Options{Shards: shards, Space: spaceRect, Build: []nwcq.BuildOption{nwcq.WithBulkLoad()}})
		if err != nil {
			b.Fatal(err)
		}
		for _, mix := range mixes {
			b.Run(fmt.Sprintf("shards=%d/%s", shards, mix.name), func(b *testing.B) {
				qrng := rand.New(rand.NewSource(7))
				before := sh.RouterStats()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					x, y := mix.next(qrng)
					if _, err := sh.NWC(nwcq.Query{X: x, Y: y, Length: 20, Width: 20, N: 6}); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				after := sh.RouterStats()
				b.ReportMetric(float64(after.ShardsPruned-before.ShardsPruned)/float64(b.N), "shardspruned/op")
				b.ReportMetric(float64(after.BorderFetches-before.BorderFetches)/float64(b.N), "borderfetches/op")
			})
		}
		sh.Close()
	}
}

// BenchmarkShardedParallel measures routed NWC latency across shard
// counts × scatter widths × cache temperature. par=1 is the sequential
// path (the no-regression baseline against the pre-parallel router);
// wider settings exercise the cooperative shared bound (boundtighten/op
// reports how often in-flight traversals improved it — the cooperation
// the clustered dataset is built to provoke). cache=hot replays one
// query so every iteration after the first is a result-cache hit;
// cache=cold disables the cache. Note: on a single-CPU runner
// (GOMAXPROCS=1) parallel widths measure coordination overhead, not
// speedup.
func BenchmarkShardedParallel(b *testing.B) {
	const nPoints = 20_000
	rng := rand.New(rand.NewSource(103))
	pts := make([]nwcq.Point, nPoints)
	for i := range pts {
		var x, y float64
		if i%10 < 7 {
			x, y = rng.Float64()*150, rng.Float64()*150
		} else {
			x, y = rng.Float64()*1000, rng.Float64()*1000
		}
		pts[i] = nwcq.Point{X: x, Y: y, ID: uint64(i + 1)}
	}
	spaceRect := nwcq.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}

	for _, shards := range []int{2, 4} {
		for _, par := range []int{1, 2, 4} {
			for _, cache := range []struct {
				name    string
				entries int
			}{{"cold", 0}, {"hot", 4096}} {
				sh, err := NewSharded(pts, Options{
					Shards: shards, Space: spaceRect,
					Parallelism: par, ResultCache: cache.entries,
					Build: []nwcq.BuildOption{nwcq.WithBulkLoad()},
				})
				if err != nil {
					b.Fatal(err)
				}
				b.Run(fmt.Sprintf("shards=%d/par=%d/cache=%s", shards, par, cache.name), func(b *testing.B) {
					qrng := rand.New(rand.NewSource(7))
					before := sh.RouterStats()
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						var x, y float64
						if cache.entries > 0 {
							// Hot: one repeated query; every iteration past
							// the first is a hit.
							x, y = 80, 80
						} else {
							x, y = qrng.Float64()*140, qrng.Float64()*140
						}
						if _, err := sh.NWC(nwcq.Query{X: x, Y: y, Length: 20, Width: 20, N: 6}); err != nil {
							b.Fatal(err)
						}
					}
					b.StopTimer()
					after := sh.RouterStats()
					b.ReportMetric(float64(after.BoundTightenings-before.BoundTightenings)/float64(b.N), "boundtighten/op")
					b.ReportMetric(float64(after.ShardsPruned-before.ShardsPruned)/float64(b.N), "shardspruned/op")
				})
				sh.Close()
			}
		}
	}
}

// BenchmarkShardedBorder measures the routed queries that pay for the
// border step: 20k uniform points over 4 shards, every query within l of a
// seam, so that nearly each one fetches a box of points across it and
// sweeps them for candidate groups (core.GroupsWithin) — an NWC once under
// its local best, a kNWC in its certification loop. borderpoints/op is
// what the sweep is handed; ns, B and allocs per op are mostly what it
// does with them.
func BenchmarkShardedBorder(b *testing.B) {
	const nPoints = 20_000
	rng := rand.New(rand.NewSource(107))
	pts := make([]nwcq.Point, nPoints)
	for i := range pts {
		pts[i] = nwcq.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000, ID: uint64(i + 1)}
	}
	sh, err := NewSharded(pts, Options{Shards: 4, Space: nwcq.Rect{MaxX: 1000, MaxY: 1000}, Build: []nwcq.BuildOption{nwcq.WithBulkLoad()}})
	if err != nil {
		b.Fatal(err)
	}
	defer sh.Close()
	const l = 20
	onSeam := func(rng *rand.Rand) nwcq.Query {
		x, y := 500+(2*rng.Float64()-1)*l, rng.Float64()*1000
		if rng.Intn(2) == 1 {
			x, y = y, x
		}
		return nwcq.Query{X: x, Y: y, Length: l, Width: l, N: 6}
	}
	for _, kind := range []string{"nwc", "knwc"} {
		b.Run(kind, func(b *testing.B) {
			qrng := rand.New(rand.NewSource(7))
			before := sh.RouterStats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := onSeam(qrng)
				if kind == "nwc" {
					_, err = sh.NWC(q)
				} else {
					_, err = sh.KNWC(nwcq.KQuery{Query: q, K: 3, M: 1})
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			after := sh.RouterStats()
			b.ReportMetric(float64(after.BorderPoints-before.BorderPoints)/float64(b.N), "borderpoints/op")
		})
	}
}
