package core

import (
	"context"
	"encoding/binary"
	"reflect"
	"testing"

	"nwcq/internal/geom"
)

// FuzzNWCAgainstOracle drives the full engine with byte-derived point
// sets and query shapes and holds the answer of each of the sixteen
// schemes — objects, dist and window — to the exhaustive oracle's, under
// every measure. Run with
//
//	go test -fuzz FuzzNWCAgainstOracle ./internal/core
//
// to explore; the seed corpus runs as part of the normal test suite.
func FuzzNWCAgainstOracle(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(2), uint8(0))
	f.Add([]byte{200, 200, 200, 200, 0, 0, 1, 1, 7, 9}, uint8(1), uint8(1))
	f.Add([]byte{}, uint8(1), uint8(2))
	f.Add([]byte{255, 0, 255, 0, 128, 128, 64, 64, 32, 32, 16, 16, 8, 8}, uint8(3), uint8(3))

	f.Fuzz(func(t *testing.T, data []byte, nRaw, mRaw uint8) {
		// Decode points: two bytes per coordinate pair, scaled to
		// [0, 255]; duplicates and collinear runs arise naturally.
		var pts []geom.Point
		for i := 0; i+1 < len(data) && len(pts) < 28; i += 2 {
			pts = append(pts, geom.Point{
				X:  float64(data[i]),
				Y:  float64(data[i+1]),
				ID: uint64(i / 2),
			})
		}
		// Query parameters from a hash of the tail.
		var h uint64 = 1469598103934665603
		for _, b := range data {
			h = (h ^ uint64(b)) * 1099511628211
		}
		var qb [8]byte
		binary.BigEndian.PutUint64(qb[:], h)
		qy := Query{
			Q: geom.Point{X: float64(qb[0]) * 1.5, Y: float64(qb[1]) * 1.5},
			L: float64(qb[2]%100) + 1,
			W: float64(qb[3]%100) + 1,
			N: int(nRaw%5) + 1,
		}
		measure := allMeasures[int(mRaw)%len(allMeasures)]

		eng, err := quickEngine(pts)
		if err != nil {
			t.Fatal(err)
		}
		want := BruteForceNWC(pts, qy, measure)
		for _, scheme := range sixteenSchemes() {
			got, _, err := eng.NWC(context.Background(), qy, scheme, measure, Exec{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("scheme %v, %v: %+v, oracle %+v (pts=%v qy=%+v)",
					scheme, measure, got, want, pts, qy)
			}
		}
	})
}

// FuzzKNWCDefinition checks the kNWC structural guarantees on
// byte-derived inputs.
func FuzzKNWCDefinition(f *testing.F) {
	f.Add([]byte{10, 10, 20, 20, 30, 30, 40, 40, 50, 50}, uint8(2), uint8(2), uint8(1))
	f.Add([]byte{0, 0, 0, 1, 1, 0, 1, 1}, uint8(1), uint8(3), uint8(0))

	f.Fuzz(func(t *testing.T, data []byte, nRaw, kRaw, mRaw uint8) {
		var pts []geom.Point
		for i := 0; i+1 < len(data) && len(pts) < 24; i += 2 {
			pts = append(pts, geom.Point{X: float64(data[i]) * 2, Y: float64(data[i+1]) * 2, ID: uint64(i / 2)})
		}
		n := int(nRaw%4) + 1
		qy := KNWCQuery{
			Query: Query{
				Q: geom.Point{X: 128, Y: 128},
				L: 60, W: 60, N: n,
			},
			K: int(kRaw%4) + 1,
			M: int(mRaw) % n,
		}
		eng, err := quickEngine(pts)
		if err != nil {
			t.Fatal(err)
		}
		groups, _, err := eng.KNWC(context.Background(), qy, SchemeNWCStar, MeasureMax, Exec{})
		if err != nil {
			t.Fatal(err)
		}
		const eps = 1e-9
		for i, g := range groups {
			if len(g.Objects) != n {
				t.Fatalf("group %d: %d objects", i, len(g.Objects))
			}
			for _, o := range g.Objects {
				if !g.Window.ContainsPoint(o) {
					t.Fatalf("object escapes window")
				}
			}
			if i > 0 && g.Dist < groups[i-1].Dist-eps {
				t.Fatal("groups out of order")
			}
			for j := i + 1; j < len(groups); j++ {
				if g.OverlapCount(groups[j]) > qy.M {
					t.Fatal("overlap constraint violated")
				}
			}
		}
	})
}
