package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"nwcq"
	"nwcq/internal/core"
	"nwcq/internal/geom"
)

// The JSON shapes internal/server answers with, restated here so a
// change to them fails the benchmark's checks instead of passing
// unseen.
type pointJSON struct {
	X  float64 `json:"x"`
	Y  float64 `json:"y"`
	ID uint64  `json:"id"`
}

type groupJSON struct {
	Objects []pointJSON `json:"objects"`
	Dist    float64     `json:"dist"`
	Window  struct {
		MinX float64 `json:"min_x"`
		MinY float64 `json:"min_y"`
		MaxX float64 `json:"max_x"`
		MaxY float64 `json:"max_y"`
	} `json:"window"`
}

type nwcAnswer struct {
	Found bool       `json:"found"`
	Group *groupJSON `json:"group"`
}

type knwcAnswer struct {
	Found  bool        `json:"found"`
	Groups []groupJSON `json:"groups"`
}

type batchAnswer struct {
	Results []nwcAnswer `json:"results"`
}

type mutateAnswer struct {
	Inserted bool `json:"inserted"`
	Deleted  bool `json:"deleted"`
}

// tolerance absorbs the difference between the engine's distance
// arithmetic and math.Hypot, and window edges built by subtraction.
const tolerance = 1e-9

// checkGroup validates one answer group against its query: n distinct
// objects, all inside the returned window, the window no larger than
// l × w, and dist equal to the recomputed maximum distance to q.
func checkGroup(q xy, g *groupJSON) error {
	if len(g.Objects) != groupN {
		return fmt.Errorf("group has %d objects, want %d", len(g.Objects), groupN)
	}
	w := g.Window
	if w.MaxX-w.MinX > winL*(1+tolerance) || w.MaxY-w.MinY > winW*(1+tolerance) {
		return fmt.Errorf("window %gx%g larger than %gx%g", w.MaxX-w.MinX, w.MaxY-w.MinY, winL, winW)
	}
	var far float64
	for i, o := range g.Objects {
		for _, p := range g.Objects[:i] {
			if p.ID == o.ID {
				return fmt.Errorf("object %d repeated", o.ID)
			}
		}
		slack := tolerance * (1 + math.Abs(o.X) + math.Abs(o.Y))
		if o.X < w.MinX-slack || o.X > w.MaxX+slack || o.Y < w.MinY-slack || o.Y > w.MaxY+slack {
			return fmt.Errorf("object %d outside the window", o.ID)
		}
		far = math.Max(far, math.Hypot(o.X-q.x, o.Y-q.y))
	}
	if math.Abs(far-g.Dist) > tolerance*(1+far) {
		return fmt.Errorf("dist %g, recomputed %g", g.Dist, far)
	}
	return nil
}

func checkNWC(q xy, a *nwcAnswer) error {
	if a.Found != (a.Group != nil) {
		return fmt.Errorf("found=%v but group present=%v", a.Found, a.Group != nil)
	}
	if !a.Found {
		return nil
	}
	return checkGroup(q, a.Group)
}

// checkKNWC validates every group and the relations between them: at
// most k, ascending by distance, pairwise sharing at most m objects.
func checkKNWC(q xy, a *knwcAnswer) error {
	if a.Found != (len(a.Groups) > 0) || len(a.Groups) > knwcK {
		return fmt.Errorf("found=%v with %d groups", a.Found, len(a.Groups))
	}
	for i := range a.Groups {
		g := &a.Groups[i]
		if err := checkGroup(q, g); err != nil {
			return fmt.Errorf("group %d: %w", i, err)
		}
		for j := range a.Groups[:i] {
			prev := &a.Groups[j]
			if prev.Dist > g.Dist {
				return fmt.Errorf("group %d nearer than group %d", i, j)
			}
			shared := 0
			for _, o := range g.Objects {
				for _, p := range prev.Objects {
					if o.ID == p.ID {
						shared++
					}
				}
			}
			if shared > knwcM {
				return fmt.Errorf("groups %d and %d share %d objects", j, i, shared)
			}
		}
	}
	return nil
}

// checkAnswer decodes and validates the body of a 200 response to o.
// For an NWC op it also returns the decoded answer, for the oracle.
func checkAnswer(o *op, body []byte) (*nwcAnswer, error) {
	switch o.kind {
	case opNWC:
		var a nwcAnswer
		if err := json.Unmarshal(body, &a); err != nil {
			return nil, err
		}
		return &a, checkNWC(xy{o.x, o.y}, &a)
	case opKNWC:
		var a knwcAnswer
		if err := json.Unmarshal(body, &a); err != nil {
			return nil, err
		}
		return nil, checkKNWC(xy{o.x, o.y}, &a)
	case opBatch:
		var a batchAnswer
		if err := json.Unmarshal(body, &a); err != nil {
			return nil, err
		}
		if len(a.Results) != len(o.batch) {
			return nil, fmt.Errorf("batch of %d answered with %d results", len(o.batch), len(a.Results))
		}
		for i := range a.Results {
			if err := checkNWC(o.batch[i], &a.Results[i]); err != nil {
				return nil, fmt.Errorf("batch member %d: %w", i, err)
			}
		}
		return nil, nil
	default:
		var a mutateAnswer
		if err := json.Unmarshal(body, &a); err != nil {
			return nil, err
		}
		if (o.kind == opInsert && !a.Inserted) || (o.kind == opDelete && !a.Deleted) {
			return nil, fmt.Errorf("%s not acknowledged: %s", o.kind, body)
		}
		return nil, nil
	}
}

// oracleMaxPoints bounds the O(N³) brute force.
const oracleMaxPoints = 150

// sampled is one NWC answer kept for the oracle.
type sampled struct {
	q      xy
	answer *nwcAnswer
}

// oracleCheck re-derives sampled NWC answers on the quiesced backend.
// Any group better than an answer at distance d lies within d of q, so
// brute force over the points Window returns for the box of half-side d
// around q must find exactly d. Answers that are not found, or whose
// box holds too many points for the brute force, are skipped; so are
// answers holding a point a mutation op inserted, which is gone again.
func oracleCheck(q nwcq.Querier, samples []sampled) (checked, wrong, skipped int, err error) {
	transient := func(g *groupJSON) bool {
		for _, o := range g.Objects {
			if o.ID >= mutationIDBase {
				return true
			}
		}
		return false
	}
	for _, s := range samples {
		if !s.answer.Found || transient(s.answer.Group) {
			skipped++
			continue
		}
		d := s.answer.Group.Dist
		pts, werr := q.Window(s.q.x-d, s.q.y-d, s.q.x+d, s.q.y+d)
		if werr != nil {
			return checked, wrong, skipped, fmt.Errorf("oracle window: %w", werr)
		}
		if len(pts) > oracleMaxPoints {
			skipped++
			continue
		}
		gpts := make([]geom.Point, len(pts))
		for i, p := range pts {
			gpts[i] = geom.Point{X: p.X, Y: p.Y, ID: p.ID}
		}
		want := core.BruteForceNWC(gpts, core.Query{Q: geom.Point{X: s.q.x, Y: s.q.y}, L: winL, W: winW, N: groupN}, core.MeasureMax)
		checked++
		if !want.Found || math.Abs(want.Dist-d) > tolerance*(1+d) {
			wrong++
		}
	}
	return checked, wrong, skipped, nil
}

// copyIndex copies the page file and its WAL directory as they are on
// disk, without closing the index: the state a killed process leaves
// behind, except that the operating system's cache survives.
func copyIndex(path, to string) error {
	if err := os.MkdirAll(to+".wal", 0o755); err != nil {
		return err
	}
	if err := copyFile(path, to); err != nil {
		return err
	}
	entries, err := os.ReadDir(path + ".wal")
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if err := copyFile(filepath.Join(path+".wal", ent.Name()), filepath.Join(to+".wal", ent.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(from, to string) error {
	in, err := os.Open(from)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// recovery is what reopening crash copies of the paged index showed.
type recovery struct {
	seconds  float64 // median OpenPaged time over the copies
	replayed uint64  // WAL records replayed by one open
	lost     int     // acknowledged mutations the reopened index lacks
}

// recoverCopies reopens recoveryRuns crash copies of the quiesced paged
// index and checks, on the first, that every acknowledged insert not
// yet deleted is returned by Window, every acknowledged delete is gone
// and nothing else changed the size.
func recoverCopies(e *env, dir string, live, deleted []nwcq.Point) (recovery, error) {
	var r recovery
	var times []float64
	for i := 0; i < recoveryRuns; i++ {
		to := filepath.Join(dir, fmt.Sprintf("crash-%d.nwcq", i))
		if err := copyIndex(e.path, to); err != nil {
			return r, fmt.Errorf("copy index: %w", err)
		}
		start := time.Now()
		px, err := nwcq.OpenPaged(to, pagedOptions(side(len(e.pts)))...)
		if err != nil {
			return r, fmt.Errorf("open crash copy: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if i == 0 {
			r.replayed = px.Metrics().WAL.RecordsReplayed
			has := func(p nwcq.Point) (bool, error) {
				got, werr := px.Window(p.X, p.Y, p.X, p.Y)
				for _, g := range got {
					if g.ID == p.ID {
						return true, werr
					}
				}
				return false, werr
			}
			for _, set := range []struct {
				pts  []nwcq.Point
				want bool
			}{{live, true}, {deleted, false}} {
				for _, p := range set.pts {
					ok, werr := has(p)
					if werr != nil {
						px.Close()
						return r, fmt.Errorf("window on crash copy: %w", werr)
					}
					if ok != set.want {
						r.lost++
					}
				}
			}
			if px.Len() != len(e.pts)+len(live) {
				r.lost++
			}
		}
		if err := px.Close(); err != nil {
			return r, fmt.Errorf("close crash copy: %w", err)
		}
		os.RemoveAll(to + ".wal")
		os.Remove(to)
	}
	sort.Float64s(times)
	r.seconds = median(times)
	return r, nil
}
