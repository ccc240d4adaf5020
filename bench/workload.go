package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"

	"nwcq"
)

// Query shape shared by every workload: the paper's default window on a
// dataset whose density makes an 8-object window common but not certain.
const (
	winL   = 60.0
	winW   = 60.0
	groupN = 8
	knwcK  = 3
	knwcM  = 1
	// batchSize is the number of NWC queries in one POST /batch/nwc.
	batchSize = 8
	// fullPoints is the dataset size the workloads are specified at; the
	// space side scales with sqrt(points) so density stays the same at
	// the toy scale the test uses.
	fullPoints = 200000
	fullSide   = 10000.0
	// hotPool is the number of fixed query centres sharded-open repeats.
	hotPool = 256
	// mutationIDBase keeps inserted IDs apart from dataset IDs (1..points).
	mutationIDBase = uint64(1) << 32
)

type backendKind int

const (
	backendMemory backendKind = iota
	backendPaged
	backendSharded
)

type datasetKind int

const (
	dataUniform datasetKind = iota
	dataGaussian
	dataMixed
)

// spec is one workload: what is served, what is sent, and how.
type spec struct {
	name    string
	why     string
	backend backendKind
	data    datasetKind
	// dataSeed is fixed per workload: -seed moves only the op script.
	dataSeed int64
	// openRate > 0 makes the workload an open loop at that many ops/s.
	openRate float64
	// traceOps is T, the length of the sequential traced pass.
	traceOps int
	// mix gives the share of each op kind; centres selects how query
	// centres are drawn.
	mix     opMix
	centres centreKind
}

type opMix struct{ nwc, knwc, batch, mutate float64 }

// deckSize is the number of consecutive ops of a script that hold every
// kind in exactly the mix's shares.
const deckSize = 200

// deck returns the kinds of the next deckSize ops in a random order
// (opInsert standing for a mutation). The shares hold exactly in every
// deck and not just on average: kinds differ in cost by up to a hundred
// times, and 400 mutations drawn one by one would vary by 5% from seed
// to seed, and the throughput with them.
func (m opMix) deck(rng *rand.Rand) []opKind {
	deck := make([]opKind, 0, deckSize)
	for _, part := range []struct {
		kind  opKind
		share float64
	}{{opKNWC, m.knwc}, {opBatch, m.batch}, {opInsert, m.mutate}} {
		for n := int(math.Round(part.share * deckSize)); n > 0; n-- {
			deck = append(deck, part.kind)
		}
	}
	for len(deck) < deckSize {
		deck = append(deck, opNWC)
	}
	rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	return deck
}

type centreKind int

const (
	centreUniform centreKind = iota
	centreNearData
	centreSkewed
)

var specs = []spec{
	{
		name: "uniform-read", backend: backendMemory, data: dataUniform, dataSeed: 101, traceOps: 2000,
		mix: opMix{nwc: 0.85, knwc: 0.15}, centres: centreUniform,
		why: "paper's base case on uniform data: no layer dominates, so HTTP+JSON and R*-tree/IWP traversal are visible here and nowhere else",
	},
	{
		name: "dense-read", backend: backendMemory, data: dataGaussian, dataSeed: 102, traceOps: 300,
		mix: opMix{nwc: 1}, centres: centreNearData,
		why: "queries centred in a dense Gaussian cluster: window verification and GC do over 90% of the work, descent and HTTP under 2%",
	},
	{
		name: "paged-mixed", backend: backendPaged, data: dataUniform, dataSeed: 101, traceOps: 400,
		mix: opMix{nwc: 0.765, knwc: 0.135, mutate: 0.10}, centres: centreUniform,
		why: "10% fsynced inserts/deletes beside reads on a page file 11x its cache: the only workload touching pager, WAL and IWP rebuilds",
	},
	{
		name: "sharded-open", backend: backendSharded, data: dataMixed, dataSeed: 104, openRate: 300, traceOps: 1500,
		mix: opMix{nwc: 0.75, knwc: 0.15, batch: 0.10}, centres: centreSkewed,
		why: "open loop at a fixed 300 ops/s over 4 shards with a result cache: scatter/border/merge, qcache and the batch pool run only here",
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// side returns the edge of the square object space for a dataset of n
// points: [0,10000]² at 200k, shrunk so density is constant below that.
func side(n int) float64 { return fullSide * math.Sqrt(float64(n)/fullPoints) }

func clamp(v, hi float64) float64 { return math.Max(0, math.Min(hi, v)) }

// dataset draws n points of the given kind. Distances that describe the
// data (cluster spread) scale with the space; the query window does not.
func dataset(kind datasetKind, n int, seed int64) []nwcq.Point {
	rng := rand.New(rand.NewSource(seed))
	s := side(n)
	pts := make([]nwcq.Point, n)
	uniform := func() (float64, float64) { return rng.Float64() * s, rng.Float64() * s }
	gauss := func(cx, cy, sigma float64) (float64, float64) {
		return clamp(cx+rng.NormFloat64()*sigma, s), clamp(cy+rng.NormFloat64()*sigma, s)
	}
	var centres [20][2]float64
	if kind == dataMixed {
		for i := range centres {
			centres[i] = [2]float64{(0.1 + 0.8*rng.Float64()) * s, (0.1 + 0.8*rng.Float64()) * s}
		}
	}
	for i := range pts {
		var x, y float64
		switch {
		case kind == dataGaussian:
			x, y = gauss(s/2, s/2, 0.1*s)
		case kind == dataMixed && i%2 == 1:
			c := centres[rng.Intn(len(centres))]
			x, y = gauss(c[0], c[1], 0.04*s)
		default:
			x, y = uniform()
		}
		pts[i] = nwcq.Point{X: x, Y: y, ID: uint64(i + 1)}
	}
	return pts
}

type opKind uint8

const (
	opNWC opKind = iota
	opKNWC
	opBatch
	opInsert
	opDelete
	opKinds
)

var opNames = [opKinds]string{"nwc", "knwc", "batch", "insert", "delete"}

type xy struct{ x, y float64 }

// op is one scripted request. Queries use (x, y) as the centre; insert
// and delete carry the point (x, y, id); a batch carries its centres.
type op struct {
	kind  opKind
	x, y  float64
	id    uint64
	batch []xy
	// due is the intended send time from the start of the run, in
	// nanoseconds; open loop only.
	due int64
}

// script draws count ops for one client from the workload's mix. Every
// insert is followed, at that client's next mutation, by the delete of
// the same point, so the dataset size stays steady.
func (s spec) script(seed int64, client, count int, pts []nwcq.Point) []op {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(client)*7919 + s.dataSeed))
	sd := side(len(pts))
	var pool []xy
	if s.centres == centreSkewed {
		prng := rand.New(rand.NewSource(s.dataSeed + 1))
		pool = make([]xy, hotPool)
		for i := range pool {
			pool[i] = xy{prng.Float64() * sd, prng.Float64() * sd}
		}
	}
	near := func(sigma float64) xy {
		p := pts[rng.Intn(len(pts))]
		return xy{clamp(p.X+rng.NormFloat64()*sigma, sd), clamp(p.Y+rng.NormFloat64()*sigma, sd)}
	}
	centre := func() xy {
		switch s.centres {
		case centreNearData:
			return near(50)
		case centreSkewed:
			switch u := rng.Float64(); {
			case u < 0.30:
				v := rng.Float64()
				return pool[int(v*v*hotPool)]
			case u < 0.65:
				return near(100)
			}
		}
		return xy{rng.Float64() * sd, rng.Float64() * sd}
	}
	ops := make([]op, count)
	var pending *op
	var inserted uint64
	var clock float64
	var deck []opKind
	for i := range ops {
		o := &ops[i]
		if s.openRate > 0 {
			clock += rng.ExpFloat64() / s.openRate
			o.due = int64(clock * 1e9)
		}
		if len(deck) == 0 {
			deck = s.mix.deck(rng)
		}
		o.kind, deck = deck[0], deck[1:]
		switch o.kind {
		case opBatch:
			o.batch = make([]xy, batchSize)
			for j := range o.batch {
				o.batch[j] = centre()
			}
			continue
		case opInsert:
			if pending != nil {
				*o = op{kind: opDelete, x: pending.x, y: pending.y, id: pending.id, due: o.due}
				pending = nil
			} else {
				inserted++
				c := xy{rng.Float64() * sd, rng.Float64() * sd}
				*o = op{kind: opInsert, x: c.x, y: c.y, id: mutationIDBase | uint64(client)<<24 | inserted, due: o.due}
				pending = o
			}
			continue
		}
		c := centre()
		o.x, o.y = c.x, c.y
	}
	return ops
}

func hashPoints(pts []nwcq.Point) string {
	h := sha256.New()
	var buf [24]byte
	for _, p := range pts {
		binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(p.X))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(p.Y))
		binary.LittleEndian.PutUint64(buf[16:], p.ID)
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func hashScripts(scripts [][]op) string {
	h := sha256.New()
	var buf [33]byte
	put := func(kind opKind, x, y float64, id uint64, due int64) {
		buf[0] = byte(kind)
		binary.LittleEndian.PutUint64(buf[1:], math.Float64bits(x))
		binary.LittleEndian.PutUint64(buf[9:], math.Float64bits(y))
		binary.LittleEndian.PutUint64(buf[17:], id)
		binary.LittleEndian.PutUint64(buf[25:], uint64(due))
		h.Write(buf[:])
	}
	for _, ops := range scripts {
		for _, o := range ops {
			put(o.kind, o.x, o.y, o.id, o.due)
			for _, c := range o.batch {
				put(opBatch, c.x, c.y, 0, 0)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (k opKind) String() string {
	if k < opKinds {
		return opNames[k]
	}
	return fmt.Sprintf("op(%d)", int(k))
}
