package loadgen

import (
	"fmt"
	"math/rand"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"

	"nwcq/internal/core"
)

// Op classes the harness records separately: each gets its own latency
// histogram and its own SLO line, because a p99 mixing point queries
// with 16-query batches is meaningless.
const (
	ClassNWC    = "nwc"
	ClassKNWC   = "knwc"
	ClassBatch  = "batch"
	ClassMutate = "mutate"
	// ClassSub records standing-query delivery: each sample is one SSE
	// frame's publish→notify latency (server publish instant to client
	// receipt), not a request round trip (subscribe.go).
	ClassSub = "sub"
	ClassAll = "all" // aggregate pseudo-class, SLO targets only
)

// Classes lists the concrete op classes in report order.
var Classes = []string{ClassNWC, ClassKNWC, ClassBatch, ClassMutate, ClassSub}

// Op is one generated request, ready to issue.
type Op struct {
	Class  string
	Method string
	Path   string // URL path + raw query, relative to the base URL
	Body   string // JSON body for POSTs, empty for GETs
}

// Profile describes the query mix the generator draws from. The zero
// value is usable: uniform NWC-only traffic over the standard space.
type Profile struct {
	// SpaceMin/SpaceMax bound the query-center range per axis; both zero
	// means the standard normalised space [0, 10000].
	SpaceMin, SpaceMax float64
	// Window is the query window side length (both axes); 0 means 200.
	Window float64
	// N, K, M are the query cardinalities; zero values mean 8, 3, 1.
	N, K, M int
	// Schemes rotates the optimisation scheme across queries; empty
	// leaves the server default.
	Schemes []string
	// KNWCShare, BatchShare and MutateShare are the fractions of ops
	// drawn as kNWC queries, batch requests and mutations; the remainder
	// are single NWC queries. Each in [0, 1], summing to at most 1.
	KNWCShare, BatchShare, MutateShare float64
	// BatchSize is the number of queries per batch op; 0 means 16.
	BatchSize int
	// HotShare is the fraction of query centers drawn from a Gaussian
	// hot spot instead of uniformly; HotX/HotY/HotSigma place it. Zero
	// HotX/HotY default to the space center, zero HotSigma to 1/40 of
	// the space side. A skewed center distribution is what makes shard
	// pruning and the result cache actually matter under load.
	HotShare                                     float64
	HotX, HotY, HotSigma                         float64
	rngSpaceLo, rngSpaceHi                       float64 // resolved bounds, set by normalized
	resolvedWindow                               float64
	resolvedN, resolvedK                         int
	resolvedM, resolvedBatch                     int
	resolvedHotX, resolvedHotY, resolvedHotSigma float64
}

// Validate reports a configuration error, nil when the profile is
// usable.
func (p Profile) Validate() error {
	for _, s := range []struct {
		name string
		v    float64
	}{{"knwc", p.KNWCShare}, {"batch", p.BatchShare}, {"mutate", p.MutateShare}, {"hot", p.HotShare}} {
		if s.v < 0 || s.v > 1 {
			return fmt.Errorf("loadgen: %s share %g outside [0, 1]", s.name, s.v)
		}
	}
	if sum := p.KNWCShare + p.BatchShare + p.MutateShare; sum > 1 {
		return fmt.Errorf("loadgen: class shares sum to %g > 1", sum)
	}
	if p.SpaceMax < p.SpaceMin {
		return fmt.Errorf("loadgen: space max %g < min %g", p.SpaceMax, p.SpaceMin)
	}
	if p.Window < 0 || p.N < 0 || p.K < 0 || p.M < 0 || p.BatchSize < 0 {
		return fmt.Errorf("loadgen: negative query parameter")
	}
	for _, s := range p.Schemes {
		if _, err := core.ParseScheme(s); err != nil {
			return fmt.Errorf("loadgen: %w", err)
		}
	}
	return nil
}

// normalized resolves defaults into the private fields the generator
// reads.
func (p Profile) normalized() Profile {
	p.rngSpaceLo, p.rngSpaceHi = p.SpaceMin, p.SpaceMax
	if p.rngSpaceLo == 0 && p.rngSpaceHi == 0 {
		p.rngSpaceHi = 10000
	}
	p.resolvedWindow = p.Window
	if p.resolvedWindow == 0 {
		p.resolvedWindow = 200
	}
	p.resolvedN, p.resolvedK, p.resolvedM = p.N, p.K, p.M
	if p.resolvedN == 0 {
		p.resolvedN = 8
	}
	if p.resolvedK == 0 {
		p.resolvedK = 3
	}
	if p.resolvedM == 0 {
		p.resolvedM = 1
	}
	p.resolvedBatch = p.BatchSize
	if p.resolvedBatch == 0 {
		p.resolvedBatch = 16
	}
	side := p.rngSpaceHi - p.rngSpaceLo
	p.resolvedHotX, p.resolvedHotY, p.resolvedHotSigma = p.HotX, p.HotY, p.HotSigma
	if p.resolvedHotX == 0 && p.resolvedHotY == 0 {
		p.resolvedHotX = p.rngSpaceLo + side/2
		p.resolvedHotY = p.rngSpaceLo + side/2
	}
	if p.resolvedHotSigma == 0 {
		p.resolvedHotSigma = side / 40
	}
	return p
}

// Gen draws ops from a profile. One Gen per worker goroutine — it is
// not safe for concurrent use; only the insert-ID sequence is shared.
type Gen struct {
	p   Profile
	rng *rand.Rand
	ids *atomic.Uint64 // shared: unique IDs across all workers
	// pending is the last inserted-but-not-deleted point, so mutations
	// alternate insert/delete and the dataset size stays put under load.
	pendingID uint64
	pendingX  float64
	pendingY  float64
	schemeIdx int
}

// NewGen builds a generator seeded for one worker. ids must be shared
// by every generator of a run so inserted IDs never collide.
func (p Profile) NewGen(seed int64, ids *atomic.Uint64) *Gen {
	return &Gen{p: p.normalized(), rng: rand.New(rand.NewSource(seed)), ids: ids}
}

// center draws a query center: hot-spot Gaussian with probability
// HotShare, uniform otherwise, clamped to the space.
func (g *Gen) center() (x, y float64) {
	p := g.p
	if p.HotShare > 0 && g.rng.Float64() < p.HotShare {
		x = p.resolvedHotX + g.rng.NormFloat64()*p.resolvedHotSigma
		y = p.resolvedHotY + g.rng.NormFloat64()*p.resolvedHotSigma
	} else {
		x = p.rngSpaceLo + g.rng.Float64()*(p.rngSpaceHi-p.rngSpaceLo)
		y = p.rngSpaceLo + g.rng.Float64()*(p.rngSpaceHi-p.rngSpaceLo)
	}
	x = min(max(x, p.rngSpaceLo), p.rngSpaceHi)
	y = min(max(y, p.rngSpaceLo), p.rngSpaceHi)
	return x, y
}

func (g *Gen) scheme() string {
	if len(g.p.Schemes) == 0 {
		return ""
	}
	s := g.p.Schemes[g.schemeIdx%len(g.p.Schemes)]
	g.schemeIdx++
	return s
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// queryValues renders the shared window-query parameters.
func (g *Gen) queryValues() url.Values {
	x, y := g.center()
	v := url.Values{}
	v.Set("x", fmtF(x))
	v.Set("y", fmtF(y))
	v.Set("l", fmtF(g.p.resolvedWindow))
	v.Set("w", fmtF(g.p.resolvedWindow))
	v.Set("n", strconv.Itoa(g.p.resolvedN))
	if s := g.scheme(); s != "" {
		v.Set("scheme", s)
	}
	return v
}

// Next draws the next op.
func (g *Gen) Next() Op {
	r := g.rng.Float64()
	switch {
	case r < g.p.MutateShare:
		return g.mutateOp()
	case r < g.p.MutateShare+g.p.BatchShare:
		return g.batchOp()
	case r < g.p.MutateShare+g.p.BatchShare+g.p.KNWCShare:
		v := g.queryValues()
		v.Set("k", strconv.Itoa(g.p.resolvedK))
		v.Set("m", strconv.Itoa(g.p.resolvedM))
		return Op{Class: ClassKNWC, Method: "GET", Path: "/knwc?" + v.Encode()}
	default:
		return Op{Class: ClassNWC, Method: "GET", Path: "/nwc?" + g.queryValues().Encode()}
	}
}

// mutateOp alternates insert and delete of the same point, so a long
// run mutates constantly without growing the dataset.
func (g *Gen) mutateOp() Op {
	if g.pendingID != 0 {
		op := Op{
			Class:  ClassMutate,
			Method: "POST",
			Path:   "/delete",
			Body: fmt.Sprintf(`{"x": %s, "y": %s, "id": %d}`,
				fmtF(g.pendingX), fmtF(g.pendingY), g.pendingID),
		}
		g.pendingID = 0
		return op
	}
	x, y := g.center()
	// IDs from a high base so generated points never collide with the
	// dataset under test.
	id := 1<<40 + g.ids.Add(1)
	g.pendingID, g.pendingX, g.pendingY = id, x, y
	return Op{
		Class:  ClassMutate,
		Method: "POST",
		Path:   "/insert",
		Body:   fmt.Sprintf(`{"x": %s, "y": %s, "id": %d}`, fmtF(x), fmtF(y), id),
	}
}

// batchOp bundles BatchSize NWC queries into one POST /batch/nwc.
func (g *Gen) batchOp() Op {
	var sb strings.Builder
	sb.WriteString(`{"queries": [`)
	for i := 0; i < g.p.resolvedBatch; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		x, y := g.center()
		fmt.Fprintf(&sb, `{"x": %s, "y": %s, "l": %s, "w": %s, "n": %d`,
			fmtF(x), fmtF(y), fmtF(g.p.resolvedWindow), fmtF(g.p.resolvedWindow), g.p.resolvedN)
		if s := g.scheme(); s != "" {
			fmt.Fprintf(&sb, `, "scheme": %q`, s)
		}
		sb.WriteString("}")
	}
	sb.WriteString(`]}`)
	return Op{Class: ClassBatch, Method: "POST", Path: "/batch/nwc", Body: sb.String()}
}
