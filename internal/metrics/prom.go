package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"nwcq/internal/histo"
)

// Prometheus text exposition (format version 0.0.4) rendering. Every
// exposition in the module — the shared family table (internal/obs),
// the router's block, the server's per-endpoint and replica families —
// goes through PromWriter; nothing else formats a # HELP line.

// Labels is a flat name/value pair list ({"kind", "nwc"} renders as
// {kind="nwc"}).
type Labels []string

// With returns a copy of l extended with more pairs.
func (l Labels) With(extra ...string) Labels {
	return append(append(Labels{}, l...), extra...)
}

func (l Labels) String() string {
	if len(l) == 0 {
		return ""
	}
	s := "{"
	for i := 0; i+1 < len(l); i += 2 {
		if i > 0 {
			s += ","
		}
		s += l[i] + `="` + l[i+1] + `"`
	}
	return s + "}"
}

// PromWriter emits Prometheus text-format lines, remembering the first
// write error so call sites stay linear; read it from Err when done.
type PromWriter struct {
	W   io.Writer
	Err error
}

func (p *PromWriter) printf(format string, args ...any) {
	if p.Err != nil {
		return
	}
	_, p.Err = fmt.Fprintf(p.W, format, args...)
}

// Header emits the # HELP and # TYPE lines for a metric family.
func (p *PromWriter) Header(name, typ, help string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Value emits one sample line.
func (p *PromWriter) Value(name string, l Labels, v float64) {
	p.printf("%s%s %s\n", name, l.String(), FormatPromValue(v))
}

// Counter emits a family holding one unlabelled counter sample — one
// row of a family table.
func (p *PromWriter) Counter(name, help string, v float64) {
	p.Header(name, "counter", help)
	p.Value(name, nil, v)
}

// Gauge is Counter for a gauge.
func (p *PromWriter) Gauge(name, help string, v float64) {
	p.Header(name, "gauge", help)
	p.Value(name, nil, v)
}

// Histogram renders one histogram with Prometheus's cumulative buckets:
// every _bucket line counts observations at or below its le bound, the
// +Inf bucket equals _count.
func (p *PromWriter) Histogram(name string, l Labels, s histo.Snapshot) {
	cum := uint64(0)
	for i, bound := range s.Bounds {
		cum += s.Counts[i]
		p.Value(name+"_bucket", l.With("le", FormatPromValue(bound)), float64(cum))
	}
	cum += s.Counts[len(s.Counts)-1]
	p.Value(name+"_bucket", l.With("le", "+Inf"), float64(cum))
	p.Value(name+"_sum", l, s.Sum)
	p.Value(name+"_count", l, float64(cum))
}

// FormatPromValue renders a float the way Prometheus clients expect:
// shortest round-trip representation, integers without an exponent.
func FormatPromValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// SortedKeys returns m's keys in lexical order, for deterministic
// exposition output.
func SortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
