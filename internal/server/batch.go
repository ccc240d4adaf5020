package server

import (
	"encoding/json"
	"fmt"
	"net/http"

	"nwcq"
)

// Batch endpoints: POST /batch/nwc and /batch/knwc answer many queries
// in one round trip, fanning them out over the backend's worker pool
// (Index.NWCBatchCtx / the sharded router's batch forms). Results come
// back in input order; the first failing query aborts the whole batch,
// matching the library semantics. The load harness uses these to drive
// batch-shaped traffic.

// batchMaxQueries caps one batch request; larger batches should be
// split client-side so a single request cannot monopolise the pool.
const batchMaxQueries = 4096

// batchQueryJSON is one query in a batch body. K and M are only read
// by /batch/knwc.
type batchQueryJSON struct {
	X       float64 `json:"x"`
	Y       float64 `json:"y"`
	L       float64 `json:"l"`
	W       float64 `json:"w"`
	N       int     `json:"n"`
	K       int     `json:"k,omitempty"`
	M       int     `json:"m,omitempty"`
	Scheme  string  `json:"scheme,omitempty"`
	Measure string  `json:"measure,omitempty"`
}

type batchRequestJSON struct {
	Queries []batchQueryJSON `json:"queries"`
	// Parallelism overrides the backend's batch worker width for this
	// request; 0 keeps the server default.
	Parallelism int `json:"parallelism,omitempty"`
}

func (bq batchQueryJSON) query() (nwcq.Query, error) {
	q := nwcq.Query{X: bq.X, Y: bq.Y, Length: bq.L, Width: bq.W, N: bq.N}
	if bq.Scheme != "" {
		scheme, err := ParseScheme(bq.Scheme)
		if err != nil {
			return q, err
		}
		q.Scheme = scheme
	}
	if bq.Measure != "" {
		measure, err := ParseMeasure(bq.Measure)
		if err != nil {
			return q, err
		}
		q.Measure = measure
	}
	return q, nil
}

// decodeBatch reads and bounds-checks a batch body.
func decodeBatch(r *http.Request) (batchRequestJSON, error) {
	var req batchRequestJSON
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 4<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("invalid batch body: %w", err)
	}
	if len(req.Queries) == 0 {
		return req, fmt.Errorf("batch needs at least one query")
	}
	if len(req.Queries) > batchMaxQueries {
		return req, fmt.Errorf("batch holds %d queries, limit is %d", len(req.Queries), batchMaxQueries)
	}
	return req, nil
}

func (s *Server) handleBatchNWC(w http.ResponseWriter, r *http.Request) {
	req, err := decodeBatch(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	queries := make([]nwcq.Query, len(req.Queries))
	for i, bq := range req.Queries {
		if queries[i], err = bq.query(); err != nil {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("query %d: %w", i, err))
			return
		}
	}
	results, err := s.idx.NWCBatchCtx(r.Context(), queries, nwcq.BatchOptions{Parallelism: req.Parallelism})
	if err != nil {
		s.fail(w, statusFor(err), err)
		return
	}
	out := make([]nwcAnswer, len(results))
	for i := range results {
		out[i] = nwcAnswerOf(&results[i], nil)
	}
	s.ok(w, map[string]any{"results": out})
}

func (s *Server) handleBatchKNWC(w http.ResponseWriter, r *http.Request) {
	req, err := decodeBatch(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	queries := make([]nwcq.KQuery, len(req.Queries))
	for i, bq := range req.Queries {
		q, err := bq.query()
		if err != nil {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("query %d: %w", i, err))
			return
		}
		queries[i] = nwcq.KQuery{Query: q, K: bq.K, M: bq.M}
	}
	results, err := s.idx.KNWCBatchCtx(r.Context(), queries, nwcq.BatchOptions{Parallelism: req.Parallelism})
	if err != nil {
		s.fail(w, statusFor(err), err)
		return
	}
	out := make([]knwcAnswer, len(results))
	for i := range results {
		out[i] = knwcAnswerOf(&results[i], nil)
	}
	s.ok(w, map[string]any{"results": out})
}
