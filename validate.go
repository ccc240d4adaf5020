package nwcq

import (
	"fmt"
	"math"

	"nwcq/internal/obs"
)

// ErrInvalidQuery tags every parameter-validation failure in this
// package; test rejections with errors.Is(err, nwcq.ErrInvalidQuery).
var ErrInvalidQuery = obs.ErrInvalidQuery

// ValidationError reports exactly which parameter a query was rejected
// for. It unwraps to ErrInvalidQuery.
type ValidationError struct {
	// Param names the offending parameter ("N", "Length", "window", …).
	Param string
	// Reason says what was wrong with it.
	Reason string
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("nwcq: invalid %s: %s", e.Param, e.Reason)
}

func (e *ValidationError) Unwrap() error { return ErrInvalidQuery }

func invalid(param, format string, args ...any) error {
	return &ValidationError{Param: param, Reason: fmt.Sprintf(format, args...)}
}

// finiteParam rejects NaN and ±Inf values for the named parameter.
func finiteParam(param string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return invalid(param, "must be finite, got %g", v)
	}
	return nil
}

// Validate checks the query's parameters: coordinates and extents must
// be finite, Length and Width positive, N at least 1, and Measure one
// of the defined values. Rejections unwrap to ErrInvalidQuery.
func (q Query) Validate() error {
	if err := finiteParam("X", q.X); err != nil {
		return err
	}
	if err := finiteParam("Y", q.Y); err != nil {
		return err
	}
	if err := finiteParam("Length", q.Length); err != nil {
		return err
	}
	if err := finiteParam("Width", q.Width); err != nil {
		return err
	}
	if q.Length <= 0 {
		return invalid("Length", "must be positive, got %g", q.Length)
	}
	if q.Width <= 0 {
		return invalid("Width", "must be positive, got %g", q.Width)
	}
	if q.N < 1 {
		return invalid("N", "must be at least 1, got %d", q.N)
	}
	if !q.Measure.Valid() {
		return invalid("Measure", "unknown measure %d", int(q.Measure))
	}
	return nil
}

// Validate checks the kNWC query's parameters: everything Query
// validates, plus K at least 1 and M non-negative.
func (q KQuery) Validate() error {
	if err := q.Query.Validate(); err != nil {
		return err
	}
	if q.K < 1 {
		return invalid("K", "must be at least 1, got %d", q.K)
	}
	if q.M < 0 {
		return invalid("M", "must not be negative, got %d", q.M)
	}
	return nil
}

// validateWindowRect rejects non-finite and inverted window rectangles.
func validateWindowRect(minX, minY, maxX, maxY float64) error {
	for _, b := range [...]struct {
		name string
		v    float64
	}{{"minX", minX}, {"minY", minY}, {"maxX", maxX}, {"maxY", maxY}} {
		if err := finiteParam("window "+b.name, b.v); err != nil {
			return err
		}
	}
	if minX > maxX || minY > maxY {
		return invalid("window", "inverted rectangle [%g,%g]x[%g,%g]", minX, maxX, minY, maxY)
	}
	return nil
}

// validateNearest rejects non-finite coordinates and non-positive k.
func validateNearest(x, y float64, k int) error {
	if err := finiteParam("x", x); err != nil {
		return err
	}
	if err := finiteParam("y", y); err != nil {
		return err
	}
	if k < 1 {
		return invalid("k", "must be at least 1, got %d", k)
	}
	return nil
}
