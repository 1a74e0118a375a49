// Package scherr is the error taxonomy of the scheduling stack: a small
// set of sentinel errors that every layer (moldable validation, the
// algorithm cores, the service, and the moldschedd wire protocol)
// agrees on, so callers can branch with errors.Is/errors.As instead of
// matching strings.
//
// The sentinels:
//
//	ErrNotMonotone — the instance violates the monotone-job assumption
//	ErrRegime      — an algorithm was invoked outside its proven regime
//	               (e.g. the Theorem-2 FPTAS with m < 16n/ε); errors.As
//	               to *RegimeError for the violated bound
//	ErrCanceled    — the caller's context ended before the work did;
//	               also errors.Is-matches the wrapped context cause
//	               (context.Canceled or context.DeadlineExceeded)
//	ErrBadEps      — the accuracy parameter ε is outside (0,1]
//
// The package sits at the bottom of the dependency graph (standard
// library only) so any layer may import it. Code maps an error to the
// stable wire code used in moldschedd JSON responses.
package scherr

import (
	"errors"
	"fmt"
)

// Sentinel errors; match with errors.Is.
var (
	// ErrNotMonotone reports a violation of the monotone-job
	// assumption: t(p) must be non-increasing and p·t(p) non-decreasing.
	ErrNotMonotone = errors.New("job is not monotone")

	// ErrRegime reports that an algorithm was invoked outside the
	// parameter regime its guarantee is proven for. Use errors.As with
	// *RegimeError to recover the violated bound.
	ErrRegime = errors.New("instance outside the algorithm's proven regime")

	// ErrCanceled reports that the caller's context was canceled (or its
	// deadline exceeded) before the result was produced.
	ErrCanceled = errors.New("scheduling canceled")

	// ErrBadEps reports an accuracy parameter outside (0,1].
	ErrBadEps = errors.New("eps must be in (0,1]")
)

// RegimeError is the detailed form of ErrRegime: which bound was
// violated, for which instance shape. errors.Is(err, ErrRegime) holds
// for any RegimeError.
type RegimeError struct {
	Algorithm string  // algorithm name, e.g. "fptas"
	N, M      int     // instance shape
	Eps       float64 // requested accuracy
	MinM      int     // the violated bound: the least m the guarantee needs
}

// Error formats the violated bound.
func (e *RegimeError) Error() string {
	return fmt.Sprintf("%s: %v: requires m ≥ %d (n=%d, ε=%g), have m=%d",
		e.Algorithm, ErrRegime, e.MinM, e.N, e.Eps, e.M)
}

// Is matches ErrRegime so sentinel checks work without errors.As.
func (e *RegimeError) Is(target error) bool { return target == ErrRegime }

// Regime builds a RegimeError for the m ≥ MinM bound.
func Regime(algorithm string, n, m int, eps float64, minM int) error {
	return &RegimeError{Algorithm: algorithm, N: n, M: m, Eps: eps, MinM: minM}
}

// badEpsFormat formats an ErrBadEps error: package, value, sentinel.
const badEpsFormat = "%s: eps=%v: %w"

// BadEps builds an ErrBadEps-matching error naming the offending value.
func BadEps(pkg string, eps float64) error {
	return fmt.Errorf(badEpsFormat, pkg, eps, ErrBadEps)
}

// CheckEps returns BadEps(pkg, eps) unless eps ∈ (0,1]. The test is
// written so that NaN fails it: every comparison with NaN is false, so
// the negated form `eps <= 0 || eps > 1` would let NaN through. It
// formats the error itself rather than calling BadEps so that it stays
// within the inlining budget: the hot entry points inline it.
func CheckEps(pkg string, eps float64) error {
	if eps > 0 && eps <= 1 {
		return nil
	}
	return fmt.Errorf(badEpsFormat, pkg, eps, ErrBadEps)
}

// canceledError matches ErrCanceled and unwraps to the context cause,
// so errors.Is(err, context.Canceled) / context.DeadlineExceeded keep
// working on the wrapped error.
type canceledError struct{ cause error }

func (e *canceledError) Error() string {
	if e.cause == nil {
		return ErrCanceled.Error()
	}
	return fmt.Sprintf("%v: %v", ErrCanceled, e.cause)
}

func (e *canceledError) Is(target error) bool { return target == ErrCanceled }
func (e *canceledError) Unwrap() error        { return e.cause }

// Canceled wraps a context cause (ctx.Err() or context.Cause) into an
// ErrCanceled-matching error. A nil cause yields the bare sentinel.
func Canceled(cause error) error {
	if cause == nil {
		return ErrCanceled
	}
	if errors.Is(cause, ErrCanceled) {
		return cause // already wrapped; don't stack prefixes
	}
	return &canceledError{cause: cause}
}

// Wire codes, stable across releases: the moldschedd protocol reports
// them in the "code" field of error responses.
const (
	CodeNotMonotone = "not_monotone"
	CodeRegime      = "regime"
	CodeCanceled    = "canceled"
	CodeBadEps      = "bad_eps"
	CodeInternal    = "internal"
)

// Code maps an error to its stable wire code ("" for nil).
func Code(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrCanceled):
		return CodeCanceled
	case errors.Is(err, ErrNotMonotone):
		return CodeNotMonotone
	case errors.Is(err, ErrRegime):
		return CodeRegime
	case errors.Is(err, ErrBadEps):
		return CodeBadEps
	}
	return CodeInternal
}
