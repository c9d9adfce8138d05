// Package montecarlo provides the deterministic, parallel Monte Carlo
// driver used by every statistical experiment in the repository. Each
// sample gets its own PRNG seeded by a splitmix64 hash of (seed, index), so
// results are bit-reproducible regardless of worker count or scheduling.
//
// Failure handling is policy-driven: FailFast (the default) aborts the run
// on the lowest failing sample index, while SkipAndRecord isolates
// non-convergent, NaN-producing, or even panicking samples — the far-tail
// draws a variability study most needs to survive — records them in a
// RunReport, and lets the rest of the population complete bit-identically.
package montecarlo

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sort"
	"strings"
)

// splitmix64 advances and hashes a 64-bit state; used to derive independent
// per-sample seeds from (seed, index).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SampleRNG returns the deterministic PRNG for sample idx of a run seeded
// with seed.
func SampleRNG(seed int64, idx int) *rand.Rand {
	s := splitmix64(uint64(seed)*0x9e3779b97f4a7c15 + uint64(idx) + 1)
	return rand.New(rand.NewSource(int64(s)))
}

// FailurePolicy selects how sample failures are handled.
type FailurePolicy int

const (
	// FailFast aborts the run on the first failure; the error reported is
	// the one with the lowest sample index among the samples that ran.
	// This is the zero value, preserving the classic Map contract.
	FailFast FailurePolicy = iota
	// SkipAndRecord isolates failing samples: their errors are recorded in
	// the RunReport, their output slots keep the zero value (drop them
	// with Compact), and the remaining samples complete unaffected.
	SkipAndRecord
)

// Policy bundles the failure policy with its parameters. The zero value is
// FailFast.
type Policy struct {
	OnFailure FailurePolicy
	// MaxFailFrac caps the tolerated failure fraction under SkipAndRecord:
	// once more than MaxFailFrac·n samples have failed, the run stops
	// claiming new samples and returns ErrTooManyFailures (a run that
	// broken signals a modeling or bench bug, not far-tail statistics).
	// <= 0 means no cap. Whether a given (seed, n) run trips is
	// deterministic and independent of worker count, although which
	// samples were still attempted after the trip is not.
	MaxFailFrac float64
}

// SkipUpTo returns a SkipAndRecord policy capped at the given failure
// fraction.
func SkipUpTo(frac float64) Policy {
	return Policy{OnFailure: SkipAndRecord, MaxFailFrac: frac}
}

// ErrTooManyFailures reports a SkipAndRecord run whose failure fraction
// exceeded Policy.MaxFailFrac.
var ErrTooManyFailures = errors.New("montecarlo: failure fraction exceeds policy cap")

// PanicError wraps a recovered per-sample panic. The worker that caught it
// survives and keeps claiming samples; the panic is reported like any other
// sample error, with the stack preserved for debugging.
type PanicError struct {
	Value any
	Stack []byte
}

// Error renders the recovered panic value.
func (e *PanicError) Error() string {
	return fmt.Sprintf("montecarlo: sample panicked: %v", e.Value)
}

// SampleFailure is one failed sample of a run: its index and the error
// (possibly a *PanicError or, from the spice layer, a *ConvergenceError).
type SampleFailure struct {
	Idx int
	Err error
}

// RunReport is the health record of one Monte Carlo run: how many samples
// were attempted, how many succeeded, which failed and why, and how much
// solver rescue work (per ladder stage) the run needed. For a completed
// (non-aborted) run every field is invariant under worker count.
type RunReport struct {
	Attempted int // samples that started running
	Succeeded int // samples that returned a result
	Failed    int // samples that returned an error (including panics)
	Panics    int // failed samples whose error was a recovered panic

	// CapTripped marks a SkipAndRecord run aborted by MaxFailFrac.
	CapTripped bool

	// Cancelled marks a run stopped by context cancellation; the result
	// slice holds partial results (completed samples are bit-identical to
	// an uninterrupted run's).
	Cancelled bool

	// Interrupted counts samples that were in flight when the context was
	// cancelled. They are recorded nowhere else — not Attempted, not Failed
	// — because a resumed run re-executes them with identical outcomes.
	Interrupted int

	// Failures lists every failed sample in ascending index order.
	Failures []SampleFailure

	// Rescued sums the per-ladder-stage rescue counters reported by the
	// per-worker states (see RescueReporter), keyed by stage name.
	Rescued map[string]int64
}

// RescueReporter is implemented by pooled worker states (circuit bench
// templates) that track solver rescue-ladder counters; MapPooledReportCtx
// sums them across workers into RunReport.Rescued after the run drains.
type RescueReporter interface {
	RescueCounts() map[string]int64
}

// Merge accumulates another run's report into r (used by experiments that
// aggregate several Monte Carlo runs into one figure).
func (r *RunReport) Merge(o RunReport) {
	r.Attempted += o.Attempted
	r.Succeeded += o.Succeeded
	r.Failed += o.Failed
	r.Panics += o.Panics
	r.CapTripped = r.CapTripped || o.CapTripped
	r.Cancelled = r.Cancelled || o.Cancelled
	r.Interrupted += o.Interrupted
	r.Failures = append(r.Failures, o.Failures...)
	if len(o.Rescued) > 0 {
		if r.Rescued == nil {
			r.Rescued = make(map[string]int64, len(o.Rescued))
		}
		for k, v := range o.Rescued {
			r.Rescued[k] += v
		}
	}
}

// Clean reports a run with no failures and no rescue work.
func (r RunReport) Clean() bool {
	return r.Failed == 0 && !r.CapTripped && len(r.Rescued) == 0
}

// FailFrac returns the failed fraction of attempted samples (0 for an
// empty run).
func (r RunReport) FailFrac() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// String renders a one-line health summary, e.g.
// "attempted 1000, succeeded 999, failed 1 (1 panic), rescued[dc-gmin]=3".
func (r RunReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "attempted %d, succeeded %d, failed %d", r.Attempted, r.Succeeded, r.Failed)
	if r.Panics > 0 {
		fmt.Fprintf(&b, " (%d panics)", r.Panics)
	}
	if r.CapTripped {
		b.WriteString(", failure cap tripped")
	}
	if r.Cancelled {
		fmt.Fprintf(&b, ", cancelled (%d in flight)", r.Interrupted)
	}
	if len(r.Rescued) > 0 {
		keys := make([]string, 0, len(r.Rescued))
		for k := range r.Rescued {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, ", rescued[%s]=%d", k, r.Rescued[k])
		}
	}
	return b.String()
}

// Map runs fn for samples 0..n-1 on a bounded worker pool and returns the
// results in sample order. Work is claimed from an atomic counter (no O(n)
// queue fill before work starts); each sample's PRNG depends only on (seed,
// idx), so results are bit-identical for any worker count. The first error
// (by sample index) aborts the run.
func Map[T any](n int, seed int64, workers int, fn func(idx int, rng *rand.Rand) (T, error)) ([]T, error) {
	out, _, err := MapReportCtx(context.Background(), n, seed, workers, RunOpts{}, fn)
	return out, err
}

// safeState builds one worker state under panic recovery.
func safeState[S any](newState func(worker int) (S, error), w int) (st S, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return newState(w)
}

// safeSample evaluates one sample under panic recovery.
func safeSample[S, T any](fn func(st S, idx int, rng *rand.Rand) (T, error),
	st S, idx int, rng *rand.Rand) (res T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(st, idx, rng)
}

// Compact returns the successful samples of out in sample order, dropping
// the entries the report records as failed (whose slots hold zero values
// under SkipAndRecord). When nothing failed, out is returned unchanged.
func Compact[T any](out []T, rep RunReport) []T {
	if len(rep.Failures) == 0 {
		return out
	}
	bad := make(map[int]bool, len(rep.Failures))
	for _, f := range rep.Failures {
		bad[f.Idx] = true
	}
	kept := make([]T, 0, len(out)-len(bad))
	for i, v := range out {
		if !bad[i] {
			kept = append(kept, v)
		}
	}
	return kept
}

// Scalars runs a scalar-valued Monte Carlo and returns the sample vector.
func Scalars(n int, seed int64, workers int, fn func(idx int, rng *rand.Rand) (float64, error)) ([]float64, error) {
	return Map(n, seed, workers, fn)
}

// Column extracts component k from a slice of fixed-length sample vectors.
func Column(samples [][]float64, k int) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s[k]
	}
	return out
}
