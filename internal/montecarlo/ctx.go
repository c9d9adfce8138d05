package montecarlo

// Context-aware Monte Carlo engine: the lifecycle layer of the driver.
// MapPooledReportCtx is the real engine — Map and MapCtx delegate to it,
// and a context.Background() run with no budget keeps every check on the
// disarmed fast path.
//
// Three lifecycle mechanisms compose here:
//
//   - Cancellation: workers re-check ctx at every claim, so a cancelled run
//     stops claiming, drains the in-flight samples, and returns partial
//     results. A sample's outcome depends only on (seed, idx), so the
//     completed subset is bit-identical to the same indices of an
//     uninterrupted run at any worker count.
//
//   - Budget: each sample is armed on its worker state (SampleArmer) before
//     fn runs; the solver's iteration-boundary checks turn an overrun into a
//     *lifecycle.BudgetError, which is an ordinary per-sample failure under
//     SkipAndRecord.
//
//   - Hang watchdog: a cooperative deadline cannot catch a solve wedged
//     inside a model evaluation. When Budget.Wall is set, the coordinator
//     scans in-flight samples and abandons any that run past Wall+HangGrace:
//     a commit CAS (0 pending → 1 committed by the worker, 0 → 2 abandoned
//     by the watchdog) decides exactly one owner for each sample's result
//     slot. The abandoned goroutine leaks by design until its blocking call
//     returns — it detects the lost CAS, touches nothing shared, and exits
//     silently — while a replacement worker keeps the pool at strength.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vstat/internal/lifecycle"
	"vstat/internal/obs"
	"vstat/internal/obs/trace"
)

// SampleArmer is implemented by pooled worker states whose circuits enforce
// per-sample budgets (see spice.Circuit.ArmSample). The engine arms each
// sample just before fn runs; states without the method run unarmed.
type SampleArmer interface {
	ArmSample(ctx context.Context, b lifecycle.Budget)
}

// TraceAttacher is implemented by worker states that can route solver
// phase spans to a sample tracer (pooled circuit benches forward to their
// obs.Scope). The engine attaches each worker's tracer once at startup;
// states without the method still get sample-level spans and diagnostics,
// just no phase detail.
type TraceAttacher interface {
	AttachTracer(t obs.Tracer)
}

// WorkReporter exposes a state's cumulative solver work — Newton
// iterations and rescue stages — as two integers, cheap enough to snapshot
// around every sample. The flight recorder ranks samples on the deltas;
// both counters must be pure functions of (seed, idx) so the worst-K set
// is identical at any worker count (see spice.SolverStats.Work).
type WorkReporter interface {
	SolverWork() (iters, rescues int64)
}

// CheckpointSink receives per-sample completions during a run and answers
// which samples an earlier run already completed. *Checkpoint[T] is the
// concrete implementation; the interface keeps the engine non-generic over
// the checkpoint. Implementations must be safe for concurrent use.
type CheckpointSink interface {
	// Completed reports whether sample idx was already recorded (by a
	// previous run being resumed); the engine skips it.
	Completed(idx int) bool
	// Record stores sample idx's outcome: its value (nil when err != nil),
	// the rescue-counter delta attributable to just this sample, and its
	// error if it failed.
	Record(idx int, value any, rescued map[string]int64, err error)
}

// RunOpts bundles the lifecycle knobs of a context-aware run. The zero
// value reproduces the classic engine exactly.
type RunOpts struct {
	// Policy is the failure policy (FailFast / SkipAndRecord + cap).
	Policy Policy
	// Budget bounds each sample's solver work (see lifecycle.Budget); armed
	// on states implementing SampleArmer. Budget.Wall also activates the
	// hang watchdog.
	Budget lifecycle.Budget
	// HangGrace is how far past Budget.Wall an in-flight sample may run
	// before the watchdog abandons it; <= 0 defaults to Budget.Wall. Only
	// meaningful when Budget.Wall > 0.
	HangGrace time.Duration
	// Checkpoint, when non-nil, records completions and marks already-done
	// samples to skip (resume).
	Checkpoint CheckpointSink
	// Offset shifts the run's global sample identity: the engine still claims
	// local indices 0..n-1, but sample i runs as global index Offset+i — its
	// RNG is SampleRNG(seed, Offset+i), fn receives the global index, and
	// RunReport failures carry global indices. An index-range shard
	// [Offset, Offset+n) therefore computes exactly the samples (and failure
	// records) a full run computes for those indices, which is what makes
	// sharded results mergeable bit-identically (internal/shard). The result
	// slice and any CheckpointSink stay local (indices 0..n-1).
	Offset int
	// Trace, when non-nil, arms the distributed-tracing flight recorder:
	// each worker gets a trace.SampleTracer (attached to states
	// implementing TraceAttacher), every sample is bracketed by a span
	// carrying its fixed-size diagnostic, and the K worst samples keep
	// full span detail (merged deterministically across workers). Nil
	// keeps the hot path at one pointer check per sample and zero
	// allocations.
	Trace *trace.MC
}

// classifyVerdict maps a sample outcome onto the flight-recorder verdict
// vocabulary.
func classifyVerdict(err error) string {
	if err == nil {
		return trace.VerdictOK
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		return trace.VerdictPanic
	}
	var be *lifecycle.BudgetError
	if errors.As(err, &be) {
		switch be.Kind {
		case lifecycle.OverIters:
			return trace.VerdictBudgetIters
		case lifecycle.OverHang:
			return trace.VerdictBudgetHang
		default:
			return trace.VerdictBudgetWall
		}
	}
	return trace.VerdictFailed
}

// MapCtx is Map with a context: a cancelled ctx stops new claims, drains
// in-flight samples, and returns the partial results with an error wrapping
// ctx.Err().
func MapCtx[T any](ctx context.Context, n int, seed int64, workers int,
	fn func(idx int, rng *rand.Rand) (T, error)) ([]T, error) {
	out, _, err := MapReportCtx(ctx, n, seed, workers, RunOpts{}, fn)
	return out, err
}

// MapReportCtx is Map with a context, lifecycle options (failure policy,
// budgets, checkpoint) and a RunReport.
func MapReportCtx[T any](ctx context.Context, n int, seed int64, workers int, opts RunOpts,
	fn func(idx int, rng *rand.Rand) (T, error)) ([]T, RunReport, error) {
	return MapPooledReportCtx(ctx, n, seed, workers, opts,
		func(int) (struct{}, error) { return struct{}{}, nil },
		func(_ struct{}, idx int, rng *rand.Rand) (T, error) { return fn(idx, rng) })
}

// workerSlot is one worker's watchdog-visible in-flight sample: the claimed
// index (-1 when idle) and its start time in nanoseconds since the run
// base. The worker stores start before idx, so a coordinator that observes
// idx also observes its start. gone is touched only by the coordinator.
type workerSlot struct {
	idx   atomic.Int64
	start atomic.Int64
	gone  bool
}

// MapPooledReportCtx is Map with per-worker pooled state, an explicit
// failure policy, a RunReport, a context, per-sample budgets, a hang
// watchdog, and optional checkpointing — the engine every other Map variant
// delegates to.
//
// newState builds one S per worker (a circuit template with preallocated
// solver scratch, say), and fn re-stamps and evaluates sample idx against
// its worker's state. Sample idx's PRNG is derived from (seed, idx) alone
// and the per-worker state must not leak sample-dependent results across
// samples, so output stays bit-identical for any worker count and
// scheduling. A newState error aborts before any samples run on that
// worker; sample errors are reported for the lowest failing index.
//
// Each sample runs under panic recovery: a panicking sample is converted
// into a per-sample *PanicError without killing the process, the worker, or
// the pool, and the worker's pooled state stays usable for the next sample.
// Under SkipAndRecord the returned slice keeps the zero value at failed
// indices (drop them with Compact); under FailFast (or a tripped failure
// cap) the slice is nil and the error describes the failure, with the
// RunReport still populated for diagnosis. Further:
//
//   - On cancellation the run returns its partial results (failed and
//     never-claimed slots hold zero values), RunReport.Cancelled is set,
//     samples that were in flight when the context died are counted in
//     RunReport.Interrupted (not Attempted/Failed — they will produce
//     identical results when re-run), and the error wraps ctx.Err().
//   - A sample exceeding its budget fails with *lifecycle.BudgetError and
//     follows the failure policy like any other sample error.
//   - With a checkpoint, already-completed samples are skipped and every
//     completion is recorded; the checkpoint's own Results/Report overlay
//     restored and new outcomes into the full-run view.
func MapPooledReportCtx[S, T any](ctx context.Context, n int, seed int64, workers int, opts RunOpts,
	newState func(worker int) (S, error),
	fn func(st S, idx int, rng *rand.Rand) (T, error)) ([]T, RunReport, error) {
	rep := RunReport{}
	if n <= 0 {
		return nil, rep, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	pol := opts.Policy
	ck := opts.Checkpoint
	off := opts.Offset

	// failLimit is the largest failure count that does NOT abort the run.
	// Cancellation-interrupted samples never count against it.
	failLimit := int64(n)
	switch {
	case pol.OnFailure == FailFast:
		failLimit = 0
	case pol.MaxFailFrac > 0:
		failLimit = int64(pol.MaxFailFrac * float64(n))
	}

	ps := currentProgress()
	if ps != nil {
		ps.RunStart(n, workers)
		defer ps.RunEnd()
	}

	out := make([]T, n)
	errs := make([]error, n)
	ran := make([]bool, n)
	// commit decides the single owner of each sample's result slot:
	// 0 pending, 1 committed by its worker, 2 abandoned by the watchdog.
	commit := make([]atomic.Int32, n)
	var next, failed atomic.Int64
	var abort atomic.Bool
	base := time.Now()

	// Worker states and state errors are registered at worker exit (never
	// by abandoned workers), so post-run reads race nothing.
	var mu sync.Mutex
	var states []S
	var stateErr error

	exitCh := make(chan struct{})
	// runWorker returns true when the worker was abandoned by the watchdog
	// (lost a commit CAS): it must then vanish without signalling exit —
	// the coordinator already accounted for it.
	runWorker := func(w int, sl *workerSlot) bool {
		st, err := safeState(newState, w)
		if err != nil {
			mu.Lock()
			if stateErr == nil {
				stateErr = fmt.Errorf("montecarlo: worker %d state: %w", w, err)
			}
			mu.Unlock()
			abort.Store(true)
			return false
		}
		armer, armed := any(st).(SampleArmer)
		reporter, reports := any(st).(RescueReporter)
		wt := opts.Trace.NewWorker(w)
		var workRep WorkReporter
		if wt != nil {
			if ta, ok := any(st).(TraceAttacher); ok {
				ta.AttachTracer(wt)
			}
			workRep, _ = any(st).(WorkReporter)
		}
		for !abort.Load() && ctx.Err() == nil {
			idx := int(next.Add(1)) - 1
			if idx >= n {
				break
			}
			if ck != nil && ck.Completed(idx) {
				continue
			}
			sl.start.Store(int64(time.Since(base)))
			sl.idx.Store(int64(idx))
			var prevCounts map[string]int64
			if ck != nil && reports {
				prevCounts = reporter.RescueCounts()
			}
			if armed {
				armer.ArmSample(ctx, opts.Budget)
			}
			var preIters, preRescues int64
			if wt != nil {
				if workRep != nil {
					preIters, preRescues = workRep.SolverWork()
				}
				wt.BeginSample(off + idx)
			}
			res, serr := safeSample(fn, st, off+idx, SampleRNG(seed, off+idx))
			sl.idx.Store(-1)
			if !commit[idx].CompareAndSwap(0, 1) {
				// The watchdog gave up on this sample (and on us): its error
				// slot is already written, a replacement worker is running.
				// Exit without touching anything shared (the tracer is
				// worker-local and never collected from an abandoned
				// worker, so dropping the sample record here races nothing).
				return true
			}
			if wt != nil {
				d := trace.SampleDiag{Verdict: classifyVerdict(serr)}
				if workRep != nil {
					iters, rescues := workRep.SolverWork()
					d.Iters, d.Rescues = iters-preIters, rescues-preRescues
				}
				if serr != nil {
					d.Err = serr.Error()
					var ne interface{ WorstNode() string }
					if errors.As(serr, &ne) {
						d.WorstNode = ne.WorstNode()
					}
				}
				wt.EndSample(d)
			}
			ran[idx] = true
			out[idx], errs[idx] = res, serr
			if lifecycle.IsCancellation(serr) {
				// In flight when the run died: recorded nowhere, re-run on
				// resume, excluded from failure accounting and progress.
				continue
			}
			if ck != nil {
				var v any
				if serr == nil {
					v = res
				}
				ck.Record(idx, v, rescueDelta(reporter, reports, prevCounts), serr)
			}
			if ps != nil {
				ps.SampleDone(serr != nil)
			}
			if serr != nil && failed.Add(1) > failLimit {
				abort.Store(true)
			}
		}
		opts.Trace.FinishWorker(wt)
		mu.Lock()
		states = append(states, st)
		mu.Unlock()
		return false
	}

	slots := make([]*workerSlot, 0, workers)
	spawn := func(w int) *workerSlot {
		sl := &workerSlot{}
		sl.idx.Store(-1)
		slots = append(slots, sl)
		go func() {
			if !runWorker(w, sl) {
				exitCh <- struct{}{}
			}
		}()
		return sl
	}
	for w := 0; w < workers; w++ {
		spawn(w)
	}
	spawned := workers

	// Coordinator: drain worker exits, and — when a wall budget arms the
	// watchdog — periodically scan in-flight samples for hangs. A nil tick
	// channel (no wall budget) blocks forever in select, reducing this to a
	// plain drain loop.
	var tickC <-chan time.Time
	var hangLimit time.Duration
	if opts.Budget.Wall > 0 {
		grace := opts.HangGrace
		if grace <= 0 {
			grace = opts.Budget.Wall
		}
		hangLimit = opts.Budget.Wall + grace
		tick := hangLimit / 4
		if tick < time.Millisecond {
			tick = time.Millisecond
		}
		ticker := time.NewTicker(tick)
		defer ticker.Stop()
		tickC = ticker.C
	}
	received, abandoned := 0, 0
	for received+abandoned < spawned {
		select {
		case <-exitCh:
			received++
		case now := <-tickC:
			nowNs := int64(now.Sub(base))
			for _, sl := range slots {
				if sl.gone {
					continue
				}
				idx := sl.idx.Load()
				if idx < 0 || nowNs-sl.start.Load() <= int64(hangLimit) {
					continue
				}
				if !commit[idx].CompareAndSwap(0, 2) {
					continue // just committed; the worker is fine
				}
				// Abandon: classify as a per-sample budget failure, spawn a
				// replacement so siblings don't inherit the dead worker's
				// share of the population.
				sl.gone = true
				abandoned++
				herr := &lifecycle.BudgetError{
					Kind:    lifecycle.OverHang,
					Elapsed: time.Duration(nowNs - sl.start.Load()),
					Wall:    opts.Budget.Wall,
				}
				ran[idx] = true
				errs[idx] = herr
				if ck != nil {
					ck.Record(int(idx), nil, nil, herr)
				}
				if ps != nil {
					ps.SampleDone(true)
				}
				if failed.Add(1) > failLimit {
					abort.Store(true)
				}
				if !abort.Load() && ctx.Err() == nil {
					spawn(spawned)
					spawned++
				}
			}
		}
	}

	if stateErr != nil {
		return nil, rep, stateErr
	}

	for idx := range errs {
		if !ran[idx] {
			continue
		}
		err := errs[idx]
		if err != nil && lifecycle.IsCancellation(err) {
			rep.Interrupted++
			continue
		}
		rep.Attempted++
		switch {
		case err == nil:
			rep.Succeeded++
		default:
			rep.Failed++
			var pe *PanicError
			if errors.As(err, &pe) {
				rep.Panics++
			}
			rep.Failures = append(rep.Failures, SampleFailure{Idx: off + idx, Err: err})
		}
	}
	mu.Lock()
	for _, st := range states {
		if rr, ok := any(st).(RescueReporter); ok {
			for k, v := range rr.RescueCounts() {
				if v == 0 {
					continue
				}
				if rep.Rescued == nil {
					rep.Rescued = make(map[string]int64)
				}
				rep.Rescued[k] += v
			}
		}
	}
	mu.Unlock()

	if ctx.Err() != nil {
		rep.Cancelled = true
		return out, rep, fmt.Errorf("montecarlo: run cancelled after %d completed samples: %w",
			rep.Succeeded, ctx.Err())
	}
	if int64(rep.Failed) > failLimit {
		if pol.OnFailure == FailFast {
			f := rep.Failures[0]
			return nil, rep, fmt.Errorf("montecarlo: sample %d: %w", f.Idx, f.Err)
		}
		rep.CapTripped = true
		return nil, rep, fmt.Errorf("montecarlo: %d of %d attempted samples failed (cap %g): %w",
			rep.Failed, rep.Attempted, pol.MaxFailFrac, ErrTooManyFailures)
	}
	return out, rep, nil
}

// rescueDelta returns the rescue counters accumulated by just the sample
// that ran between the prev snapshot and now, keyed by stage (nil when the
// state doesn't report).
func rescueDelta(rr RescueReporter, ok bool, prev map[string]int64) map[string]int64 {
	if !ok {
		return nil
	}
	cur := rr.RescueCounts()
	var d map[string]int64
	for k, v := range cur {
		if dv := v - prev[k]; dv != 0 {
			if d == nil {
				d = make(map[string]int64, len(cur))
			}
			d[k] = dv
		}
	}
	return d
}
