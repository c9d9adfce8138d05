// Package shard distributes a Monte Carlo run across workers as index-range
// shards and merges the results bit-identically to a single-process run.
//
// The determinism contract it builds on is montecarlo's (seed, idx) sample
// independence: sample idx's PRNG and therefore its outcome depend only on
// the run seed and the global index, never on scheduling. A worker executes
// shard [Lo, Hi) with montecarlo.RunOpts.Offset = Lo, so the values and
// failure records it produces are exactly the slice a full run would
// produce for those indices. Merging is then pure concatenation plus
// envelope validation — no floating-point reduction whose order could vary.
//
// Robustness is the core of the design: per-shard wall budgets, bounded
// retry with exponential backoff + deterministic jitter, straggler
// detection with speculative re-dispatch (first committed result wins via
// CAS, mirroring the hang-watchdog contract), duplicate- and
// corrupt-envelope rejection (the envelope reuses the checkpoint schema's
// version/config-hash/N validation as the wire format), and graceful
// degradation to local execution when every worker is gone. A scripted
// fault-injection transport (FaultPlan) makes each of those paths
// deterministic to test.
package shard

import (
	"fmt"
	"sort"
	"time"

	"vstat/internal/lifecycle"
	"vstat/internal/montecarlo"
	"vstat/internal/obs/trace"
)

// EnvelopeVersion guards the wire schema, like checkpointVersion guards the
// checkpoint file.
const EnvelopeVersion = 1

// MaxShardSamples caps one shard's index range. A worker allocates a result
// slot per sample before it runs any, so an uncapped Hi−Lo arriving over the
// wire would let one request claim unbounded memory.
const MaxShardSamples = 1 << 20

// Request asks a worker to execute one shard: the contiguous global index
// range [Lo, Hi) of an N-sample run. ConfigHash pins the run identity
// (model parameters, bench, seed, …) the same way a checkpoint's hash
// does — a worker built for a different configuration must refuse the
// request rather than silently compute a different population.
type Request struct {
	ConfigHash string `json:"config_hash"`
	Seed       int64  `json:"seed"`
	N          int    `json:"n"`     // total run size, for validation
	Shard      int    `json:"shard"` // shard ordinal, for logging/faults
	Lo         int    `json:"lo"`
	Hi         int    `json:"hi"`
	// Attempt numbers re-dispatches of the same shard (0 = first try) so
	// transports and fault plans can distinguish them.
	Attempt int `json:"attempt"`
	// Bench names the worker-side sample function; the executor decides
	// what (if anything) it means.
	Bench string `json:"bench,omitempty"`

	// SampleBudget and HangGrace bound each sample inside the worker
	// exactly as in a local run (lifecycle.Budget semantics).
	SampleBudget lifecycle.Budget `json:"sample_budget,omitempty"`
	HangGrace    time.Duration    `json:"hang_grace,omitempty"`
	// MaxFailFrac > 0 selects SkipAndRecord with that cap; 0 means
	// fail-fast (the montecarlo default).
	MaxFailFrac float64 `json:"max_fail_frac,omitempty"`

	// Trace asks the worker to run its flight recorder for this attempt:
	// the worker opens a shard span with ID TraceBase parented to the
	// coordinator's TraceParent span, derives sample span IDs from the
	// TraceBase block (reserved coordinator-side, so blocks from
	// concurrent attempts never collide), keeps its worst-TraceK sample
	// records, and ships spans + records back in the envelope. This is
	// how one run's trace stitches across process boundaries.
	Trace       bool   `json:"trace,omitempty"`
	TraceK      int    `json:"trace_k,omitempty"`
	TraceParent uint64 `json:"trace_parent,omitempty"`
	TraceBase   uint64 `json:"trace_base,omitempty"`
}

// Policy translates the request's failure knob into a montecarlo.Policy.
func (r Request) Policy() montecarlo.Policy {
	if r.MaxFailFrac > 0 {
		return montecarlo.SkipUpTo(r.MaxFailFrac)
	}
	return montecarlo.Policy{OnFailure: montecarlo.FailFast}
}

// Validate rejects a malformed request before any work runs. Every failure
// is a FatalError: the same request fails the same way on every worker, so
// retrying it cannot help.
func (r Request) Validate() error {
	if r.N <= 0 || r.Lo < 0 || r.Hi <= r.Lo || r.Hi > r.N {
		return &FatalError{Err: fmt.Errorf("shard: bad range [%d,%d) of n=%d", r.Lo, r.Hi, r.N)}
	}
	if r.Hi-r.Lo > MaxShardSamples {
		return &FatalError{Err: fmt.Errorf("shard: range [%d,%d) holds %d samples, cap is %d",
			r.Lo, r.Hi, r.Hi-r.Lo, MaxShardSamples)}
	}
	return nil
}

// Envelope is one shard's result on the wire. It reuses the checkpoint
// file's schema shape — version, config hash, N, done bitmap, results,
// recorded failures, rescue totals — so the same validation rejects stale,
// foreign, truncated, or corrupt payloads. Failure indices are global
// (montecarlo.RunOpts.Offset), Results is local to [Lo, Hi).
type Envelope[T any] struct {
	Version    int                          `json:"version"`
	ConfigHash string                       `json:"config_hash"`
	N          int                          `json:"n"`
	Shard      int                          `json:"shard"`
	Lo         int                          `json:"lo"`
	Hi         int                          `json:"hi"`
	Results    []T                          `json:"results"`
	Failures   []montecarlo.RecordedFailure `json:"failures,omitempty"`
	Rescued    map[string]int64             `json:"rescued,omitempty"`
	// Attempted counts samples the worker started (Hi-Lo on a healthy
	// shard; carried so the merged RunReport is exact, not inferred).
	Attempted int `json:"attempted"`

	// TraceEvents (the worker-side shard span) and Worst (the worker's
	// worst-K sample records, spans included) come back only when the
	// request set Trace. The coordinator merges them from committed
	// envelopes exclusively, in shard order — duplicates from lost or
	// speculative attempts never reach the recorder.
	TraceEvents []trace.Event        `json:"trace_events,omitempty"`
	Worst       []trace.SampleRecord `json:"worst,omitempty"`
}

// Validate checks the envelope against the coordinator's expectation for
// shard [lo, hi) of an n-sample run under cfgHash. Any mismatch — wrong
// version, foreign config, wrong range, truncated results, out-of-range or
// unsorted failure indices — rejects the envelope; the coordinator treats a
// rejected envelope as a lost attempt and retries.
func (e *Envelope[T]) Validate(cfgHash string, n, lo, hi int) error {
	if e.Version != EnvelopeVersion {
		return fmt.Errorf("shard: envelope version %d, want %d", e.Version, EnvelopeVersion)
	}
	if e.ConfigHash != cfgHash {
		return fmt.Errorf("shard: envelope from a different run configuration (hash %.12s…, want %.12s…)",
			e.ConfigHash, cfgHash)
	}
	if e.N != n || e.Lo != lo || e.Hi != hi {
		return fmt.Errorf("shard: envelope covers [%d,%d) of n=%d, want [%d,%d) of n=%d",
			e.Lo, e.Hi, e.N, lo, hi, n)
	}
	if len(e.Results) != hi-lo {
		return fmt.Errorf("shard: envelope holds %d results for a %d-sample shard", len(e.Results), hi-lo)
	}
	if e.Attempted != hi-lo {
		return fmt.Errorf("shard: envelope attempted %d of %d samples (incomplete shard)", e.Attempted, hi-lo)
	}
	prev := lo - 1
	for _, f := range e.Failures {
		if f.Idx < lo || f.Idx >= hi {
			return fmt.Errorf("shard: failure index %d outside [%d,%d)", f.Idx, lo, hi)
		}
		if f.Idx <= prev {
			return fmt.Errorf("shard: failure indices not strictly ascending at %d", f.Idx)
		}
		prev = f.Idx
	}
	return nil
}

// Merge assembles validated shard envelopes into the full-run result vector
// and RunReport. The envelopes must exactly tile [0, n) — any gap or
// overlap is an error. Determinism argument: each result slot is copied
// from the unique shard owning its index, failures are concatenated in
// ascending global order, and rescue totals are integer sums — there is no
// order-dependent floating-point arithmetic anywhere in the merge, so the
// output is bit-identical to a single-process run regardless of shard size
// or completion order.
func Merge[T any](n int, envs []*Envelope[T]) ([]T, montecarlo.RunReport, error) {
	rep := montecarlo.RunReport{}
	sorted := append([]*Envelope[T](nil), envs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Lo < sorted[j].Lo })
	out := make([]T, n)
	next := 0
	for _, e := range sorted {
		if e.Lo != next {
			return nil, rep, fmt.Errorf("shard: merge gap/overlap at index %d (next envelope starts at %d)", next, e.Lo)
		}
		copy(out[e.Lo:e.Hi], e.Results)
		rep.Attempted += e.Attempted
		rep.Failed += len(e.Failures)
		rep.Succeeded += e.Attempted - len(e.Failures)
		for _, f := range e.Failures {
			if f.Panic {
				rep.Panics++
			}
			rep.Failures = append(rep.Failures, montecarlo.SampleFailure{Idx: f.Idx, Err: f.Err()})
		}
		if len(e.Rescued) > 0 {
			if rep.Rescued == nil {
				rep.Rescued = make(map[string]int64)
			}
			for k, v := range e.Rescued {
				rep.Rescued[k] += v
			}
		}
		next = e.Hi
	}
	if next != n {
		return nil, rep, fmt.Errorf("shard: merge covers [0,%d) of n=%d", next, n)
	}
	return out, rep, nil
}

// AddGood folds a committed scalar envelope's successful samples into a
// streaming summary, skipping failed indices — the standard StreamFn body
// for float64 runs (`vsshard run -stream` uses it). Failure indices are
// validated strictly ascending, so one forward scan pairs them with the
// result slots.
func AddGood(env *Envelope[float64], sum *montecarlo.StreamSummary) {
	fi := 0
	for i, v := range env.Results {
		idx := env.Lo + i
		for fi < len(env.Failures) && env.Failures[fi].Idx < idx {
			fi++
		}
		if fi < len(env.Failures) && env.Failures[fi].Idx == idx {
			continue
		}
		sum.Add(v)
	}
}
