package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vstat/internal/lifecycle"
	"vstat/internal/montecarlo"
	"vstat/internal/obs/trace"
)

// Config parameterizes a coordinated run.
type Config struct {
	N          int
	Seed       int64
	ConfigHash string
	// ShardSize is the index-range width per shard; <= 0 defaults to 1024.
	// Above MaxShardSamples the run is refused, since every worker would
	// refuse its requests.
	ShardSize int
	// Bench is passed through to workers (names the sample function on
	// their side).
	Bench string

	// SampleBudget / HangGrace / MaxFailFrac travel in every Request and
	// bound the samples inside workers (lifecycle semantics, identical to
	// a local run).
	SampleBudget lifecycle.Budget
	HangGrace    time.Duration
	MaxFailFrac  float64

	// ShardWall bounds one dispatch attempt's wall time; 0 = unlimited.
	ShardWall time.Duration
	// MaxAttempts caps transport attempts per shard before the shard falls
	// back to local execution (or the run fails); <= 0 defaults to 4.
	MaxAttempts int
	// BackoffBase/BackoffMax shape the exponential retry backoff:
	// attempt k waits base·2^(k-1) + jitter, capped at max. Defaults
	// 50ms / 2s. Jitter is deterministic in (seed, shard, attempt) so a
	// replayed failure script backs off identically.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// StragglerAfter launches one speculative duplicate attempt against a
	// shard still uncommitted that long after its dispatch; 0 disables
	// speculation.
	StragglerAfter time.Duration
	// DeadAfter retires a worker endpoint after that many consecutive
	// failed attempts; <= 0 defaults to 3. A fatal dispatch error (config
	// mismatch — see FatalError) retires the endpoint immediately: a worker
	// built for a different run can never serve any shard of this one.
	DeadAfter int

	// Metrics, when non-nil, receives the run's Stats (RecordStats).
	Metrics *Metrics

	// Trace, when non-nil, stitches the run into a distributed trace:
	// every dispatch attempt records a coordinator-side span under
	// TraceParent, each Request carries the parent span ID plus a freshly
	// reserved sample-ID block, and the committed envelopes' worker-side
	// spans and worst-sample records merge into the recorder in shard
	// order (deterministic regardless of commit order). TraceK <= 0
	// defaults to the recorder's K.
	Trace       *trace.Recorder
	TraceParent uint64
	TraceK      int
}

func (c *Config) withDefaults() Config {
	d := *c
	if d.ShardSize <= 0 {
		d.ShardSize = 1024
	}
	if d.MaxAttempts <= 0 {
		d.MaxAttempts = 4
	}
	if d.BackoffBase <= 0 {
		d.BackoffBase = 50 * time.Millisecond
	}
	if d.BackoffMax <= 0 {
		d.BackoffMax = 2 * time.Second
	}
	if d.DeadAfter <= 0 {
		d.DeadAfter = 3
	}
	return d
}

// StreamFn folds one committed envelope into caller-owned running state —
// the constant-memory merge hook. The coordinator calls it exactly once per
// shard (commit CAS guarantees it), serialized, in commit order; the
// envelope's Results are released right after the call, so the callback
// must not retain the envelope or any slice inside it. Fold into an
// order-independent accumulator (montecarlo.StreamSummary) to stay
// bit-identical to a single-process run: commit order is
// scheduling-dependent.
type StreamFn[T any] func(env *Envelope[T])

// RunOptions carries the crash-safety and memory-profile knobs that need
// the run's result type (Config stays non-generic).
type RunOptions[T any] struct {
	// Journal, when non-nil, is the durable dispatch journal: shards it
	// already holds are restored without dispatch (Stats.ResumeSkipped),
	// and every new commit is appended + fsynced before it counts. The
	// journal must have been created/opened for this exact Config.
	Journal *Journal[T]
	// Stream, when non-nil, switches the run to the streaming
	// constant-memory merge: each committed envelope is folded via Stream
	// and released instead of buffered, holding peak coordinator memory at
	// O(max shard × in-flight attempts) rather than O(N). Result.Out is
	// nil; Result.Report is still exact (per-shard failure records and
	// counts are retained — they are small and bounded by the failure
	// rate, not by N).
	Stream StreamFn[T]
}

// Result is a completed coordinated run.
type Result[T any] struct {
	// Out is the merged full-run result vector — nil in streaming mode,
	// where the values live only in the Stream callback's accumulator.
	Out    []T
	Report montecarlo.RunReport
	Shards int
	Stats  Stats
}

// ErrNoWorkers reports a run that lost every endpoint with shards still
// uncommitted and had no local executor to degrade to.
var ErrNoWorkers = errors.New("shard: all workers lost and no local executor")

// shardMeta is what the streaming merge keeps of a committed envelope after
// the values are folded and released: exactly the fields the final
// RunReport and trace merge need, none of them O(shard size).
type shardMeta struct {
	attempted   int
	failures    []montecarlo.RecordedFailure
	rescued     map[string]int64
	traceEvents []trace.Event
	worst       []trace.SampleRecord
}

// shardState tracks one shard through the dispatch/commit state machine.
// commit is the CAS word: 0 = pending, 1 = committed (first valid envelope
// wins; later valid envelopes are duplicates) — the same first-writer-wins
// contract the hang watchdog uses for sample commits.
type shardState[T any] struct {
	ord    int
	lo, hi int

	commit      atomic.Int32
	env         *Envelope[T] // buffered mode: owned by the committer, read after join
	meta        *shardMeta   // streaming mode: what survives the fold
	attempts    atomic.Int32 // next attempt ordinal to hand out
	failures    atomic.Int32 // failed/lost attempts so far
	inFlight    atomic.Int32
	specDone    atomic.Bool // one speculative duplicate max per shard
	localQueued atomic.Bool
	dispatchNS  atomic.Int64 // wall-clock ns of the newest dispatch start
}

type ticketKind int

const (
	ticketInitial ticketKind = iota
	ticketRetry
	ticketSpec
)

type ticket struct {
	shard   int
	attempt int
	kind    ticketKind
}

// coordinator is the mutable state of one Run.
type coordinator[T any] struct {
	cfg    Config
	opts   RunOptions[T]
	shards []*shardState[T]
	local  ExecFn[T]

	tickets   chan ticket
	localQ    chan ticket
	committed atomic.Int64
	live      atomic.Int64 // live worker endpoints
	done      chan struct{}
	failOnce  sync.Once
	failErr   error
	failedCh  chan struct{}

	// commitMu serializes the post-CAS ingest (journal append + streaming
	// fold): commits are per-shard rare, so one lock keeps both the
	// journal single-writer and the Stream callback free of concurrency.
	commitMu sync.Mutex

	statDispatched atomic.Int64
	statRetried    atomic.Int64
	statSpeculated atomic.Int64
	statDuplicates atomic.Int64
	statLost       atomic.Int64
	statWorkers    atomic.Int64
	statLocal      atomic.Int64
	statResumed    atomic.Int64
	statJournal    atomic.Int64

	// liveEnvs counts envelopes the coordinator currently retains;
	// peakLive is its high-water mark — the streaming-merge memory bound
	// the acceptance test pins (buffered mode honestly peaks at the shard
	// count).
	liveEnvs atomic.Int64
	peakLive atomic.Int64

	latMu sync.Mutex
	lats  []time.Duration
}

func (c *coordinator[T]) streaming() bool { return c.opts.Stream != nil }

func (c *coordinator[T]) noteLive(d int64) {
	v := c.liveEnvs.Add(d)
	for {
		p := c.peakLive.Load()
		if v <= p || c.peakLive.CompareAndSwap(p, v) {
			return
		}
	}
}

// Run executes an N-sample Monte Carlo run as index-range shards over the
// given worker endpoints, retrying, speculating, and degrading per cfg,
// and merges the committed envelopes bit-identically to a single-process
// run. local, when non-nil, is the coordinator's in-process executor: it
// serves shards whose transport attempts are exhausted and the whole run
// when every endpoint has been retired (graceful degradation). With no
// endpoints at all, every shard runs locally.
func Run[T any](ctx context.Context, cfg Config, endpoints []Endpoint[T], local ExecFn[T]) (Result[T], error) {
	return RunWithOptions(ctx, cfg, endpoints, local, RunOptions[T]{})
}

// RunWithOptions is Run with the crash-safety knobs: a durable dispatch
// journal (killed coordinator resumes re-dispatching only uncommitted
// ranges) and/or the streaming constant-memory merge.
func RunWithOptions[T any](ctx context.Context, cfg Config, endpoints []Endpoint[T], local ExecFn[T], opts RunOptions[T]) (Result[T], error) {
	cfg = cfg.withDefaults()
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.N <= 0 {
		return Result[T]{}, nil
	}
	if cfg.ShardSize > MaxShardSamples {
		return Result[T]{}, fmt.Errorf("shard: shard size %d exceeds the %d-sample cap", cfg.ShardSize, MaxShardSamples)
	}
	if opts.Journal != nil && !opts.Journal.matches(cfg) {
		return Result[T]{}, fmt.Errorf("shard: journal %s belongs to a different run configuration", opts.Journal.path)
	}
	nShards := (cfg.N + cfg.ShardSize - 1) / cfg.ShardSize
	c := &coordinator[T]{
		cfg:   cfg,
		opts:  opts,
		local: local,
		// Never closed; capacity covers every possible initial, retry, and
		// speculative ticket so enqueues never block.
		tickets:  make(chan ticket, nShards*(cfg.MaxAttempts+2)+16),
		localQ:   make(chan ticket, nShards+16),
		done:     make(chan struct{}),
		failedCh: make(chan struct{}),
	}
	for i := 0; i < nShards; i++ {
		lo, hi, _ := shardRange(cfg.N, cfg.ShardSize, i)
		c.shards = append(c.shards, &shardState[T]{ord: i, lo: lo, hi: hi})
	}

	// Restore the journal's committed prefix before anything dispatches:
	// each restored envelope takes its shard's commit CAS exactly as a live
	// one would, so the rest of the machinery simply never sees those
	// shards as pending. Replay streams one envelope at a time — resume is
	// as constant-memory as the streaming merge itself.
	if opts.Journal != nil {
		_, err := opts.Journal.Replay(func(env *Envelope[T]) error {
			c.tryCommit(c.shards[env.Shard], env, time.Time{}, true)
			return nil
		})
		if err != nil {
			return Result[T]{Shards: nShards}, fmt.Errorf("shard: journal replay: %w", err)
		}
	}

	dispatchCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var wg sync.WaitGroup
	if len(endpoints) == 0 {
		// Degenerate deployment: no workers configured, run everything on
		// the local executor.
		for _, s := range c.shards {
			if s.commit.Load() != 0 {
				continue
			}
			s.localQueued.Store(true)
			c.localQ <- ticket{shard: s.ord, kind: ticketInitial}
		}
	} else {
		for _, s := range c.shards {
			if s.commit.Load() != 0 {
				continue
			}
			c.tickets <- ticket{shard: s.ord, kind: ticketInitial}
		}
		c.live.Store(int64(len(endpoints)))
		for _, ep := range endpoints {
			wg.Add(1)
			go func(ep Endpoint[T]) {
				defer wg.Done()
				c.workerLoop(dispatchCtx, ep)
			}(ep)
		}
	}
	if local != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.localLoop(dispatchCtx)
		}()
	}
	if cfg.StragglerAfter > 0 && len(endpoints) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.stragglerLoop(dispatchCtx)
		}()
	}

	var runErr error
	select {
	case <-c.done:
	case <-c.failedCh:
		runErr = c.failErr
	case <-ctx.Done():
		runErr = fmt.Errorf("shard: run cancelled: %w", ctx.Err())
	}
	// Stop everything and join every goroutine so stats and the committed
	// envelopes are final before the merge reads them.
	cancel()
	wg.Wait()

	stats := Stats{
		Dispatched:        c.statDispatched.Load(),
		Retried:           c.statRetried.Load(),
		Speculated:        c.statSpeculated.Load(),
		Committed:         c.committed.Load(),
		Duplicates:        c.statDuplicates.Load(),
		Lost:              c.statLost.Load(),
		WorkersLost:       c.statWorkers.Load(),
		LocalFallback:     c.statLocal.Load(),
		ResumeSkipped:     c.statResumed.Load(),
		JournalCommits:    c.statJournal.Load(),
		PeakLiveEnvelopes: c.peakLive.Load(),
		CommitLatency:     c.lats,
	}
	cfg.Metrics.RecordStats(stats)
	res := Result[T]{Shards: nShards, Stats: stats}
	if runErr != nil {
		return res, runErr
	}
	if c.streaming() {
		rep, err := c.assembleStreamed()
		if err != nil {
			return res, err
		}
		res.Report = rep
		return res, nil
	}
	envs := make([]*Envelope[T], 0, nShards)
	for _, s := range c.shards {
		if s.commit.Load() != 1 || s.env == nil {
			return res, fmt.Errorf("shard: shard %d [%d,%d) never committed", s.ord, s.lo, s.hi)
		}
		envs = append(envs, s.env)
		// Merge trace payloads committed-envelopes-only and in shard order:
		// the worst-K set is deterministic in the diagnostics, and the span
		// stream is deterministic up to timestamps.
		if cfg.Trace != nil {
			cfg.Trace.Append(s.env.TraceEvents...)
			cfg.Trace.AddWorst(s.env.Worst)
		}
	}
	out, rep, err := Merge(cfg.N, envs)
	if err != nil {
		return res, err
	}
	res.Out, res.Report = out, rep
	return res, nil
}

// assembleStreamed builds the final RunReport from the per-shard metas, in
// shard order — exactly the accumulation Merge performs, minus the result
// vector the Stream callback already consumed.
func (c *coordinator[T]) assembleStreamed() (montecarlo.RunReport, error) {
	rep := montecarlo.RunReport{}
	for _, s := range c.shards {
		if s.commit.Load() != 1 || s.meta == nil {
			return rep, fmt.Errorf("shard: shard %d [%d,%d) never committed", s.ord, s.lo, s.hi)
		}
		m := s.meta
		rep.Attempted += m.attempted
		rep.Failed += len(m.failures)
		rep.Succeeded += m.attempted - len(m.failures)
		for _, f := range m.failures {
			if f.Panic {
				rep.Panics++
			}
			rep.Failures = append(rep.Failures, montecarlo.SampleFailure{Idx: f.Idx, Err: f.Err()})
		}
		if len(m.rescued) > 0 {
			if rep.Rescued == nil {
				rep.Rescued = make(map[string]int64)
			}
			for k, v := range m.rescued {
				rep.Rescued[k] += v
			}
		}
		if c.cfg.Trace != nil {
			c.cfg.Trace.Append(m.traceEvents...)
			c.cfg.Trace.AddWorst(m.worst)
		}
	}
	return rep, nil
}

// tryCommit is the single commit path: win the shard's CAS, make the
// envelope durable (journal append + fsync) when a journal is attached,
// then either fold-and-release it (streaming) or retain it for the final
// merge (buffered). restored marks journal replay: no re-append, no
// latency sample, counted in ResumeSkipped. Returns false when another
// attempt already committed the shard (the caller counts a duplicate).
func (c *coordinator[T]) tryCommit(s *shardState[T], env *Envelope[T], start time.Time, restored bool) bool {
	if !s.commit.CompareAndSwap(0, 1) {
		return false
	}
	c.noteLive(1)
	c.commitMu.Lock()
	if !restored && c.opts.Journal != nil {
		if err := c.opts.Journal.Append(env); err != nil {
			// Durability is the whole point of the journal: a commit that
			// cannot be made durable fails the run rather than silently
			// continuing volatile.
			c.commitMu.Unlock()
			c.noteLive(-1)
			c.failOnce.Do(func() {
				c.failErr = fmt.Errorf("shard: journal append for shard %d: %w", s.ord, err)
				close(c.failedCh)
			})
			return true
		}
		c.statJournal.Add(1)
	}
	if c.streaming() {
		if c.opts.Stream != nil {
			c.opts.Stream(env)
		}
		s.meta = &shardMeta{
			attempted:   env.Attempted,
			failures:    env.Failures,
			rescued:     env.Rescued,
			traceEvents: env.TraceEvents,
			worst:       env.Worst,
		}
	} else {
		s.env = env
	}
	c.commitMu.Unlock()
	if c.streaming() {
		c.noteLive(-1) // Results released; only the O(1) meta survives
	}
	if restored {
		c.statResumed.Add(1)
	} else {
		c.latMu.Lock()
		c.lats = append(c.lats, time.Since(start))
		c.latMu.Unlock()
	}
	if c.committed.Add(1) == int64(len(c.shards)) {
		close(c.done)
	}
	return true
}

func (c *coordinator[T]) request(s *shardState[T], attempt int) Request {
	r := Request{
		ConfigHash:   c.cfg.ConfigHash,
		Seed:         c.cfg.Seed,
		N:            c.cfg.N,
		Shard:        s.ord,
		Lo:           s.lo,
		Hi:           s.hi,
		Attempt:      attempt,
		Bench:        c.cfg.Bench,
		SampleBudget: c.cfg.SampleBudget,
		HangGrace:    c.cfg.HangGrace,
		MaxFailFrac:  c.cfg.MaxFailFrac,
	}
	if c.cfg.Trace != nil {
		r.Trace = true
		r.TraceK = c.cfg.TraceK
		if r.TraceK <= 0 {
			r.TraceK = c.cfg.Trace.K()
		}
		r.TraceParent = c.cfg.TraceParent
		// A fresh ID block per attempt: two attempts at the same shard
		// (retry, speculation) can both produce complete span sets without
		// colliding; only the committed one is ever merged.
		r.TraceBase = c.cfg.Trace.AllocBase()
	}
	return r
}

// workerLoop is one endpoint's dispatch loop: one in-flight attempt at a
// time, retired after cfg.DeadAfter consecutive failures — or immediately
// on a fatal dispatch error, since a worker refusing this run's config will
// refuse every shard of it.
func (c *coordinator[T]) workerLoop(ctx context.Context, ep Endpoint[T]) {
	consecutive := 0
	for {
		select {
		case <-ctx.Done():
			return
		case t := <-c.tickets:
			s := c.shards[t.shard]
			if s.commit.Load() != 0 || s.localQueued.Load() {
				continue // already satisfied or handed to local
			}
			ok, fatal := c.attempt(ctx, ep.Transport, s, t)
			if ctx.Err() != nil {
				return // don't blame the worker for run shutdown
			}
			if ok {
				consecutive = 0
				continue
			}
			consecutive++
			if fatal || consecutive >= c.cfg.DeadAfter {
				c.statWorkers.Add(1)
				if c.live.Add(-1) == 0 {
					c.sweepToLocal()
				}
				return
			}
		}
	}
}

// attempt runs one dispatch attempt and routes its outcome. ok is false
// when the attempt counts against the worker (lost/error/invalid); fatal
// additionally marks a non-retryable refusal (FatalError) that should
// retire the endpoint at once.
func (c *coordinator[T]) attempt(ctx context.Context, tr Transport[T], s *shardState[T], t ticket) (ok, fatal bool) {
	attempt := int(s.attempts.Add(1)) - 1
	c.statDispatched.Add(1)
	switch t.kind {
	case ticketRetry:
		c.statRetried.Add(1)
	case ticketSpec:
		c.statSpeculated.Add(1)
	}
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	start := time.Now()
	s.dispatchNS.Store(start.UnixNano())

	actx := ctx
	var acancel context.CancelFunc
	if c.cfg.ShardWall > 0 {
		actx, acancel = context.WithTimeout(ctx, c.cfg.ShardWall)
		defer acancel()
	}
	sp := c.cfg.Trace.Start(fmt.Sprintf("dispatch shard %d attempt %d", s.ord, attempt),
		trace.CatDispatch, c.cfg.TraceParent)
	envs, err := tr.Dispatch(actx, c.request(s, attempt))
	if ctx.Err() != nil {
		sp.Note("shutdown")
		sp.End()
		return true, false // run is shutting down; outcome no longer matters
	}
	committedHere := false
	var verr error
	if err == nil {
		for _, env := range envs {
			if env == nil {
				continue
			}
			if verr = env.Validate(c.cfg.ConfigHash, c.cfg.N, s.lo, s.hi); verr != nil {
				continue
			}
			if c.tryCommit(s, env, start, false) {
				committedHere = true
			} else {
				c.statDuplicates.Add(1)
			}
		}
	}
	if committedHere || s.commit.Load() != 0 {
		if committedHere {
			sp.Note("committed")
		} else {
			sp.Note("duplicate")
		}
		sp.End()
		return err == nil && verr == nil, false
	}
	// Attempt produced nothing usable for a still-pending shard: lost.
	sp.Note("lost")
	sp.End()
	c.statLost.Add(1)
	s.failures.Add(1)
	c.scheduleRetry(ctx, s)
	return false, IsFatal(err)
}

// scheduleRetry books the next attempt for a still-pending shard: an
// exponential-backoff transport retry while attempts remain and workers
// live, local fallback otherwise, run failure when neither exists.
func (c *coordinator[T]) scheduleRetry(ctx context.Context, s *shardState[T]) {
	if s.commit.Load() != 0 || s.localQueued.Load() {
		return
	}
	fails := int(s.failures.Load())
	if fails >= c.cfg.MaxAttempts || c.live.Load() == 0 {
		c.queueLocal(s)
		return
	}
	delay := c.backoff(s.ord, fails)
	timer := time.AfterFunc(delay, func() {
		if ctx.Err() != nil || s.commit.Load() != 0 || s.localQueued.Load() {
			return
		}
		if c.live.Load() == 0 {
			c.queueLocal(s)
			return
		}
		select {
		case c.tickets <- ticket{shard: s.ord, attempt: int(s.attempts.Load()), kind: ticketRetry}:
		default:
		}
	})
	// Kill pending timers at shutdown so Run's wg.Wait isn't the only
	// thing keeping them from firing into a dead coordinator (harmless but
	// noisy under -race with closed channels nearby).
	go func() {
		<-ctx.Done()
		timer.Stop()
	}()
}

// backoff returns base·2^(fails-1) + deterministic jitter, capped.
func (c *coordinator[T]) backoff(shard, fails int) time.Duration {
	d := c.cfg.BackoffBase << (fails - 1)
	if d > c.cfg.BackoffMax || d <= 0 {
		d = c.cfg.BackoffMax
	}
	// Deterministic jitter in [0, BackoffBase): replaying the same fault
	// script yields the same timing, yet distinct (shard, attempt) pairs
	// decorrelate.
	j := splitmix64(uint64(c.cfg.Seed)*0x9e3779b97f4a7c15 + uint64(shard)<<20 + uint64(fails) + 1)
	jit := time.Duration(j % uint64(c.cfg.BackoffBase))
	if d+jit > c.cfg.BackoffMax {
		return c.cfg.BackoffMax
	}
	return d + jit
}

// splitmix64 is the same mixer montecarlo seeds sample RNGs with (kept
// local: montecarlo's is unexported).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// queueLocal routes a shard to the local executor exactly once; with no
// local executor the run fails (nothing left that could complete it).
func (c *coordinator[T]) queueLocal(s *shardState[T]) {
	if !s.localQueued.CompareAndSwap(false, true) {
		return
	}
	if c.local == nil {
		c.failOnce.Do(func() {
			c.failErr = fmt.Errorf("%w (shard %d [%d,%d) undeliverable after %d lost attempts)",
				ErrNoWorkers, s.ord, s.lo, s.hi, s.failures.Load())
			close(c.failedCh)
		})
		return
	}
	c.localQ <- ticket{shard: s.ord, kind: ticketRetry}
}

// sweepToLocal reroutes every uncommitted shard after the last worker
// dies — the graceful-degradation path.
func (c *coordinator[T]) sweepToLocal() {
	for _, s := range c.shards {
		if s.commit.Load() == 0 {
			c.queueLocal(s)
		}
	}
}

// localLoop serves the local-fallback queue with the coordinator's own
// executor (loopback semantics, no transport, no retry — a local failure
// fails the run, matching a plain single-process run).
func (c *coordinator[T]) localLoop(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case t := <-c.localQ:
			s := c.shards[t.shard]
			if s.commit.Load() != 0 {
				continue
			}
			attempt := int(s.attempts.Add(1)) - 1
			c.statDispatched.Add(1)
			c.statLocal.Add(1)
			start := time.Now()
			sp := c.cfg.Trace.Start(fmt.Sprintf("dispatch shard %d attempt %d (local)", s.ord, attempt),
				trace.CatDispatch, c.cfg.TraceParent)
			env, err := c.local(ctx, c.request(s, attempt))
			if ctx.Err() != nil {
				sp.Note("shutdown")
				sp.End()
				return
			}
			if err == nil {
				err = env.Validate(c.cfg.ConfigHash, c.cfg.N, s.lo, s.hi)
			}
			if err != nil {
				sp.Note("lost")
				sp.End()
				c.failOnce.Do(func() {
					c.failErr = fmt.Errorf("shard: local fallback for shard %d failed: %w", s.ord, err)
					close(c.failedCh)
				})
				return
			}
			if c.tryCommit(s, env, start, false) {
				sp.Note("committed")
				sp.End()
			} else {
				sp.Note("duplicate")
				sp.End()
				c.statDuplicates.Add(1)
			}
		}
	}
}

// stragglerLoop watches in-flight shards and launches at most one
// speculative duplicate attempt per shard once it has been outstanding
// longer than StragglerAfter. First committed envelope wins the CAS; the
// laggard's becomes a counted duplicate — the run-level mirror of the
// sample-level hang watchdog.
func (c *coordinator[T]) stragglerLoop(ctx context.Context) {
	tick := c.cfg.StragglerAfter / 4
	if tick <= 0 {
		tick = time.Millisecond
	}
	tk := time.NewTicker(tick)
	defer tk.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tk.C:
			now := time.Now().UnixNano()
			for _, s := range c.shards {
				if s.commit.Load() != 0 || s.inFlight.Load() == 0 || s.specDone.Load() {
					continue
				}
				started := s.dispatchNS.Load()
				if started == 0 || time.Duration(now-started) < c.cfg.StragglerAfter {
					continue
				}
				if s.specDone.CompareAndSwap(false, true) {
					select {
					case c.tickets <- ticket{shard: s.ord, attempt: int(s.attempts.Load()), kind: ticketSpec}:
					default:
					}
				}
			}
		}
	}
}
