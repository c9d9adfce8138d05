// Package experiments reproduces every table and figure of the paper's
// evaluation. Each experiment is a function returning a structured result
// with a text rendering, so the cmd/vsrepro tool and the benchmark harness
// print the same rows/series the paper reports.
//
// The flow mirrors the paper: the golden (BSIM-like) statistical model
// plays the industrial design kit; the nominal VS model is fitted to golden
// I-V/C-V data (Fig. 1); golden Monte Carlo supplies the "measured" target
// variances that backward propagation of variance maps onto VS mismatch
// coefficients (Table II); and the resulting statistical VS model is
// validated against golden Monte Carlo at device level (Fig. 2–4,
// Table III) and circuit level (Fig. 5–9, Table IV).
package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"vstat/internal/bpv"
	"vstat/internal/core"
	"vstat/internal/device"
	"vstat/internal/extract"
	"vstat/internal/lifecycle"
	"vstat/internal/montecarlo"
	"vstat/internal/obs"
	"vstat/internal/obs/trace"
	"vstat/internal/shard"
	"vstat/internal/stats"
	"vstat/internal/variation"
)

// Config carries the global experiment settings.
type Config struct {
	Seed    int64
	Workers int     // 0 = GOMAXPROCS
	Scale   float64 // sample-count scale relative to the paper (1 = paper counts)
	Vdd     float64

	// FastMC selects the carried-Jacobian / warm-started solver path for
	// the circuit Monte Carlo experiments. Default false keeps every
	// sampled metric bit-identical to the classic rebuild-per-sample
	// implementation; true trades that for a measurable speedup with
	// waveform deviations bounded by the Newton tolerances.
	FastMC bool

	// Policy selects how circuit Monte Carlo runs treat failing samples.
	// The zero value (FailFast) aborts an experiment on the first bad
	// sample; montecarlo.SkipUpTo tolerates a bounded failure fraction,
	// drops those samples from the reported statistics, and records them
	// in each figure's Health report.
	Policy montecarlo.Policy

	// Metrics, when non-nil and obs.Enabled(), receives the Monte Carlo
	// metric set (per-phase time histograms, Newton-work histograms,
	// per-stage rescue counters). The registry must be fresh: NewSuite
	// registers the metrics before any worker shard is created.
	Metrics *obs.Registry
	// Trace, when set alongside Metrics, receives sampled solver trace
	// events (rescue escalations, non-finite rejects, fast fallbacks).
	Trace *obs.EventSink
	// Progress, when set alongside Metrics, is fed per-sample rescue
	// tallies; attach it to run ticks with montecarlo.SetProgress.
	Progress *obs.Progress

	// TraceRec, when non-nil, records each circuit-MC run as a span tree
	// (mc-run span under TraceParent, sample flight recorder keeping the
	// TraceK worst samples) in the distributed-trace recorder. Works with
	// both the pooled and sharded engines; independent of Metrics.
	TraceRec    *trace.Recorder
	TraceParent uint64
	TraceK      int

	// Ctx, when non-nil, cancels in-progress Monte Carlo runs: claiming
	// stops, in-flight samples drain, and each experiment returns its
	// partial results with an error wrapping ctx.Err().
	Ctx context.Context
	// SampleBudget bounds each circuit-MC sample's solver work; a sample
	// over budget fails with a *lifecycle.BudgetError under the failure
	// policy. SampleBudget.Wall also arms the hang watchdog.
	SampleBudget lifecycle.Budget
	// HangGrace is how far past SampleBudget.Wall the watchdog lets an
	// in-flight sample run before abandoning it (<= 0: one extra Wall).
	HangGrace time.Duration
	// CheckpointDir, when set, makes every circuit-MC run checkpoint its
	// per-sample results to <dir>/<run-name>.ckpt.json. The config hash
	// embedded in each file rejects resume across different
	// seed/scale/model settings.
	CheckpointDir string
	// Resume loads existing checkpoint files and skips the samples they
	// record; without it an existing file is discarded and the run starts
	// fresh (still checkpointing as it goes).
	Resume bool

	// ShardSize > 0 opts the circuit Monte Carlo runs into the
	// internal/shard coordinator: each run is split into index-range
	// shards of this width, executed over ShardEndpoints in-process
	// loopback workers, and merged bit-identically to the unsharded run.
	// Mutually exclusive with CheckpointDir (shards are the retry unit; a
	// run-level checkpoint would double-apply completions). Note the
	// failure cap (Policy.MaxFailFrac) is enforced per shard, not
	// globally.
	ShardSize int
	// ShardEndpoints is how many loopback worker endpoints a sharded run
	// dispatches to (<= 0: Workers, then GOMAXPROCS).
	ShardEndpoints int
	// ShardJournalDir, when set with ShardSize, gives every sharded run a
	// durable dispatch journal at <dir>/<run-name>.journal.json: each
	// shard commit is fsynced there, and Resume restores the committed
	// shards instead of re-dispatching them — the shard-level analogue of
	// the run-level checkpoint the sharded path cannot use.
	ShardJournalDir string

	// instr is the suite's instrumentation bundle, planted by NewSuite so
	// runPooledMC can flush run-level lifecycle counters (over-budget and
	// cancellation-drained samples) without threading it per call site.
	instr *MCInstr
	// shardMetrics is the shard-coordinator counter bundle, planted by
	// NewSuite next to instr when observability is on.
	shardMetrics *shard.Metrics
	// ledger records what each circuit-MC run cost, planted by NewSuite
	// so Table IV can read the figures' runs instead of repeating them.
	ledger *costLedger
}

// ctx returns the run context (Background when unset).
func (c Config) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// runOpts bundles the lifecycle options every circuit-MC call site passes
// to montecarlo.MapPooledReportCtx.
func (c Config) runOpts() montecarlo.RunOpts {
	return montecarlo.RunOpts{
		Policy:    c.Policy,
		Budget:    c.SampleBudget,
		HangGrace: c.HangGrace,
	}
}

// configHash keys the checkpoints of this configuration: any change to the
// statistical population (seed, scale, supply, solver path) rejects resume.
func (c Config) configHash() string {
	return montecarlo.ConfigHash(c.Seed, c.Scale, c.Vdd, c.FastMC)
}

// openCkpt opens the named checkpoint for an n-sample run under cfg, or
// returns (nil, nil) when checkpointing is off. Without cfg.Resume any
// existing file is discarded first, so only an explicit resume skips
// samples. A free function because methods cannot introduce type
// parameters.
func openCkpt[T any](cfg Config, name string, n int) (*montecarlo.Checkpoint[T], error) {
	if cfg.CheckpointDir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint dir: %w", err)
	}
	path := filepath.Join(cfg.CheckpointDir, name+".ckpt.json")
	if !cfg.Resume {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("checkpoint reset: %w", err)
		}
	}
	return montecarlo.OpenCheckpoint[T](path, cfg.configHash(), n, 64)
}

// runPooledMC wraps montecarlo.MapPooledReportCtx with cfg's context,
// budget, watchdog, and (when configured) the named checkpoint, or routes
// the run through the shard coordinator when cfg.ShardSize > 0. With a
// checkpoint and a fully completed run, the returned slice and report are
// the checkpoint's overlay of restored plus fresh samples — the full-run
// view, bit-identical whether or not the campaign was interrupted and
// resumed in between. A successful run's cost goes into cfg's ledger
// under name.
func runPooledMC[S, T any](cfg Config, name string, n int, seed int64,
	newState func(worker int) (S, error),
	fn func(st S, idx int, rng *rand.Rand) (T, error)) ([]T, montecarlo.RunReport, error) {
	record := cfg.ledger.meter()
	run := runLocalMC[S, T]
	if cfg.ShardSize > 0 {
		run = runShardedMC[S, T]
	}
	out, rep, restored, err := run(cfg, name, n, seed, newState, fn)
	if err == nil {
		record(name, runCost{N: n, Seed: seed, Hash: cfg.configHash(),
			Workers: cfg.mcWorkers(), Report: rep, Restored: restored})
	}
	return out, rep, err
}

// runLocalMC is runPooledMC's in-process path; restored reports whether
// the checkpoint supplied any sample.
func runLocalMC[S, T any](cfg Config, name string, n int, seed int64,
	newState func(worker int) (S, error),
	fn func(st S, idx int, rng *rand.Rand) (T, error)) (out []T, rep montecarlo.RunReport, restored bool, err error) {
	opts := cfg.runOpts()
	ck, err := openCkpt[T](cfg, name, n)
	if err != nil {
		return nil, montecarlo.RunReport{}, false, err
	}
	if ck != nil {
		opts.Checkpoint = ck
	}
	var mcSpan *trace.Span
	if cfg.TraceRec != nil {
		mcSpan = cfg.TraceRec.Start(name, trace.CatMCRun, cfg.TraceParent)
		opts.Trace = trace.NewMC(cfg.TraceRec, name, mcSpan.ID(), cfg.TraceK)
	}
	out, rep, err = montecarlo.MapPooledReportCtx(cfg.ctx(), n, seed, cfg.Workers, opts, newState, fn)
	if mcSpan != nil {
		opts.Trace.Finish()
		mcSpan.End()
	}
	cfg.instr.RecordRunLifecycle(rep) // this run's work, before any checkpoint overlay
	if ck != nil {
		restored = ck.Restored() > 0
		if ferr := ck.Flush(); ferr != nil && err == nil {
			err = ferr
		}
		if err == nil {
			out = ck.Results()
			rep = ck.Report()
		}
	}
	return out, rep, restored, err
}

// runShardedMC routes a circuit-MC run through the internal/shard
// coordinator: cfg.mcWorkers() loopback workers (each running the shard's
// samples on a single-worker engine so total parallelism matches the
// endpoint count) execute index-range shards of cfg.ShardSize samples,
// and the merged results are bit-identical to the unsharded run — same
// values, same failure indices and messages, same rescue totals. restored
// reports whether the dispatch journal supplied any shard.
func runShardedMC[S, T any](cfg Config, name string, n int, seed int64,
	newState func(worker int) (S, error),
	fn func(st S, idx int, rng *rand.Rand) (T, error)) ([]T, montecarlo.RunReport, bool, error) {
	if cfg.CheckpointDir != "" {
		return nil, montecarlo.RunReport{}, false, fmt.Errorf(
			"experiments: sharded run %q cannot also checkpoint (shards are the retry unit)", name)
	}
	k := cfg.mcWorkers()
	hash := cfg.configHash()
	exec := shard.NewExecutor(hash, 1, newState, fn)
	var eps []shard.Endpoint[T]
	for w := 0; w < k; w++ {
		eps = append(eps, shard.Endpoint[T]{
			Name:      fmt.Sprintf("loopback-%d", w),
			Transport: shard.Loopback[T]{Exec: exec},
		})
	}
	scfg := shard.Config{
		N:            n,
		Seed:         seed,
		ConfigHash:   hash,
		ShardSize:    cfg.ShardSize,
		Bench:        name,
		SampleBudget: cfg.SampleBudget,
		HangGrace:    cfg.HangGrace,
		Metrics:      cfg.shardMetrics,
	}
	var mcSpan *trace.Span
	if cfg.TraceRec != nil {
		mcSpan = cfg.TraceRec.Start(name, trace.CatMCRun, cfg.TraceParent)
		scfg.Trace = cfg.TraceRec
		scfg.TraceParent = mcSpan.ID()
		scfg.TraceK = cfg.TraceK
	}
	if cfg.Policy.OnFailure == montecarlo.SkipAndRecord {
		scfg.MaxFailFrac = cfg.Policy.MaxFailFrac
		if scfg.MaxFailFrac <= 0 {
			scfg.MaxFailFrac = 1.0 // uncapped SkipAndRecord
		}
	}
	var opts shard.RunOptions[T]
	if cfg.ShardJournalDir != "" {
		if err := os.MkdirAll(cfg.ShardJournalDir, 0o755); err != nil {
			return nil, montecarlo.RunReport{}, false, fmt.Errorf("shard journal dir: %w", err)
		}
		path := filepath.Join(cfg.ShardJournalDir, name+".journal.json")
		var jnl *shard.Journal[T]
		var jerr error
		if cfg.Resume {
			jnl, jerr = shard.OpenJournal[T](path, scfg)
		} else {
			jnl, jerr = shard.CreateJournal[T](path, scfg)
		}
		if jerr != nil {
			return nil, montecarlo.RunReport{}, false, jerr
		}
		defer jnl.Close()
		opts.Journal = jnl
	}
	res, err := shard.RunWithOptions(cfg.ctx(), scfg, eps, exec, opts)
	mcSpan.End()
	cfg.instr.RecordRunLifecycle(res.Report)
	return res.Out, res.Report, res.Stats.ResumeSkipped > 0, err
}

// Health is one experiment's aggregated Monte Carlo run report; a zero
// Health means every sample of every constituent run converged without
// rescue work.
type Health = montecarlo.RunReport

// healthLine renders a non-clean health report as an indented trailer line
// for the figure String() methods, and nothing for a clean run.
func healthLine(h Health) string {
	if h.Clean() {
		return ""
	}
	return fmt.Sprintf("  run health: %s\n", h.String())
}

// DefaultConfig returns deterministic settings with paper-scale sampling.
func DefaultConfig() Config {
	return Config{Seed: 20130318, Workers: 0, Scale: 1, Vdd: 0.9}
}

// samples scales a paper sample count, keeping at least 50.
func (c Config) samples(paper int) int {
	n := int(float64(paper) * c.Scale)
	if n < 50 {
		n = 50
	}
	return n
}

// ExtractionGeometries is the W×L set used for BPV extraction (all at the
// 40-nm node, plus one longer-channel point for δ(L) leverage).
var ExtractionGeometries = [][2]float64{
	{120e-9, 40e-9},
	{300e-9, 40e-9},
	{600e-9, 40e-9},
	{1000e-9, 40e-9},
	{1500e-9, 40e-9},
	{600e-9, 60e-9},
}

// Suite is the shared experimental state: golden model, fitted VS model and
// extracted coefficients.
type Suite struct {
	Cfg    Config
	Golden *core.StatGolden
	VS     *core.StatVS

	FitRepN, FitRepP extract.FitReport

	// MeasuredN/P are the golden-MC target variances per geometry.
	MeasuredN, MeasuredP []bpv.GeometryVariance
	// ExtractionN/P are the configured BPV problems (reused by Fig. 2/3).
	ExtractionN, ExtractionP *bpv.Extraction

	// instr is the circuit-MC instrumentation bundle built from
	// Cfg.Metrics/Trace/Progress, or nil when observability is off.
	instr *MCInstr
}

// NewSuite runs the full extraction pipeline: Fig. 1 nominal fits for both
// polarities, golden Monte Carlo over the extraction geometries, direct α5
// measurement, and the joint BPV solve.
func NewSuite(cfg Config) (*Suite, error) {
	s := &Suite{Cfg: cfg, Golden: core.DefaultStatGolden(), VS: core.DefaultStatVS()}
	s.Cfg.ledger = new(costLedger)
	if cfg.Metrics != nil && obs.Enabled() {
		s.instr = NewMCInstr(cfg.Metrics)
		s.instr.Sink = cfg.Trace
		s.instr.Progress = cfg.Progress
		// Let runPooledMC flush run-level lifecycle counters without
		// every call site threading the bundle through.
		s.Cfg.instr = s.instr
		// Shard counters register here too — before any worker shard is
		// created — so sharded runs account their dispatch traffic in the
		// same registry.
		s.Cfg.shardMetrics = shard.NewMetrics(cfg.Metrics)
	}

	// Nominal extraction (Fig. 1) at the paper's W = 300 nm, followed by a
	// δ(Leff) roll-up calibration at a second length so the model's local
	// L-sensitivity is identified, as the paper's emphasis on a
	// well-characterized nominal model requires.
	for _, k := range []device.Kind{device.NMOS, device.PMOS} {
		ref40 := s.Golden.Card(k, 300e-9, 40e-9)
		ds40 := extract.SampleDevice(&ref40, cfg.Vdd)
		fitted, rep, err := extract.FitVS(s.VS.Card(k, 300e-9, 40e-9), ds40)
		if err != nil {
			return nil, fmt.Errorf("suite: nominal fit %v: %w", k, err)
		}
		// Pin the local dVT/dL by calibrating δ(L) against the golden
		// off-current at a closely spaced second length.
		ref44 := s.Golden.Card(k, 300e-9, 44e-9)
		if cal, err := extract.CalibrateLDelta(fitted, &ref44, cfg.Vdd); err == nil {
			fitted = cal
		}
		if k == device.NMOS {
			s.VS.NMOS = fitted
			s.FitRepN = rep
		} else {
			s.VS.PMOS = fitted
			s.FitRepP = rep
		}
	}

	// Measured variances from golden MC (the "silicon data" substitute),
	// and direct Cinv (α5) measurement from the golden oxide statistics, as
	// the paper measures tox rather than extracting it.
	nMC := cfg.samples(1500)
	for _, k := range []device.Kind{device.NMOS, device.PMOS} {
		meas, err := s.measureGolden(k, nMC)
		if err != nil {
			return nil, err
		}
		alpha5 := s.Golden.Alphas(k).A5
		ex := &bpv.Extraction{
			Card:   s.VS.Card(k, 1e-6, 40e-9),
			Kind:   k,
			Vdd:    cfg.Vdd,
			Alpha5: alpha5,
		}
		al, err := ex.SolveJoint(meas)
		if err != nil {
			return nil, fmt.Errorf("suite: BPV %v: %w", k, err)
		}
		if k == device.NMOS {
			s.MeasuredN, s.ExtractionN = meas, ex
			s.VS.AlphaN = al
		} else {
			s.MeasuredP, s.ExtractionP = meas, ex
			s.VS.AlphaP = al
		}
	}
	return s, nil
}

// measureGolden runs device-level golden MC at every extraction geometry.
func (s *Suite) measureGolden(k device.Kind, n int) ([]bpv.GeometryVariance, error) {
	tg := bpv.Targets{Vdd: s.Cfg.Vdd}
	var out []bpv.GeometryVariance
	for gi, g := range ExtractionGeometries {
		seed := s.Cfg.Seed + int64(gi)*7919 + int64(k)*104729
		samples, err := montecarlo.MapCtx(s.Cfg.ctx(), n, seed, s.Cfg.Workers,
			func(idx int, rng *rand.Rand) ([]float64, error) {
				d := s.Golden.SampleDevice(rng, k, g[0], g[1])
				return tg.EvalVec(d), nil
			})
		if err != nil {
			return nil, fmt.Errorf("suite: golden MC %v W=%g: %w", k, g[0], err)
		}
		out = append(out, bpv.GeometryVariance{
			W: g[0], L: g[1],
			SigmaIdsat:   stats.StdDev(montecarlo.Column(samples, 0)),
			SigmaLogIoff: stats.StdDev(montecarlo.Column(samples, 1)),
			SigmaCgg:     stats.StdDev(montecarlo.Column(samples, 2)),
		})
	}
	return out, nil
}

// Table2Result is paper Table II: the extracted standard-deviation
// coefficients for both polarities, in paper units.
type Table2Result struct {
	NMOS, PMOS variation.Alphas
	// PaperNMOS/PMOS hold the published values for side-by-side reporting.
	PaperNMOS, PaperPMOS [5]float64
}

// Table2 reports the extracted α coefficients (paper Table II).
func (s *Suite) Table2() Table2Result {
	return Table2Result{
		NMOS:      s.VS.AlphaN,
		PMOS:      s.VS.AlphaP,
		PaperNMOS: [5]float64{2.3, 3.71, 3.71, 944, 0.29},
		PaperPMOS: [5]float64{2.86, 3.66, 3.66, 781, 0.81},
	}
}

// String renders the table.
func (r Table2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table II: extracted standard deviation coefficients (BPV)\n")
	fmt.Fprintf(&b, "%-28s %12s %12s %14s %14s\n", "coefficient", "NMOS", "PMOS", "paper NMOS", "paper PMOS")
	n1, n2, n3, n4, n5 := r.NMOS.PaperUnits()
	p1, p2, p3, p4, p5 := r.PMOS.PaperUnits()
	rows := []struct {
		name   string
		n, p   float64
		pn, pp float64
	}{
		{"alpha1 (V*nm)", n1, p1, r.PaperNMOS[0], r.PaperPMOS[0]},
		{"alpha2 (nm)", n2, p2, r.PaperNMOS[1], r.PaperPMOS[1]},
		{"alpha3 (nm)", n3, p3, r.PaperNMOS[2], r.PaperPMOS[2]},
		{"alpha4 (nm*cm2/Vs)", n4, p4, r.PaperNMOS[3], r.PaperPMOS[3]},
		{"alpha5 (nm*uF/cm2)", n5, p5, r.PaperNMOS[4], r.PaperPMOS[4]},
	}
	for _, row := range rows {
		fmt.Fprintf(&b, "%-28s %12.3g %12.3g %14.3g %14.3g\n", row.name, row.n, row.p, row.pn, row.pp)
	}
	return b.String()
}

// Table1Result documents the statistical parameter list of paper Table I.
type Table1Result struct{}

// String renders paper Table I (the statistical VS parameter list).
func (Table1Result) String() string {
	return strings.Join([]string{
		"Table I: VS model statistical parameters (source -> parameter)",
		"  LER    -> Leff  (nm)        effective channel length",
		"  LER    -> Weff  (nm)        effective channel width",
		"  RDF    -> VT0   (V)         zero-bias threshold voltage",
		"  OTF    -> Cinv  (uF/cm2)    effective gate-to-channel capacitance",
		"  stress -> mu    (cm2/V*s)   carrier mobility",
		"  stress -> vxo   (cm/s)      virtual source velocity (dependent: Eq. 5)",
		"",
	}, "\n")
}

// Table1 returns the parameter-list pseudo-experiment.
func (s *Suite) Table1() Table1Result { return Table1Result{} }
