package experiments

import (
	"context"

	"vstat/internal/circuits"
	"vstat/internal/device"
	"vstat/internal/lifecycle"
	"vstat/internal/montecarlo"
	"vstat/internal/obs"
	"vstat/internal/spice"
)

// This file is the observability wiring for the circuit Monte Carlo
// experiments. One MCInstr per registry registers the shared metric set
// (per-phase time histograms, Newton-work histograms, per-stage rescue
// counters); each worker gets a SampleObs that times the sample phases and
// flushes per-sample SolverStats deltas into its shard. Everything is
// nil-safe: with no instrumentation attached, the per-sample overhead is a
// handful of nil checks and the sampled metrics stay bit-identical.

// rescueStages mirrors spice.SolverStats.RescueCounts key order; registry
// counter i is "mc_rescue_<stage>_total".
var rescueStages = [7]string{
	"dc-gmin", "dc-source", "dc-pseudo-tran",
	"tran-halve", "tran-substep", "fast-fallback", "nonfinite-reject",
}

// rescueDeltas returns the per-stage rescue increments between two solver
// counter snapshots, in rescueStages order.
func rescueDeltas(cur, prev spice.SolverStats) [7]int64 {
	return [7]int64{
		cur.DCGminRescues - prev.DCGminRescues,
		cur.DCSourceRescues - prev.DCSourceRescues,
		cur.DCPseudoRescues - prev.DCPseudoRescues,
		cur.TranHalvings - prev.TranHalvings,
		cur.Rescues - prev.Rescues,
		cur.FastFallbacks - prev.FastFallbacks,
		cur.NonFiniteRejects - prev.NonFiniteRejects,
	}
}

// MCInstr is the per-registry instrumentation bundle for circuit Monte
// Carlo runs. Create it once per obs.Registry (metric registration must
// precede the first worker shard); a nil *MCInstr disables instrumentation.
type MCInstr struct {
	Reg *obs.Registry
	PM  *obs.PhaseMetrics

	// Sink, when set, receives sampled solver trace events.
	Sink *obs.EventSink
	// Progress, when set, is fed the per-sample rescue tallies (the
	// run-level ticks come from montecarlo.SetProgress).
	Progress *obs.Progress

	newtonIters  obs.HistID
	jacRefreshes obs.HistID
	samples      obs.CounterID
	budgetOver   obs.CounterID
	cancelled    obs.CounterID
	rescueIDs    [7]obs.CounterID

	batchEvicted   obs.CounterID
	batchOccupancy obs.GaugeID
	modelEvals     obs.CounterID
}

// modelEvalsName is the model-evaluation counter. It keeps its "_direct"
// suffix because the benchmark and existing scrapes read it by this name.
const modelEvalsName = "model_evals_total_direct"

// NewtonIterBounds is the bucket layout for per-sample Newton iteration
// counts (geometric, 8 to ~3·10^5).
func NewtonIterBounds() []int64 { return obs.ExpBounds(8, 1.25, 48) }

// NewMCInstr registers the Monte Carlo metric set on a fresh registry.
func NewMCInstr(reg *obs.Registry) *MCInstr {
	mi := &MCInstr{Reg: reg, PM: obs.NewPhaseMetrics(reg)}
	mi.newtonIters = reg.Histogram("mc_newton_iters", NewtonIterBounds())
	mi.jacRefreshes = reg.Histogram("mc_jac_refreshes", NewtonIterBounds())
	mi.samples = reg.Counter("mc_samples_total")
	mi.budgetOver = reg.Counter("mc_samples_budget_total")
	mi.cancelled = reg.Counter("mc_samples_cancelled_total")
	for i, st := range rescueStages {
		mi.rescueIDs[i] = reg.Counter("mc_rescue_" + st + "_total")
	}
	mi.batchEvicted = reg.Counter("mc_batch_lanes_evicted_total")
	mi.batchOccupancy = reg.Gauge("mc_batch_lane_occupancy_pct")
	mi.modelEvals = reg.Counter(modelEvalsName)
	reg.SetHelp("mc_newton_iters", "Newton iterations per Monte Carlo sample.")
	reg.SetHelp("mc_jac_refreshes", "Jacobian factorizations per Monte Carlo sample.")
	reg.SetHelp("mc_samples_total", "Monte Carlo samples completed.")
	reg.SetHelp("mc_samples_budget_total", "Samples that failed over their solver budget (wall, iteration cap, or hang watchdog).")
	reg.SetHelp("mc_samples_cancelled_total", "In-flight samples drained by a run cancellation.")
	for _, st := range rescueStages {
		reg.SetHelp("mc_rescue_"+st+"_total", "Samples rescued by the "+st+" solver ladder stage.")
	}
	reg.SetHelp("mc_batch_lanes_evicted_total", "Lanes evicted from the K-lane lockstep path to the scalar engine.")
	reg.SetHelp("mc_batch_lane_occupancy_pct", "Average filled-lane occupancy of the batched engine, in percent.")
	reg.SetHelp(modelEvalsName,
		"MOSFET compact-model evaluations (scalar calls and batched SoA lanes alike).")
	return mi
}

// RecordBatchRun flushes a finished batched run's lane accounting: the total
// lanes evicted from the lockstep path and the run's average lane occupancy
// (filled lanes over lanes offered, in whole percent). Gauges merge
// additively across shards, so call this once per run, not per worker.
func (mi *MCInstr) RecordBatchRun(evicted int64, occupancyPct float64) {
	if mi == nil || !obs.Enabled() {
		return
	}
	sh := mi.Reg.NewShard()
	sh.Add(mi.batchEvicted, evicted)
	sh.Set(mi.batchOccupancy, int64(occupancyPct+0.5))
}

// NewWorker builds one worker's recording handle (a scope on a fresh
// shard), or nil when mi is nil or observability is disabled.
func (mi *MCInstr) NewWorker() *SampleObs {
	if mi == nil || !obs.Enabled() {
		return nil
	}
	sc := obs.NewScope(mi.Reg.NewShard(), mi.PM)
	if sc == nil {
		return nil
	}
	sc.SetEvents(mi.Sink)
	return &SampleObs{mi: mi, sc: sc}
}

// RecordRunLifecycle flushes a finished run's lifecycle outcomes into the
// registry: samples that died over their budget (wall, iteration cap, or
// hang watchdog) and in-flight samples drained by a run cancellation.
// Counts cover this process's work only — failures restored from a
// checkpoint were already counted by the run that produced them.
func (mi *MCInstr) RecordRunLifecycle(rep montecarlo.RunReport) {
	if mi == nil || !obs.Enabled() {
		return
	}
	var budget int64
	for _, f := range rep.Failures {
		if lifecycle.IsBudget(f.Err) {
			budget++
		}
	}
	if budget == 0 && rep.Interrupted == 0 {
		return
	}
	sh := mi.Reg.NewShard()
	sh.Add(mi.budgetOver, budget)
	sh.Add(mi.cancelled, int64(rep.Interrupted))
}

// RescuedCounters extracts the per-stage rescue counters from a metrics
// snapshot, keyed by ladder stage exactly like montecarlo.RunReport.Rescued
// (zero-valued stages omitted).
func RescuedCounters(snap obs.Snapshot) map[string]int64 {
	out := make(map[string]int64, len(rescueStages))
	for _, st := range rescueStages {
		if v := snap.FindCounter("mc_rescue_" + st + "_total"); v != 0 {
			out[st] = v
		}
	}
	return out
}

// SampleObs is one worker's per-sample recording handle. prev starts zero,
// so the cumulative per-stage deltas flushed over a run equal the worker's
// final SolverStats exactly — which is also what RunReport.Rescued
// aggregates, making registry counters and the run report agree for any
// worker count. Not safe for concurrent use (one worker goroutine each).
type SampleObs struct {
	mi   *MCInstr
	sc   *obs.Scope
	prev spice.SolverStats
}

// Scope returns the worker's phase-timing scope (nil on a nil handle).
func (so *SampleObs) Scope() *obs.Scope {
	if so == nil {
		return nil
	}
	return so.sc
}

// Factory wraps a device factory so each statistical parameter draw is
// attributed to the sample-draw phase (the surrounding re-stamp span is
// paused for the duration of each draw). Returns f unchanged on a nil
// handle.
func (so *SampleObs) Factory(f circuits.Factory) circuits.Factory {
	if so == nil {
		return f
	}
	return func(k device.Kind, w, l float64) device.Device {
		so.sc.Enter(obs.PhaseDraw)
		d := f(k, w, l)
		so.sc.Exit()
		return d
	}
}

// End flushes one finished sample: Newton-work histograms and per-stage
// rescue counters from the SolverStats delta since the previous End, then
// the phase-time accumulators. st must be the worker circuit's cumulative
// stats (spice.Circuit.Stats or PooledSRAM.Stats).
func (so *SampleObs) End(st spice.SolverStats) {
	if so == nil {
		return
	}
	mi, sh := so.mi, so.sc.Shard()
	sh.Observe(mi.newtonIters, st.NewtonIters-so.prev.NewtonIters)
	sh.Observe(mi.jacRefreshes, st.JacRefreshes-so.prev.JacRefreshes)
	sh.Add(mi.samples, 1)
	if d := st.ModelEvals - so.prev.ModelEvals; d != 0 {
		sh.Add(mi.modelEvals, d)
	}
	var rescued int64
	for i, d := range rescueDeltas(st, so.prev) {
		if d != 0 {
			sh.Add(mi.rescueIDs[i], d)
			rescued += d
		}
	}
	so.prev = st
	mi.Progress.AddRescued(rescued)
	so.sc.EndSample()
}

// EndBatch flushes one finished K-lane lockstep batch: lanes samples, the
// batch's pooled Newton-work deltas as single histogram entries (per-batch,
// not per-lane — lockstep work is shared, so a per-lane split would be
// arbitrary), the rescue counters, and the phase-time accumulators. st must
// be the summed cumulative stats of every lane circuit.
func (so *SampleObs) EndBatch(lanes int, st spice.SolverStats) {
	if so == nil {
		return
	}
	mi, sh := so.mi, so.sc.Shard()
	sh.Observe(mi.newtonIters, st.NewtonIters-so.prev.NewtonIters)
	sh.Observe(mi.jacRefreshes, st.JacRefreshes-so.prev.JacRefreshes)
	sh.Add(mi.samples, int64(lanes))
	if d := st.ModelEvals - so.prev.ModelEvals; d != 0 {
		sh.Add(mi.modelEvals, d)
	}
	var rescued int64
	for i, d := range rescueDeltas(st, so.prev) {
		if d != 0 {
			sh.Add(mi.rescueIDs[i], d)
			rescued += d
		}
	}
	so.prev = st
	mi.Progress.AddRescued(rescued)
	so.sc.EndSample()
}

// obsBench is a pooled bench template that can carry an observability
// scope and report rescue counters (all four pooled circuit types).
type obsBench interface {
	montecarlo.RescueReporter
	SetObs(*obs.Scope)
}

// obsState pairs a pooled bench with its worker recording handle, keeping
// the bench's RescueCounts visible to montecarlo's report aggregation.
type obsState[B obsBench] struct {
	B  B
	So *SampleObs
}

// RescueCounts forwards the bench's counters (montecarlo.RescueReporter).
func (s obsState[B]) RescueCounts() map[string]int64 { return s.B.RescueCounts() }

// ArmSample forwards the per-sample context and budget to the bench
// (montecarlo.SampleArmer); benches without solver-side enforcement run
// unarmed, covered only by the engine's hang watchdog.
func (s obsState[B]) ArmSample(ctx context.Context, b lifecycle.Budget) {
	if a, ok := any(s.B).(montecarlo.SampleArmer); ok {
		a.ArmSample(ctx, b)
	}
}

// AttachTracer forwards the flight-recorder tracer to the bench
// (montecarlo.TraceAttacher), so solver phase spans land in the trace even
// when the bench runs behind this observability wrapper.
func (s obsState[B]) AttachTracer(t obs.Tracer) {
	if a, ok := any(s.B).(montecarlo.TraceAttacher); ok {
		a.AttachTracer(t)
	}
}

// SolverWork forwards the bench's cumulative Newton/rescue totals
// (montecarlo.WorkReporter) for the flight recorder's sample diagnostics.
func (s obsState[B]) SolverWork() (iters, rescues int64) {
	if w, ok := any(s.B).(montecarlo.WorkReporter); ok {
		return w.SolverWork()
	}
	return 0, 0
}

// newObsState wraps a bench builder into a MapPooledReportCtx newState that
// attaches per-worker instrumentation when mi is live.
func newObsState[B obsBench](mi *MCInstr, build func() (B, error)) func(int) (obsState[B], error) {
	return func(int) (obsState[B], error) {
		b, err := build()
		if err != nil {
			var zero obsState[B]
			return zero, err
		}
		so := mi.NewWorker()
		b.SetObs(so.Scope())
		return obsState[B]{B: b, So: so}, nil
	}
}
