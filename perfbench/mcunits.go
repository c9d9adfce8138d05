package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"vstat/internal/circuits"
	"vstat/internal/core"
	"vstat/internal/measure"
	"vstat/internal/montecarlo"
	"vstat/internal/obs"
	"vstat/internal/obs/trace"
	"vstat/internal/spice"
	"vstat/internal/variation"
)

// Supply and transient window of the paper's MC units (the experiments'
// own settings).
const (
	mcVdd        = 0.9
	gateTranStop = 560e-12
	gateTranStep = 1.5e-12
	sramPoints   = 61 // butterfly sweep resolution, as in Fig. 9
)

// paperModel is the statistical VS model with the paper's published Table
// II mismatch coefficients on the nominal 40-nm cards.
func paperModel() *core.StatVS {
	m := core.DefaultStatVS()
	m.AlphaN = variation.FromPaperUnits(2.3, 3.71, 3.71, 944, 0.29)
	m.AlphaP = variation.FromPaperUnits(2.86, 3.66, 3.66, 781, 0.81)
	return m
}

// unit is one pooled MC unit: a bench template built once, plus the calls
// the benchmark makes into the circuits, spice and measure layers for one
// sample.
type unit struct {
	name  string
	batch int   // samples per round
	seed  int64 // unit stream seed, derived from the workload seed

	restat func(f circuits.Factory)
	// solve runs the sample's solver and measurement calls, bracketing
	// the measure-layer calls with sc's measure phase. It returns the
	// sample's values (SRAM: read and hold SNM; others: one value).
	solve  func(sc *obs.Scope) ([2]float64, error)
	stats  func() spice.SolverStats
	setObs func(sc *obs.Scope)
	matrix func() (n, nnz int)
}

// unitBatches are the samples per round of each unit, chosen so every
// unit gets a similar share of a round's time on a 2-core Xeon.
var unitBatches = map[string]int{"inv_fo3": 12, "nand2_fo3": 5, "dff": 1, "sram": 8}

// buildUnits builds the four bench templates from the model's nominal
// factory.
func buildUnits(m *core.StatVS, seed int64) ([]*unit, error) {
	sz := circuits.Sizing{WP: 600e-9, WN: 300e-9, L: 40e-9}
	var units []*unit
	for i, name := range mcUnitNames {
		u := &unit{name: name, batch: unitBatches[name], seed: seed*31 + int64(i)}
		switch name {
		case "inv_fo3", "nand2_fo3":
			build := circuits.NewPooledInverterFO
			if name == "nand2_fo3" {
				build = circuits.NewPooledNAND2FO
			}
			b, err := build(3, mcVdd, sz, m.Nominal(), false)
			if err != nil {
				return nil, fmt.Errorf("%s template: %w", name, err)
			}
			u.restat = b.Restat
			u.solve = func(sc *obs.Scope) ([2]float64, error) {
				res, err := b.Transient(gateTranStop, gateTranStep)
				if err != nil {
					return [2]float64{}, err
				}
				sc.Enter(obs.PhaseMeasure)
				d, err := measure.PairDelay(res, b.In, b.Out, mcVdd)
				sc.Exit()
				return [2]float64{d}, err
			}
			u.stats, u.setObs = b.Ckt.Stats, b.SetObs
			u.matrix = func() (int, int) { n, nnz, _ := b.Ckt.MatrixInfo(); return n, nnz }
		case "dff":
			ff := circuits.NewPooledDFF(mcVdd, circuits.DefaultDFFSizing(), m.Nominal(), false)
			opts := measure.DefaultSetupOpts()
			opts.Res, opts.Fast = &ff.Res, ff.Fast
			u.restat = ff.Restat
			u.solve = func(sc *obs.Scope) ([2]float64, error) {
				sc.Enter(obs.PhaseMeasure)
				ts, err := measure.SetupTime(ff.DFF, opts)
				sc.Exit()
				if errors.Is(err, measure.ErrNoPassRegion) {
					// A register that captures at no offset in the search
					// window is a measured outcome (a broken register at
					// this mismatch), not a failed sample.
					return [2]float64{math.Inf(1)}, nil
				}
				return [2]float64{ts}, err
			}
			u.stats, u.setObs = ff.Ckt.Stats, ff.SetObs
			u.matrix = func() (int, int) { n, nnz, _ := ff.Ckt.MatrixInfo(); return n, nnz }
		case "sram":
			cell := circuits.NewPooledSRAM(mcVdd, circuits.DefaultSRAMSizing(), m.Nominal(), sramPoints, false)
			u.restat = cell.Restat
			u.solve = func(sc *obs.Scope) ([2]float64, error) {
				var out [2]float64
				for i, read := range []bool{true, false} {
					l, r, err := cell.Butterfly(read)
					if err != nil {
						return out, err
					}
					sc.Enter(obs.PhaseMeasure)
					snm, err := measure.SNM(l, r)
					sc.Exit()
					if err != nil {
						return out, err
					}
					out[i] = snm.SNM
				}
				return out, nil
			}
			u.stats, u.setObs = cell.Stats, cell.SetObs
			u.matrix = func() (int, int) { n, nnz, _ := cell.MatrixInfo(); return n, nnz }
		}
		units = append(units, u)
	}
	return units, nil
}

// unitTrace is the traced-pass instrumentation of one unit: a phase scope
// on its own registry and the timing device factory's clock.
type unitTrace struct {
	reg   *obs.Registry
	sc    *obs.Scope
	clock evalClock
	// wrap decorates each sample's statistical factory (timedFactory).
	wrap func(circuits.Factory, *evalClock) circuits.Factory
}

func newUnitTrace() *unitTrace {
	reg := obs.NewRegistry()
	pm := obs.NewPhaseMetrics(reg) // registers before the first shard
	return &unitTrace{reg: reg, sc: obs.NewScope(reg.NewShard(), pm), wrap: timedFactory}
}

// batchRun is one unit batch's measurements.
type batchRun struct {
	wall   time.Duration
	walls  []time.Duration // per sample
	values [][2]float64
	failed int
	stats  spice.SolverStats // solver work of the batch
	bytes  uint64
	allocs uint64
}

// runBatch runs round r of unit u through the pooled Monte Carlo engine
// on one worker. A non-nil ut traces the batch; memStats reads the heap
// counters around it.
func runBatch(m *core.StatVS, u *unit, r int, ut *unitTrace, memStats bool) (batchRun, error) {
	var br batchRun
	var sc *obs.Scope
	if ut != nil {
		sc = ut.sc
	}
	u.setObs(sc)
	opts := montecarlo.RunOpts{Policy: montecarlo.Policy{OnFailure: montecarlo.SkipAndRecord}, Offset: r * u.batch}
	var m0, m1 runtime.MemStats
	if memStats {
		runtime.ReadMemStats(&m0)
	}
	st0 := u.stats()
	t0 := time.Now()
	out, rep, err := montecarlo.MapPooledReportCtx(context.Background(), u.batch, u.seed, 1, opts,
		func(int) (*unit, error) { return u, nil },
		func(u *unit, idx int, rng *rand.Rand) ([2]float64, error) {
			ts := time.Now()
			f := m.Statistical(rng)
			if ut != nil {
				f = ut.wrap(f, &ut.clock)
			}
			sc.Enter(obs.PhaseRestamp)
			u.restat(f)
			sc.Exit()
			v, err := u.solve(sc)
			sc.EndSample()
			br.walls = append(br.walls, time.Since(ts))
			return v, err
		})
	br.wall = time.Since(t0)
	if memStats {
		runtime.ReadMemStats(&m1)
		br.bytes, br.allocs = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
	}
	if err != nil {
		return br, fmt.Errorf("%s round %d: %w", u.name, r, err)
	}
	br.stats = statsSince(u.stats(), st0)
	br.failed = rep.Failed
	failed := make(map[int]bool, len(rep.Failures))
	for _, f := range rep.Failures {
		failed[f.Idx-opts.Offset] = true
	}
	for i, v := range out {
		if !failed[i] {
			br.values = append(br.values, v)
		}
	}
	return br, nil
}

// unitTotals accumulates a unit's batches over one pass.
type unitTotals struct {
	rounds          int
	perSampleUs     []float64 // per round: batch wall / batch size
	walls           []float64 // per sample, ms
	values          [][2]float64
	samples, failed int
	stats           spice.SolverStats
	bytes, allocs   uint64
}

func (t *unitTotals) add(u *unit, br batchRun) {
	t.rounds++
	t.perSampleUs = append(t.perSampleUs, float64(br.wall.Nanoseconds())/1e3/float64(u.batch))
	for _, w := range br.walls {
		t.walls = append(t.walls, float64(w.Nanoseconds())/1e6)
	}
	t.values = append(t.values, br.values...)
	t.samples += u.batch
	t.failed += br.failed
	t.stats = t.stats.Add(br.stats)
	t.bytes += br.bytes
	t.allocs += br.allocs
}

// mcResult is one pass over the units.
type mcResult struct {
	totals     []unitTotals // per unit
	roundWalls []float64    // s
	rss        []float64    // resident set after each round, MB
	wall       time.Duration
}

// mcPass runs rounds of every unit, interleaved, until the round budget or
// the deadline is reached (rounds <= 0: deadline only, at least one round).
func mcPass(m *core.StatVS, units []*unit, rounds int, deadline time.Time,
	traces []*unitTrace, memStats bool, rec *trace.Recorder, parent uint64) (mcResult, error) {
	res := mcResult{totals: make([]unitTotals, len(units))}
	t0 := time.Now()
	for r := 0; rounds <= 0 || r < rounds; r++ {
		if rounds <= 0 && r > 0 && time.Now().After(deadline) {
			break
		}
		tr := time.Now()
		for i, u := range units {
			var ut *unitTrace
			if traces != nil {
				ut = traces[i]
			}
			span := rec.Start(fmt.Sprintf("%s round %d", u.name, r), trace.CatMCRun, parent)
			br, err := runBatch(m, u, r, ut, memStats)
			span.End()
			if err != nil {
				return res, err
			}
			res.totals[i].add(u, br)
		}
		res.roundWalls = append(res.roundWalls, time.Since(tr).Seconds())
		res.rss = append(res.rss, rssMB())
	}
	res.wall = time.Since(t0)
	return res, nil
}

// warmUpIndex is the sample index set-up runs once per unit; timed rounds
// never reach it.
const warmUpIndex = 1 << 30

// setUpUnits builds the model and the four templates and runs one warm-up
// sample per unit, so lazily built solver state exists before timing.
func setUpUnits(seed int64) (*core.StatVS, []*unit, error) {
	m := paperModel()
	units, err := buildUnits(m, seed)
	if err != nil {
		return nil, nil, err
	}
	for _, u := range units {
		b := u.batch
		u.batch = 1
		_, err := runBatch(m, u, warmUpIndex, nil, false)
		u.batch = b
		if err != nil {
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return m, units, nil
}

// setUpRepeats is how many times a run sets up; setup_s is the median of
// their CPU times. CPU rather than wall time: the VM the benchmark was
// sized on has CPU steal, which moved wall-clock set-up medians by a fifth
// between two sets of ten runs, while CPU time still shows work moved into
// set-up.
const setUpRepeats = 9

func runMCUnits(o options) (*outcome, error) {
	out := &outcome{}
	var m *core.StatVS
	var units []*unit
	var setups []float64
	for i := 0; i < setUpRepeats; i++ {
		c0 := cpuSeconds()
		var err error
		m, units, err = setUpUnits(o.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, cpuSeconds()-c0)
	}
	out.set("setup_s", median(setups))
	budget := time.Duration(o.seconds * float64(time.Second))

	if !o.trace {
		res, err := mcPass(m, units, 0, time.Now().Add(budget), nil, false, nil, 0)
		if err != nil {
			return nil, err
		}
		for _, t := range res.totals {
			out.attempted += t.samples
			out.failed += t.failed
		}
		out.set("wall_s", median(res.roundWalls))
		out.set("samples_per_s", float64(out.attempted)/res.wall.Seconds())
		out.set("rss_mb", median(res.rss))
		out.checkErr = checkMCUnits(o.root, o.seed, units, res.totals)
		return out, nil
	}

	// Traced run: an untraced pass for half the budget, then the same
	// rounds traced. The two must do exactly the same solver work.
	rec := trace.New("perfbench", 0)
	root := rec.Start("mc_units", trace.CatRun, 0)
	span := rec.Start("untraced pass", trace.CatExperiment, root.ID())
	p, err := mcPass(m, units, 0, time.Now().Add(budget/2), nil, true, rec, span.ID())
	span.End()
	if err != nil {
		return nil, err
	}
	traces := make([]*unitTrace, len(units))
	obs.SetEnabled(true)
	for i := range traces {
		traces[i] = newUnitTrace()
	}
	span = rec.Start("traced pass", trace.CatExperiment, root.ID())
	t, err := mcPass(m, units, p.totals[0].rounds, time.Time{}, traces, false, rec, span.ID())
	span.End()
	obs.SetEnabled(false)
	if err != nil {
		return nil, err
	}
	root.End()
	if err := rec.WriteFile(o.traceFile()); err != nil {
		return nil, err
	}
	plain, traced := p.totals, t.totals
	for i, u := range units {
		out.attempted += plain[i].samples + traced[i].samples
		out.failed += plain[i].failed + traced[i].failed
		setUnitLayers(out, u, plain[i], traced[i], traces[i])
	}
	out.set("obs.trace_overhead_frac", t.wall.Seconds()/p.wall.Seconds()-1)
	out.checkErr = checkMCUnits(o.root, o.seed, units, plain)
	if out.checkErr == nil {
		out.checkErr = samePath(units, plain, traced, traces)
	}
	return out, nil
}

// setUnitLayers derives one unit's per-layer metrics. Timings and heap
// figures come from the untraced pass; the layer split comes from the
// traced pass's phase scope and timing device factory.
func setUnitLayers(out *outcome, u *unit, plain, traced unitTotals, ut *unitTrace) {
	p := u.name + "."
	n := float64(traced.samples)
	out.set(u.name+"_us_per_sample", median(plain.perSampleUs))
	out.set(p+"samples", float64(plain.samples))
	out.set(p+"sample_ms_p50", quantile(plain.walls, 0.5))
	out.set(p+"sample_ms_p99", quantile(plain.walls, 0.99))
	out.set(p+"alloc_bytes_per_sample", float64(plain.bytes)/float64(plain.samples))
	out.set(p+"allocs_per_sample", float64(plain.allocs)/float64(plain.samples))

	st := traced.stats
	out.set(p+"model_evals_per_sample", float64(st.ModelEvals)/n)
	out.set(p+"newton_iters_per_sample", float64(st.NewtonIters)/n)
	out.set(p+"tran_steps_per_sample", float64(st.TranSteps)/n)
	jac := 0.0
	if st.TranSteps > 0 {
		jac = float64(st.JacRefreshes) / float64(st.TranSteps)
	}
	out.set(p+"jac_refresh_per_step", jac)
	var rescues int64
	for _, v := range st.RescueCounts() {
		rescues += v
	}
	out.set(p+"rescues", float64(rescues))
	mn, nnz := u.matrix()
	out.set(p+"matrix_n", float64(mn))
	out.set(p+"matrix_nnz", float64(nnz))

	sp := selfTimes(ut)
	var wallNs float64
	for _, w := range traced.walls {
		wallNs += w * 1e6
	}
	evals := float64(ut.clock.evals())
	if evals > 0 {
		out.set(p+"device_eval_ns_per_eval", float64(ut.clock.ns())/evals)
	} else {
		out.set(p+"device_eval_ns_per_eval", 0)
	}
	out.set(p+"device_eval_frac", sp.device/wallNs)
	out.set(p+"stamp_frac", sp.stamp/wallNs)
	out.set(p+"lu_frac", sp.lu/wallNs)
	out.set(p+"solve_ms", (sp.device+sp.stamp+sp.lu+sp.otherSolve)/n/1e6)
	out.set(p+"restat_us", sp.restat/n/1e3)
	out.set(p+"measure_us", sp.measure/n/1e3)
	out.set(p+"unattributed_frac", 1-sp.sum()/wallNs)
}

// spanSplit is a traced pass's wall time split into disjoint self times,
// in nanoseconds.
type spanSplit struct {
	device, stamp, lu, otherSolve, restat, measure float64
}

func (s spanSplit) sum() float64 {
	return s.device + s.stamp + s.lu + s.otherSolve + s.restat + s.measure
}

// selfTimes splits a unit's traced time. The phase scope gives self times
// of the solver phases (entered by the spice layer) and of the restat and
// measure spans (entered by the benchmark). Derivative evaluations run
// inside assemble-J and value-only evaluations inside newton-solve, so the
// timing device clock is taken out of those two.
func selfTimes(ut *unitTrace) spanSplit {
	snap := ut.reg.Snapshot()
	ph := func(p obs.Phase) float64 {
		return float64(snap.FindCounter("mc_phase_" + p.String() + "_ns_total"))
	}
	der, val := float64(ut.clock.derNs.Load()), float64(ut.clock.valNs.Load())
	return spanSplit{
		device:     der + val,
		stamp:      ph(obs.PhaseAssemble) - der,
		lu:         ph(obs.PhaseFactor) + ph(obs.PhaseTriSolve),
		otherSolve: ph(obs.PhaseSolve) - val,
		restat:     ph(obs.PhaseRestamp) + ph(obs.PhaseDraw),
		measure:    ph(obs.PhaseMeasure),
	}
}

// statsSince returns the solver work done between two cumulative counter
// readings.
func statsSince(now, then spice.SolverStats) spice.SolverStats {
	d := reflect.ValueOf(&now).Elem()
	t := reflect.ValueOf(then)
	for i := 0; i < d.NumField(); i++ {
		d.Field(i).SetInt(d.Field(i).Int() - t.Field(i).Int())
	}
	return now
}

// samePath checks that the traced pass took the untraced pass's program
// path: identical sampled values and identical solver counters, and a
// timing-device evaluation count equal to the solver's own.
func samePath(units []*unit, plain, traced []unitTotals, traces []*unitTrace) error {
	for i, u := range units {
		a, b := plain[i], traced[i]
		if a.samples != b.samples || len(a.values) != len(b.values) {
			return fmt.Errorf("%s: traced pass ran %d samples (%d ok), untraced %d (%d ok)",
				u.name, b.samples, len(b.values), a.samples, len(a.values))
		}
		for j := range a.values {
			if a.values[j] != b.values[j] {
				return fmt.Errorf("%s: traced sample %d = %v, untraced %v", u.name, j, b.values[j], a.values[j])
			}
		}
		if a.stats != b.stats {
			return fmt.Errorf("%s: traced solver counters %+v differ from untraced %+v", u.name, b.stats, a.stats)
		}
		if got := traces[i].clock.evals(); got != b.stats.ModelEvals {
			return fmt.Errorf("%s: timing devices saw %d evaluations, solver counted %d", u.name, got, b.stats.ModelEvals)
		}
	}
	return nil
}
