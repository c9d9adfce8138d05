package spice

import (
	"errors"
	"fmt"
	"math"

	"vstat/internal/device"
	"vstat/internal/linalg"
	"vstat/internal/obs"
)

// Newton solver tolerances.
const (
	tolV   = 1e-9  // V, max node-voltage update
	tolI   = 1e-10 // A, max KCL residual
	vLimit = 0.3   // V, per-iteration node update clamp

	// Fast-path tolerances: chord Newton converges linearly, so every
	// decade of tolerance costs roughly one residual pass per timestep.
	// 1 µV is the classic SPICE VNTOL default — error orders of magnitude
	// below any measured delay or noise margin (a 1 µV edge shift moves a
	// gate delay by femtoseconds at the benches' V/ns slew rates, and the
	// implicit integrator damps rather than accumulates it).
	tolVFast = 1e-6 // V
	tolIFast = 1e-7 // A
)

// ErrNoConvergence is returned when every convergence aid fails.
var ErrNoConvergence = errors.New("spice: Newton iteration failed to converge")

// tranState carries the charge/current history of the implicit integrator.
type tranState struct {
	h        float64      // current timestep
	trap     bool         // trapezoidal (else backward Euler)
	firstBE  bool         // force BE on the first step after (re)initialization
	qPrevMos [][4]float64 // per MOSFET terminal charges at t_n
	iPrevMos [][4]float64 // per MOSFET terminal charge-currents at t_n
	qPrevCap []float64    // per capacitor charge at t_n
	iPrevCap []float64    // per capacitor current at t_n
}

// assembleCtx selects the analysis terms for one Newton solve.
type assembleCtx struct {
	t         float64    // source evaluation time
	srcScale  float64    // source-stepping scale factor (1 = full)
	gminExtra float64    // gmin-stepping additional node-to-ground conductance
	ptG       float64    // pseudo-transient anchor conductance (0 = off)
	ptRef     []float64  // pseudo-transient anchor state (previous pseudo-step)
	tran      *tranState // nil for DC
	carry     bool       // allow reusing a Jacobian factored by a previous solve
	fast      bool       // cache device evaluations for the fast history update
}

// luKey identifies the analysis configuration a factored Jacobian belongs
// to; a carried factorization is only reused when the key matches exactly.
type luKey struct {
	h         float64
	trapPhase bool
	tran      bool
	gmin      float64
	pt        float64
	scale     float64
}

func ctxKey(ctx *assembleCtx) luKey {
	k := luKey{gmin: ctx.gminExtra, pt: ctx.ptG, scale: ctx.srcScale}
	if ctx.tran != nil {
		k.tran = true
		k.h = ctx.tran.h
		k.trapPhase = ctx.tran.trap && !ctx.tran.firstBE
	}
	return k
}

// SolverStats counts Newton work since the last ResetStats, for perf
// tracking (cmd/vsbench) and regression tests. The rescue counters below
// the first block record which rung of the convergence rescue ladder saved
// (or rejected) a solve; Monte Carlo drivers aggregate them into RunReports
// via RescueCounts.
type SolverStats struct {
	NewtonIters  int64 // linear solves (chord or full Newton iterations)
	JacRefreshes int64 // Jacobian assemblies + LU factorizations
	TranSteps    int64 // accepted transient timesteps
	Rescues      int64 // timesteps that fell back to the BE sub-step ladder

	DCGminRescues    int64 // DC solves rescued by gmin stepping
	DCSourceRescues  int64 // DC solves rescued by source stepping
	DCPseudoRescues  int64 // DC solves rescued by the pseudo-transient ramp
	TranHalvings     int64 // timestep-halving rescue levels entered
	FastFallbacks    int64 // fast→exact fallbacks (carried chord Jacobian dropped)
	NonFiniteRejects int64 // NaN/Inf iterates, candidates, or histories rejected

	// SparseRepivots counts sparse-core pivot-order re-analyses (zero pivot
	// or growth beyond spGrowthLimit under the frozen order). Excluded from
	// RescueCounts: whether a given sample trips the growth check depends on
	// which sample last re-analyzed this worker's pooled template, which is
	// scheduling-dependent.
	SparseRepivots int64

	// ModelEvals counts MOSFET compact-model evaluations (scalar Eval /
	// EvalDerivs calls and batched SoA lane-evaluations alike), the
	// denominator for model-throughput metrics. Incremented at the sites
	// that invoke a model, not at the stamping sites that consume a
	// pre-computed bundle, so batch and scalar paths count identically.
	ModelEvals int64
}

// RescueCounts returns the nonzero rescue-ladder counters keyed by stage
// name, the form montecarlo.RunReport aggregates across workers. Only
// counters whose per-sample increments depend solely on the sample (not on
// worker scheduling or template construction) are included, so the summed
// map is invariant under worker count.
func (s SolverStats) RescueCounts() map[string]int64 {
	out := make(map[string]int64, 7)
	add := func(k string, v int64) {
		if v != 0 {
			out[k] = v
		}
	}
	add(string(StageDCGmin), s.DCGminRescues)
	add(string(StageDCSource), s.DCSourceRescues)
	add(string(StageDCPseudo), s.DCPseudoRescues)
	add(string(StageTranHalve), s.TranHalvings)
	add("tran-substep", s.Rescues)
	add("fast-fallback", s.FastFallbacks)
	add("nonfinite-reject", s.NonFiniteRejects)
	return out
}

// Work reduces the counter set to the two numbers the per-sample flight
// recorder ranks on: total Newton iterations and total rescue-ladder
// stages climbed (every counter RescueCounts exposes). Both are pure
// functions of the sample's physics, never of worker scheduling, so
// per-sample deltas of Work are deterministic at any worker count.
func (s SolverStats) Work() (iters, rescues int64) {
	return s.NewtonIters, s.DCGminRescues + s.DCSourceRescues + s.DCPseudoRescues +
		s.TranHalvings + s.Rescues + s.FastFallbacks + s.NonFiniteRejects
}

// Add returns the field-wise sum of two counter sets (benches spanning
// several circuits report one merged set).
func (s SolverStats) Add(o SolverStats) SolverStats {
	return SolverStats{
		NewtonIters:      s.NewtonIters + o.NewtonIters,
		JacRefreshes:     s.JacRefreshes + o.JacRefreshes,
		TranSteps:        s.TranSteps + o.TranSteps,
		Rescues:          s.Rescues + o.Rescues,
		DCGminRescues:    s.DCGminRescues + o.DCGminRescues,
		DCSourceRescues:  s.DCSourceRescues + o.DCSourceRescues,
		DCPseudoRescues:  s.DCPseudoRescues + o.DCPseudoRescues,
		TranHalvings:     s.TranHalvings + o.TranHalvings,
		FastFallbacks:    s.FastFallbacks + o.FastFallbacks,
		NonFiniteRejects: s.NonFiniteRejects + o.NonFiniteRejects,
		SparseRepivots:   s.SparseRepivots + o.SparseRepivots,
		ModelEvals:       s.ModelEvals + o.ModelEvals,
	}
}

// Stats returns the accumulated solver counters.
func (c *Circuit) Stats() SolverStats { return c.stats }

// ResetStats zeroes the solver counters.
func (c *Circuit) ResetStats() { c.stats = SolverStats{} }

// assemble fills the residual F(x) (sum of currents leaving each node, plus
// source constraint rows) and, when wantJ is set, its Jacobian. Residual-only
// assembly is much cheaper (one model evaluation per device instead of
// five), enabling chord-Newton iterations on a frozen Jacobian.
func (c *Circuit) assemble(x, f []float64, jac *linalg.Matrix, ctx *assembleCtx, wantJ bool) {
	for i := range f {
		f[i] = 0
	}
	if wantJ {
		jac.Zero()
	}
	nNodes := len(c.nodeNames)

	addF := func(node int, v float64) {
		if node != Gnd {
			f[node] += v
		}
	}
	addJ := func(row, col int, v float64) {
		if row != Gnd && col != Gnd {
			jac.Add(row, col, v)
		}
	}
	if !wantJ {
		addJ = func(int, int, float64) {}
	}

	// Global gmin to ground. Routed through addJ so residual-only passes
	// leave the frozen chord-Newton Jacobian untouched.
	g := c.Gmin + ctx.gminExtra
	for n := 0; n < nNodes; n++ {
		f[n] += g * x[n]
		addJ(n, n, g)
	}

	// Pseudo-transient anchor: a conductance from every node to the
	// previous pseudo-step's state, the backward-Euler companion of a
	// grounded pseudo-capacitance Cp with ptG = Cp/h. Large ptG keeps the
	// solve trivially well-conditioned near the anchor; the ramp in
	// pseudoTransient relaxes it toward the true operating point.
	if ctx.ptG > 0 {
		for n := 0; n < nNodes; n++ {
			f[n] += ctx.ptG * (x[n] - ctx.ptRef[n])
			addJ(n, n, ctx.ptG)
		}
	}

	// Resistors.
	for i := range c.rs {
		r := &c.rs[i]
		iv := r.g * (nv(x, r.a) - nv(x, r.b))
		addF(r.a, iv)
		addF(r.b, -iv)
		addJ(r.a, r.a, r.g)
		addJ(r.a, r.b, -r.g)
		addJ(r.b, r.a, -r.g)
		addJ(r.b, r.b, r.g)
	}

	// Voltage sources: branch current unknowns follow the node block.
	for i := range c.vs {
		v := &c.vs[i]
		br := nNodes + v.branch
		ib := x[br]
		addF(v.p, ib)
		addF(v.n, -ib)
		addJ(v.p, br, 1)
		addJ(v.n, br, -1)
		f[br] = nv(x, v.p) - nv(x, v.n) - ctx.srcScale*v.wave.At(ctx.t)
		addJ(br, v.p, 1)
		addJ(br, v.n, -1)
	}

	// Current sources.
	for i := range c.is {
		s := &c.is[i]
		iv := ctx.srcScale * s.wave.At(ctx.t)
		addF(s.p, iv)
		addF(s.n, -iv)
	}

	// Capacitors: open in DC, companion charge terms in transient.
	if ctx.tran != nil {
		ts := ctx.tran
		for i := range c.cs {
			cp := &c.cs[i]
			q := cp.c * (nv(x, cp.a) - nv(x, cp.b))
			var iq, geq float64
			if ts.trap && !ts.firstBE {
				iq = 2*(q-ts.qPrevCap[i])/ts.h - ts.iPrevCap[i]
				geq = 2 * cp.c / ts.h
			} else {
				iq = (q - ts.qPrevCap[i]) / ts.h
				geq = cp.c / ts.h
			}
			addF(cp.a, iq)
			addF(cp.b, -iq)
			addJ(cp.a, cp.a, geq)
			addJ(cp.a, cp.b, -geq)
			addJ(cp.b, cp.a, -geq)
			addJ(cp.b, cp.b, geq)
		}
	}

	// MOSFETs: DC channel current always; terminal charge currents in
	// transient. Transient assembles cache the model evaluations so the
	// converged step's history update (updateTranHistory) reuses the last
	// Newton evaluation instead of re-evaluating every device.
	cacheEv := ctx.tran != nil
	if cacheEv && len(c.evCache) != len(c.mos) {
		c.evCache = make([]device.Eval, len(c.mos))
	}
	for i := range c.mos {
		m := &c.mos[i]
		term := [4]int{m.d, m.g, m.s, m.b}
		var ev device.Eval
		var dv device.Derivs
		if c.devPreSet {
			// Lockstep batch driver: the SoA kernel already evaluated this
			// device at exactly these terminal voltages; consume its bundle
			// so the stamping arithmetic below is unchanged.
			dv = c.devPre[i]
			ev = dv.Eval
		} else if wantJ {
			dv = device.EvalDerivs(m.dev,
				nv(x, m.d), nv(x, m.g), nv(x, m.s), nv(x, m.b))
			ev = dv.Eval
			c.stats.ModelEvals++
		} else {
			ev = m.dev.Eval(nv(x, m.d), nv(x, m.g), nv(x, m.s), nv(x, m.b))
			c.stats.ModelEvals++
		}
		if cacheEv {
			c.evCache[i] = ev
		}
		addF(m.d, ev.Id)
		addF(m.s, -ev.Id)
		if wantJ {
			for j := 0; j < 4; j++ {
				addJ(m.d, term[j], dv.GId[j])
				addJ(m.s, term[j], -dv.GId[j])
			}
		}
		if ctx.tran != nil {
			ts := ctx.tran
			q := [4]float64{ev.Q.Qd, ev.Q.Qg, ev.Q.Qs, ev.Q.Qb}
			fac := 1 / ts.h
			if ts.trap && !ts.firstBE {
				fac = 2 / ts.h
			}
			for k := 0; k < 4; k++ {
				var iq float64
				if ts.trap && !ts.firstBE {
					iq = 2*(q[k]-ts.qPrevMos[i][k])/ts.h - ts.iPrevMos[i][k]
				} else {
					iq = (q[k] - ts.qPrevMos[i][k]) / ts.h
				}
				addF(term[k], iq)
				if wantJ {
					for j := 0; j < 4; j++ {
						addJ(term[k], term[j], fac*dv.CQ[k][j])
					}
				}
			}
		}
	}
}

// updateTranHistory advances the charge/current history after a converged
// timestep at solution x. Capacitor charges are linear in x and recomputed
// exactly. MOSFET terminal charges come from the evaluations cached by the
// last Newton assembly (or from the lockstep batch driver's devPre bundles),
// which sit at the pre-final-update Newton state: that differs from the
// converged x by less than the solve's voltage tolerance per node, so the
// charge error is far below the current tolerance in both the exact and
// fast paths. Every caller runs immediately after a successful stepSolve on
// the same circuit state, which is what fills the cache.
func (c *Circuit) updateTranHistory(x []float64, ts *tranState) {
	for i := range c.cs {
		cp := &c.cs[i]
		q := cp.c * (nv(x, cp.a) - nv(x, cp.b))
		var iq float64
		if ts.trap && !ts.firstBE {
			iq = 2*(q-ts.qPrevCap[i])/ts.h - ts.iPrevCap[i]
		} else {
			iq = (q - ts.qPrevCap[i]) / ts.h
		}
		ts.qPrevCap[i] = q
		ts.iPrevCap[i] = iq
	}
	for i := range c.mos {
		var e device.Eval
		if c.devPreSet {
			e = c.devPre[i].Eval
		} else {
			e = c.evCache[i]
		}
		q := [4]float64{e.Q.Qd, e.Q.Qg, e.Q.Qs, e.Q.Qb}
		for k := 0; k < 4; k++ {
			var iq float64
			if ts.trap && !ts.firstBE {
				iq = 2*(q[k]-ts.qPrevMos[i][k])/ts.h - ts.iPrevMos[i][k]
			} else {
				iq = (q[k] - ts.qPrevMos[i][k]) / ts.h
			}
			ts.qPrevMos[i][k] = q[k]
			ts.iPrevMos[i][k] = iq
		}
	}
}

// saveTranHistory snapshots the integrator charge history into
// circuit-owned scratch (reused across steps, so the hot path stays
// allocation-free after warmup). restoreTranHistory rewinds to the
// snapshot; together they make a failed or NaN-rejected step retryable at a
// finer sub-step without corrupting the history the next sample inherits.
func (c *Circuit) saveTranHistory(ts *tranState) {
	if len(c.hsQMos) != len(ts.qPrevMos) {
		c.hsQMos = make([][4]float64, len(ts.qPrevMos))
		c.hsIMos = make([][4]float64, len(ts.iPrevMos))
	}
	copy(c.hsQMos, ts.qPrevMos)
	copy(c.hsIMos, ts.iPrevMos)
	if len(c.hsQCap) != len(ts.qPrevCap) {
		c.hsQCap = make([]float64, len(ts.qPrevCap))
		c.hsICap = make([]float64, len(ts.iPrevCap))
	}
	copy(c.hsQCap, ts.qPrevCap)
	copy(c.hsICap, ts.iPrevCap)
}

// restoreTranHistory rewinds the charge history to the last snapshot.
func (c *Circuit) restoreTranHistory(ts *tranState) {
	copy(ts.qPrevMos, c.hsQMos)
	copy(ts.iPrevMos, c.hsIMos)
	copy(ts.qPrevCap, c.hsQCap)
	copy(ts.iPrevCap, c.hsICap)
}

// tranHistoryFinite reports whether every charge-history entry is finite.
func (c *Circuit) tranHistoryFinite(ts *tranState) bool {
	for i := range ts.qPrevMos {
		for k := 0; k < 4; k++ {
			if !finite(ts.qPrevMos[i][k]) || !finite(ts.iPrevMos[i][k]) {
				return false
			}
		}
	}
	for i := range ts.qPrevCap {
		if !finite(ts.qPrevCap[i]) || !finite(ts.iPrevCap[i]) {
			return false
		}
	}
	return true
}

// initTranHistory seeds the charge history from the state x with zero
// charge currents. Existing history slices are reused when the element
// counts match, so pooled transients allocate nothing here.
func (c *Circuit) initTranHistory(x []float64, ts *tranState) {
	if len(ts.qPrevCap) != len(c.cs) {
		ts.qPrevCap = make([]float64, len(c.cs))
		ts.iPrevCap = make([]float64, len(c.cs))
	} else {
		for i := range ts.iPrevCap {
			ts.iPrevCap[i] = 0
		}
	}
	if len(ts.qPrevMos) != len(c.mos) {
		ts.qPrevMos = make([][4]float64, len(c.mos))
		ts.iPrevMos = make([][4]float64, len(c.mos))
	} else {
		for i := range ts.iPrevMos {
			ts.iPrevMos[i] = [4]float64{}
		}
	}
	for i := range c.cs {
		cp := &c.cs[i]
		ts.qPrevCap[i] = cp.c * (nv(x, cp.a) - nv(x, cp.b))
	}
	for i := range c.mos {
		m := &c.mos[i]
		e := m.dev.Eval(nv(x, m.d), nv(x, m.g), nv(x, m.s), nv(x, m.b))
		c.stats.ModelEvals++
		ts.qPrevMos[i] = [4]float64{e.Q.Qd, e.Q.Qg, e.Q.Qs, e.Q.Qb}
	}
}

// luSolver is the factorization interface newton drives: both the dense
// *linalg.LU and the sparse *linalg.SparseLU satisfy it with the same
// no-allocation SolvePermuting contract.
type luSolver interface {
	SolvePermuting(b, scratch []float64) []float64
}

// newton runs damped Newton iteration on the system selected by ctx,
// starting from and updating x in place. On failure it returns a typed
// *ConvergenceError carrying the iteration budget spent and the worst node
// with its residual; the caller tags it with the analysis stage and time.
// A NaN/Inf iterate aborts the iteration immediately (counted in
// NonFiniteRejects) instead of grinding through the iteration budget, and
// the poisoned update is rolled back so x stays finite for the next rescue
// rung.
//
// When ctx.carry is set and the circuit holds a valid factorization from a
// previous solve with the same luKey, the iteration starts as chord Newton
// on that carried factorization; the stall detector refreshes the Jacobian
// as soon as the frozen factors stop contracting, so correctness never
// depends on the carried factors being fresh (convergence is always judged
// on the true residual).
func (c *Circuit) newton(x []float64, ctx *assembleCtx) *ConvergenceError {
	var ns newtonState
	ns.init(c, x, ctx)
	for !ns.step(ctx) {
	}
	return ns.cerr
}

// newtonState is one Newton solve unrolled into an explicitly resumable
// form: init is the scalar newton's preamble, step is exactly one iteration
// of its loop. The scalar newton above is init + step-until-finished; the
// lockstep batch driver (batch.go) interleaves step calls across K lanes,
// performing the device evaluations for all lanes in one SoA kernel call
// between rounds (wantJ tells it which lanes need the full bundle). The
// split is pure code motion — per lane, the arithmetic and control flow are
// the scalar solver's, statement for statement.
type newtonState struct {
	c *Circuit
	// ctx is deliberately NOT stored: step takes it as an argument so the
	// caller's stack-allocated assembleCtx never escapes (storing it here
	// costs one heap allocation per solve on the pooled hot path).
	x         []float64
	f         []float64
	scratch   []float64
	jac       *linalg.Matrix
	useSparse bool
	lu        luSolver
	maxIter   int
	key       luKey
	tv, ti    float64
	prevDv    float64
	forceJ    bool
	lastDv    float64
	lastF     float64
	lastWorst int
	iter      int
	// wantJ is the already-made refresh decision for the NEXT step call, so
	// the batch driver knows whether the lane needs a full derivative bundle
	// or values only before evaluating.
	wantJ bool
	// finished/cerr are the outcome once step returns true.
	finished bool
	cerr     *ConvergenceError
}

// init replicates the scalar newton preamble: scratch sizing, linear-core
// resolution, carried-factorization pickup.
func (ns *newtonState) init(c *Circuit, x []float64, ctx *assembleCtx) {
	n := c.unknowns()
	// Newton scratch buffers live on the circuit (one goroutine per
	// circuit), so transient loops do not re-allocate per step.
	if len(c.nwF) != n {
		c.nwF = make([]float64, n)
		c.nwScratch = make([]float64, n)
		c.nwJac, c.nwLU = nil, nil
		c.spReady = false
		c.luValid = false
	}
	// Resolve the linear core; the per-core workspaces are lazy so a circuit
	// on the sparse path never allocates the dense n² matrix (and vice
	// versa). A core switch invalidates any carried factorization.
	useSparse := c.useSparseCore()
	if useSparse != c.coreSparse {
		c.coreSparse = useSparse
		c.luValid = false
	}
	if useSparse {
		if !c.spReady {
			c.buildStampMap()
		}
	} else if c.nwJac == nil {
		c.nwJac = linalg.NewMatrix(n, n)
		c.nwLU = linalg.NewLUWorkspace(n)
	}

	maxIter := c.MaxNewton
	if maxIter <= 0 {
		maxIter = 150
	}
	*ns = newtonState{
		c: c, x: x,
		f: c.nwF, scratch: c.nwScratch, jac: c.nwJac,
		useSparse: useSparse,
		maxIter:   maxIter,
		key:       ctxKey(ctx),
		tv:        tolV, ti: tolI,
		prevDv:    math.Inf(1),
		forceJ:    true,
		lastWorst: -1,
	}
	if ctx.fast {
		ns.tv, ns.ti = tolVFast, tolIFast
	}
	if ctx.carry && c.luValid && c.luKey == ns.key {
		// Start as chord Newton on the carried factorization: prevDv below
		// the refresh threshold, no forced refresh. The first update that
		// moves any node by more than 50 mV triggers a refresh.
		if useSparse {
			ns.lu = c.spLU
		} else {
			ns.lu = c.nwLU
		}
		ns.prevDv = 0.1
		ns.forceJ = false
	}
	c.luValid = false
	// Refresh policy. The VS model's native derivative bundle falls out of
	// the series solve, so a with-Jacobian assembly costs the same device
	// work as a values-only one: in exact mode full Newton (refresh every
	// iteration, quadratic convergence) beats chord iteration, whose only
	// remaining saving is the factorization. Fast mode keeps chord Newton —
	// there the carried factorization skips assembly AND factoring, and the
	// stall detector refreshes whenever contraction slows.
	ns.wantJ = !ctx.fast || ns.lu == nil || ns.forceJ || ns.prevDv > 0.2
}

// fail records a terminal convergence error.
func (ns *newtonState) fail(cerr *ConvergenceError) bool {
	ns.finished = true
	ns.cerr = cerr
	return true
}

// step runs one Newton iteration (or reports iteration-budget exhaustion),
// returning true when the solve is finished — converged (cerr nil) or
// failed (cerr set). Exactly the body of the scalar newton's loop.
func (ns *newtonState) step(ctx *assembleCtx) bool {
	c, x := ns.c, ns.x
	nNodes := len(c.nodeNames)
	if ns.iter >= ns.maxIter {
		cerr := &ConvergenceError{Iters: ns.maxIter, Residual: ns.lastF,
			DeltaV: ns.lastDv, Err: ErrNoConvergence}
		if ns.lastWorst >= 0 {
			cerr.Node = c.unknownName(ns.lastWorst)
		}
		return ns.fail(cerr)
	}
	// Lifecycle check at the iteration boundary: every analysis (DC rungs,
	// transient steps, sub-step rescue pieces) funnels through here, so one
	// check site covers them all. Nil on the hot path, allocation-free while
	// the sample stays within budget.
	if lcErr := c.checkLifecycle(); lcErr != nil {
		return ns.fail(&ConvergenceError{Iters: ns.iter, Residual: ns.lastF,
			DeltaV: ns.lastDv, Err: lcErr})
	}
	f, jac, scratch := ns.f, ns.jac, ns.scratch
	// Assembly-with-Jacobian is the "assemble-J" observability phase and the
	// factorization refresh is "lu-factor", both carved out of newton-solve
	// so the device-model and linear-algebra costs are separately visible.
	wantJ := ns.wantJ
	if wantJ {
		c.obsScope.Enter(obs.PhaseAssemble)
		if ns.useSparse {
			c.assembleSparse(x, f, ctx)
		} else {
			c.assemble(x, f, jac, ctx, true)
		}
		c.obsScope.Exit()
	} else {
		c.assemble(x, f, nil, ctx, false)
	}
	// Reject NaN/Inf residuals before they reach the linear solve: a single
	// non-finite model evaluation would otherwise smear NaN over the whole
	// update vector and burn the full iteration budget (NaN compares false
	// against every tolerance).
	if i := firstNonFinite(f); i >= 0 {
		c.stats.NonFiniteRejects++
		c.traceNonFinite("newton-residual", ctx.t)
		return ns.fail(&ConvergenceError{Iters: ns.iter + 1, Node: c.unknownName(i),
			Residual: f[i], Err: ErrNonFiniteSolution})
	}
	if wantJ {
		c.obsScope.Enter(obs.PhaseFactor)
		var err error
		if ns.useSparse {
			err = c.factorSparse()
			ns.lu = c.spLU
		} else {
			err = c.nwLU.Factor(jac)
			ns.lu = c.nwLU
		}
		c.obsScope.Exit()
		if err != nil {
			return ns.fail(&ConvergenceError{Iters: ns.iter + 1,
				Err: fmt.Errorf("singular Jacobian: %w", err)})
		}
		c.stats.JacRefreshes++
	}
	c.stats.NewtonIters++
	c.obsScope.Enter(obs.PhaseTriSolve)
	dx := ns.lu.SolvePermuting(f, scratch)
	c.obsScope.Exit()
	// A finite residual through a near-singular factorization can still
	// produce Inf/NaN updates; reject them before touching x.
	if i := firstNonFinite(dx); i >= 0 {
		c.stats.NonFiniteRejects++
		c.traceNonFinite("newton-update", ctx.t)
		return ns.fail(&ConvergenceError{Iters: ns.iter + 1, Node: c.unknownName(i),
			Residual: ns.lastF, Err: ErrNonFiniteSolution})
	}

	// Voltage limiting on node entries.
	maxDv := 0.0
	for i := 0; i < nNodes; i++ {
		if dx[i] > vLimit {
			dx[i] = vLimit
		} else if dx[i] < -vLimit {
			dx[i] = -vLimit
		}
		if a := math.Abs(dx[i]); a > maxDv {
			maxDv = a
		}
	}
	for i := range x {
		x[i] -= dx[i]
	}

	maxF := 0.0
	worst := -1
	for i := 0; i < nNodes; i++ {
		if a := math.Abs(f[i]); a > maxF {
			maxF = a
			worst = i
		}
	}
	ns.lastDv, ns.lastF, ns.lastWorst = maxDv, maxF, worst
	if maxDv < ns.tv && maxF < ns.ti {
		c.luValid = true
		c.luKey = ns.key
		ns.finished = true
		return true
	}
	// A stale Jacobian must still contract; refresh when it stalls.
	ns.forceJ = !wantJ && maxDv > 0.5*ns.prevDv
	if !wantJ && !ns.forceJ && maxDv > ns.tv {
		// Chord contraction is linear, so the remaining iteration count is
		// predictable from the observed ratio. Refresh unless the frozen
		// factors will finish within a few more passes — this catches
		// switching edges on their first slow iteration instead of grinding
		// toward tolerance at ratio ~0.4.
		rho := maxDv / ns.prevDv
		if rho > 0.04 && math.Log(ns.tv/maxDv) < 3*math.Log(rho) {
			ns.forceJ = true
		}
	}
	ns.prevDv = maxDv
	ns.iter++
	// See init: exact mode runs full Newton now that the analytic device
	// bundle makes with-Jacobian assembly no dearer than values-only.
	ns.wantJ = !ctx.fast || ns.lu == nil || ns.forceJ || ns.prevDv > 0.2
	return false
}
