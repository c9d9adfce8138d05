package experiments

import (
	"math/rand"

	"vstat/internal/circuits"
	"vstat/internal/core"
	"vstat/internal/measure"
	"vstat/internal/montecarlo"
	"vstat/internal/obs"
)

// This file hosts the pooled Monte Carlo plumbing shared by the circuit
// experiments: each worker builds one bench template (netlist, node map,
// solver scratch) from the model's nominal factory, and every sample
// re-stamps the template's device cards from the statistical factory before
// running the measurement. Device draws replay in build order, so the
// per-sample RNG stream — and with it every sampled metric — stays
// bit-identical to the old rebuild-per-sample code for any worker count.

// gateBuilder constructs one pooled gate bench template.
type gateBuilder func(nominal circuits.Factory, fast bool) (*circuits.PooledGate, error)

// pooledInvFO3 returns the INV FO3 builder at the given supply and sizing.
func pooledInvFO3(vdd float64, sz circuits.Sizing) gateBuilder {
	return func(f circuits.Factory, fast bool) (*circuits.PooledGate, error) {
		return circuits.NewPooledInverterFO(3, vdd, sz, f, fast)
	}
}

// pooledNand2FO3 returns the NAND2 FO3 builder at the given supply and
// sizing.
func pooledNand2FO3(vdd float64, sz circuits.Sizing) gateBuilder {
	return func(f circuits.Factory, fast bool) (*circuits.PooledGate, error) {
		return circuits.NewPooledNAND2FO(3, vdd, sz, f, fast)
	}
}

// pooledDelayMC runs an n-sample pair-delay Monte Carlo over per-worker
// pooled benches under cfg's failure policy and lifecycle options
// (context, per-sample budget, hang watchdog, checkpoint named name). The
// returned slice holds only the successful samples (failed ones are
// compacted away and recorded in the report). A live mi attaches
// per-worker phase timing, Newton-work histograms and rescue counters; nil
// runs uninstrumented.
func pooledDelayMC(cfg Config, name string, n int, seed int64,
	m core.StatModel, vdd float64, build gateBuilder, mi *MCInstr) ([]float64, montecarlo.RunReport, error) {
	fast := cfg.FastMC
	out, rep, err := runPooledMC[obsState[*circuits.PooledGate], float64](cfg, name, n, seed,
		newObsState(mi, func() (*circuits.PooledGate, error) { return build(m.Nominal(), fast) }),
		func(st obsState[*circuits.PooledGate], idx int, rng *rand.Rand) (float64, error) {
			b, so := st.B, st.So
			sc := so.Scope()
			b.Ckt.SetObsSample(idx)
			sc.Enter(obs.PhaseRestamp)
			b.Restat(so.Factory(m.Statistical(rng)))
			sc.Exit()
			res, err := b.Transient(gateTranStop, gateTranStep)
			if err != nil {
				so.End(b.Ckt.Stats())
				return 0, err
			}
			sc.Enter(obs.PhaseMeasure)
			d, derr := measure.PairDelay(res, b.In, b.Out, vdd)
			sc.Exit()
			so.End(b.Ckt.Stats())
			return d, derr
		})
	if err != nil {
		return nil, rep, err
	}
	return montecarlo.Compact(out, rep), rep, nil
}

// registerSearch is one register timing search (measure.SetupTime or
// measure.HoldTime).
type registerSearch func(*circuits.DFF, measure.SetupOpts) (float64, error)

// pooledRegisterMC runs an n-sample register-timing Monte Carlo (one full
// setup or hold bisection per sample) over per-worker pooled registers,
// with the same policy, lifecycle and instrumentation handling as
// pooledDelayMC. The returned slice holds only the successful samples.
func pooledRegisterMC(cfg Config, name string, n int, seed int64,
	m core.StatModel, search registerSearch, mi *MCInstr) ([]float64, montecarlo.RunReport, error) {
	opts := measure.DefaultSetupOpts()
	out, rep, err := runPooledMC[obsState[*circuits.PooledDFF], float64](cfg, name, n, seed,
		newObsState(mi, func() (*circuits.PooledDFF, error) {
			return circuits.NewPooledDFF(cfg.Vdd, circuits.DefaultDFFSizing(), m.Nominal(), cfg.FastMC), nil
		}),
		func(st obsState[*circuits.PooledDFF], idx int, rng *rand.Rand) (float64, error) {
			ff, so := st.B, st.So
			sc := so.Scope()
			ff.Ckt.SetObsSample(idx)
			sc.Enter(obs.PhaseRestamp)
			ff.Restat(so.Factory(m.Statistical(rng)))
			sc.Exit()
			o := opts
			o.Res, o.Fast = &ff.Res, ff.Fast
			// The bisection's transient solves record themselves inside
			// the measure span, pausing it for the solver's share.
			sc.Enter(obs.PhaseMeasure)
			t, err := search(ff.DFF, o)
			sc.Exit()
			so.End(ff.Ckt.Stats())
			return t, err
		})
	if err != nil {
		return nil, rep, err
	}
	return montecarlo.Compact(out, rep), rep, nil
}

// pooledSNMMC runs an n-sample SRAM static-noise-margin Monte Carlo over
// per-worker pooled cells. Every sample extracts the READ and then the
// HOLD SNM, in the draw and sweep order of the unpooled snmSample. The
// re-stamp and SNM extraction are spanned while the butterfly DC sweeps
// record themselves as solver time. Only successful samples are returned.
func pooledSNMMC(cfg Config, name string, n int, seed int64,
	m core.StatModel, mi *MCInstr) (read, hold []float64, rep montecarlo.RunReport, err error) {
	pairs, rep, err := runPooledMC[obsState[*circuits.PooledSRAM], [2]float64](cfg, name, n, seed,
		newObsState(mi, func() (*circuits.PooledSRAM, error) {
			return circuits.NewPooledSRAM(cfg.Vdd, circuits.DefaultSRAMSizing(),
				m.Nominal(), butterflyPoints, cfg.FastMC), nil
		}),
		func(st obsState[*circuits.PooledSRAM], idx int, rng *rand.Rand) ([2]float64, error) {
			cell, so := st.B, st.So
			sc := so.Scope()
			cell.SetObsSample(idx)
			sc.Enter(obs.PhaseRestamp)
			cell.Restat(so.Factory(m.Statistical(rng)))
			sc.Exit()
			var p [2]float64
			var err error
			p[0], err = pooledSNM(cell, true, sc)
			if err == nil {
				p[1], err = pooledSNM(cell, false, sc)
			}
			so.End(cell.Stats())
			return p, err
		})
	if err != nil {
		return nil, nil, rep, err
	}
	pairs = montecarlo.Compact(pairs, rep)
	read = make([]float64, len(pairs))
	hold = make([]float64, len(pairs))
	for i, p := range pairs {
		read[i], hold[i] = p[0], p[1]
	}
	return read, hold, rep, nil
}

// pooledSNM sweeps the cell's READ or HOLD butterfly and extracts its SNM
// inside a measure span.
func pooledSNM(cell *circuits.PooledSRAM, read bool, sc *obs.Scope) (float64, error) {
	l, r, err := cell.Butterfly(read)
	if err != nil {
		return 0, err
	}
	sc.Enter(obs.PhaseMeasure)
	res, err := measure.SNM(l, r)
	sc.Exit()
	return res.SNM, err
}
