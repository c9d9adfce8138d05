package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"vstat/internal/circuits"
	"vstat/internal/core"
	"vstat/internal/device"
	"vstat/internal/measure"
	"vstat/internal/montecarlo"
	"vstat/internal/obs"
	"vstat/internal/spice"
	"vstat/internal/ssta"
	"vstat/internal/stats"
)

// Extension experiments beyond the paper's figures: they exercise the
// capabilities the paper claims for the statistical VS model (parametric
// yield from Fig. 6, SSTA difficulty from Fig. 7, setup AND hold from
// Fig. 8's discussion, and classic corner-model derivation).

// ExtSSTAVddRow is one supply point of the SSTA extension.
type ExtSSTAVddRow struct {
	Vdd        float64
	Paths      int     // parallel reconvergent paths
	Depth      int     // stages per path
	GaussMu    float64 // Gaussian SSTA arrival mean at the sink
	GaussSigma float64
	GaussQ999  float64 // µ + 3.09σ
	MCQ999     float64 // bootstrap MC 99.9% quantile
	TailErrPct float64 // (MC − Gauss)/MC ×100
}

// ExtSSTAResult quantifies how Gaussian SSTA degrades as gate delays turn
// non-Gaussian at low Vdd — the concrete version of the paper's Fig. 7
// remark that SSTA "becomes more difficult".
type ExtSSTAResult struct {
	Rows []ExtSSTAVddRow
}

// ExtSSTA consumes the Fig. 7 per-gate delay populations and propagates a
// MAX-dominated balanced tree (16 reconvergent 5-stage paths) both ways.
// A plain chain would let the central limit theorem wash the per-gate skew
// out; the MAX over parallel paths is where non-Gaussian tails bite SSTA.
func (s *Suite) ExtSSTA(f7 Fig7Result) (ExtSSTAResult, error) {
	const depth = 4 // 2^4 = 16 parallel paths, 5 edges per path
	var out ExtSSTAResult
	for _, col := range f7.Vdds {
		e := ssta.NewEmpirical(col.VS.Samples)
		g, sink := ssta.Balanced(depth, e)
		arr, err := g.PropagateGaussian()
		if err != nil {
			return out, err
		}
		mc, err := g.PropagateMC([]ssta.NodeID{sink}, 20000, s.Cfg.Seed+int64(col.Vdd*1e4))
		if err != nil {
			return out, err
		}
		a := arr[sink]
		q999 := stats.Quantile(mc[sink], 0.999)
		gq := a.Mu + 3.090*a.Sigma
		out.Rows = append(out.Rows, ExtSSTAVddRow{
			Vdd: col.Vdd, Paths: 1 << depth, Depth: depth + 1,
			GaussMu: a.Mu, GaussSigma: a.Sigma,
			GaussQ999: gq, MCQ999: q999,
			TailErrPct: 100 * (q999 - gq) / q999,
		})
	}
	return out, nil
}

// String renders the SSTA comparison.
func (r ExtSSTAResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: Gaussian SSTA vs Monte Carlo, %d reconvergent %d-stage NAND2 paths\n",
		r.Rows[0].Paths, r.Rows[0].Depth)
	fmt.Fprintf(&b, "%8s %12s %10s %14s %14s %12s\n",
		"Vdd (V)", "mean (ps)", "sd (ps)", "Gauss q99.9", "MC q99.9", "tail err %")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%8.2f %12.2f %10.2f %11.2f ps %11.2f ps %12.2f\n",
			row.Vdd, row.GaussMu*1e12, row.GaussSigma*1e12,
			row.GaussQ999*1e12, row.MCQ999*1e12, row.TailErrPct)
	}
	fmt.Fprintf(&b, "  (Clark-based Gaussian SSTA misses the MAX-amplified tails of the skewed\n   low-Vdd delays: the concrete form of paper Fig. 7's SSTA warning)\n")
	return b.String()
}

// ExtCornersResult compares derived ±3σ corner delays against Monte Carlo
// quantiles for the INV FO3 bench.
type ExtCornersResult struct {
	N                     int
	TT, FF, SS            float64 // corner delays
	MCQ001, MCMed, MCQ999 float64
	CoveragePct           float64 // fraction of MC inside [FF, SS] corner delays
	Health                Health
}

// ExtCorners runs the corner ablation.
func (s *Suite) ExtCorners() (ExtCornersResult, error) {
	sz := circuits.Sizing{WP: 600e-9, WN: 300e-9, L: 40e-9}
	res := ExtCornersResult{N: s.Cfg.samples(1000)}

	cornerDelay := func(c core.Corner) (float64, error) {
		b := circuits.InverterFO(3, s.Cfg.Vdd, sz, s.VS.CornerFactory(c, 3))
		tr, err := b.Ckt.Transient(spice.TranOpts{Stop: gateTranStop, Step: gateTranStep})
		if err != nil {
			return 0, err
		}
		return measure.PairDelay(tr, b.In, b.Out, s.Cfg.Vdd)
	}
	var err error
	if res.TT, err = cornerDelay(core.TT); err != nil {
		return res, err
	}
	if res.FF, err = cornerDelay(core.FF); err != nil {
		return res, err
	}
	if res.SS, err = cornerDelay(core.SS); err != nil {
		return res, err
	}

	delays, rep, err := pooledDelayMC(s.Cfg, "ext-corners-mc", res.N, s.Cfg.Seed+777,
		s.VS, s.Cfg.Vdd, pooledInvFO3(s.Cfg.Vdd, sz), s.instr)
	res.Health.Merge(rep)
	if err != nil {
		return res, err
	}
	res.MCQ001 = stats.Quantile(delays, 0.001)
	res.MCMed = stats.Median(delays)
	res.MCQ999 = stats.Quantile(delays, 0.999)
	in := 0
	for _, d := range delays {
		if d >= res.FF && d <= res.SS {
			in++
		}
	}
	res.CoveragePct = 100 * float64(in) / float64(len(delays))
	return res, nil
}

// String renders the corner comparison.
func (r ExtCornersResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: derived 3σ corners vs Monte Carlo, INV FO3 delay (N=%d)\n", r.N)
	fmt.Fprintf(&b, "  corners: FF %.2f ps  TT %.2f ps  SS %.2f ps\n", r.FF*1e12, r.TT*1e12, r.SS*1e12)
	fmt.Fprintf(&b, "  MC: q0.1%% %.2f ps  median %.2f ps  q99.9%% %.2f ps\n",
		r.MCQ001*1e12, r.MCMed*1e12, r.MCQ999*1e12)
	fmt.Fprintf(&b, "  MC fraction inside [FF, SS]: %.2f %%\n", r.CoveragePct)
	b.WriteString(healthLine(r.Health))
	return b.String()
}

// ExtYieldResult analyzes the Fig. 6 population: lognormal leakage fit and
// parametric yield under frequency/leakage limits.
type ExtYieldResult struct {
	N           int
	LeakFit     stats.LognormalFit
	LeakKS      float64 // KS distance of leakage to the lognormal fit
	Spread999   float64 // q99.9/q0.1 of the fit
	FreqLimit   float64
	LeakLimit   float64
	YieldVS     float64
	YieldGolden float64
}

// ExtYield fits the VS leakage population and evaluates yield at limits set
// from the golden population (min frequency = golden 5th percentile, max
// leakage = golden 95th percentile), so the two models' yields are directly
// comparable.
func (s *Suite) ExtYield(f6 Fig6Result) ExtYieldResult {
	leakV := make([]float64, len(f6.VS))
	freqV := make([]float64, len(f6.VS))
	for i, p := range f6.VS {
		leakV[i], freqV[i] = p.Leakage, p.Freq
	}
	leakG := make([]float64, len(f6.Golden))
	freqG := make([]float64, len(f6.Golden))
	for i, p := range f6.Golden {
		leakG[i], freqG[i] = p.Leakage, p.Freq
	}
	fit := stats.FitLognormal(leakV)
	res := ExtYieldResult{
		N:         len(f6.VS),
		LeakFit:   fit,
		LeakKS:    stats.KSDistance(leakV, fit.CDF),
		Spread999: fit.SpreadRatio(0.999),
		FreqLimit: stats.Quantile(freqG, 0.05),
		LeakLimit: stats.Quantile(leakG, 0.95),
	}
	res.YieldVS = stats.YieldEstimate(freqV, leakV, res.FreqLimit, res.LeakLimit)
	res.YieldGolden = stats.YieldEstimate(freqG, leakG, res.FreqLimit, res.LeakLimit)
	return res
}

// String renders the yield analysis.
func (r ExtYieldResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: parametric yield from the Fig. 6 population (N=%d)\n", r.N)
	fmt.Fprintf(&b, "  VS leakage lognormal fit: median %.3g A, σ(ln) %.3f, KS %.3f, q99.9/q0.1 spread %.1fx\n",
		r.LeakFit.Median(), r.LeakFit.Sigma, r.LeakKS, r.Spread999)
	fmt.Fprintf(&b, "  limits: freq ≥ %.3g Hz, leakage ≤ %.3g A (golden 5%%/95%% points)\n",
		r.FreqLimit, r.LeakLimit)
	fmt.Fprintf(&b, "  yield: VS %.1f %%, golden %.1f %%\n", 100*r.YieldVS, 100*r.YieldGolden)
	return b.String()
}

// Fig8HoldResult extends Fig. 8 with the hold-time distribution the paper's
// setup/hold discussion covers.
type Fig8HoldResult struct {
	N          int
	Golden, VS DelayDist
	Health     Health
}

// Fig8Hold Monte Carlos the register hold time with both models.
func (s *Suite) Fig8Hold() (Fig8HoldResult, error) {
	n := s.Cfg.samples(250)
	res := Fig8HoldResult{N: n}
	run := func(m core.StatModel, name string, seed int64) ([]float64, error) {
		out, rep, err := pooledRegisterMC(s.Cfg, name, n, seed, m, measure.HoldTime, s.instr)
		res.Health.Merge(rep)
		return out, err
	}
	g, err := run(s.Golden, "fig8hold-golden", s.Cfg.Seed+83)
	if err != nil {
		return res, fmt.Errorf("fig8 hold golden: %w", err)
	}
	v, err := run(s.VS, "fig8hold-vs", s.Cfg.Seed+84)
	if err != nil {
		return res, fmt.Errorf("fig8 hold vs: %w", err)
	}
	res.Golden = newDelayDist(g)
	res.VS = newDelayDist(v)
	return res, nil
}

// String renders the hold-time summary.
func (r Fig8HoldResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 8 extension: DFF hold time, N=%d per model\n", r.N)
	fmt.Fprintf(&b, "  golden: mean %.2f ps  sd %.2f ps\n", r.Golden.Mean*1e12, r.Golden.SD*1e12)
	fmt.Fprintf(&b, "  VS    : mean %.2f ps  sd %.2f ps\n", r.VS.Mean*1e12, r.VS.SD*1e12)
	b.WriteString(healthLine(r.Health))
	return b.String()
}

// ExtRingResult Monte Carlos a 5-stage ring oscillator frequency — a
// compact silicon-style frequency monitor for the statistical model.
type ExtRingResult struct {
	N          int
	Golden, VS DelayDist // frequencies, Hz (container reuse)
	Health     Health
	_          [0]device.Kind
}

// ExtRing runs the ring-oscillator frequency MC.
func (s *Suite) ExtRing() (ExtRingResult, error) {
	n := s.Cfg.samples(500)
	sz := circuits.Sizing{WP: 600e-9, WN: 300e-9, L: 40e-9}
	res := ExtRingResult{N: n}
	run := func(m core.StatModel, name string, seed int64) ([]float64, error) {
		out, rep, err := runPooledMC[obsState[*circuits.PooledRing], float64](s.Cfg, name, n, seed,
			newObsState(s.instr, func() (*circuits.PooledRing, error) {
				return circuits.NewPooledRing(5, s.Cfg.Vdd, sz, m.Nominal(), s.Cfg.FastMC), nil
			}),
			func(st obsState[*circuits.PooledRing], idx int, rng *rand.Rand) (float64, error) {
				ro, so := st.B, st.So
				sc := so.Scope()
				ro.Ckt.SetObsSample(idx)
				sc.Enter(obs.PhaseRestamp)
				ro.Restat(so.Factory(m.Statistical(rng)))
				sc.Exit()
				// Frequency's transient records itself as solver time inside
				// the measure span; the residual is the frequency extraction.
				sc.Enter(obs.PhaseMeasure)
				f, err := ro.Frequency(1.2e-9, 1.5e-12)
				sc.Exit()
				so.End(ro.Ckt.Stats())
				return f, err
			})
		res.Health.Merge(rep)
		if err != nil {
			return nil, err
		}
		return montecarlo.Compact(out, rep), nil
	}
	g, err := run(s.Golden, "ext-ring-golden", s.Cfg.Seed+901)
	if err != nil {
		return res, fmt.Errorf("ring golden: %w", err)
	}
	v, err := run(s.VS, "ext-ring-vs", s.Cfg.Seed+902)
	if err != nil {
		return res, fmt.Errorf("ring vs: %w", err)
	}
	res.Golden = newDelayDist(g)
	res.VS = newDelayDist(v)
	return res, nil
}

// String renders the ring summary.
func (r ExtRingResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: 5-stage ring oscillator frequency, N=%d per model\n", r.N)
	fmt.Fprintf(&b, "  golden: mean %.3f GHz  sd %.3f GHz\n", r.Golden.Mean/1e9, r.Golden.SD/1e9)
	fmt.Fprintf(&b, "  VS    : mean %.3f GHz  sd %.3f GHz\n", r.VS.Mean/1e9, r.VS.SD/1e9)
	b.WriteString(healthLine(r.Health))
	return b.String()
}
