package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"vstat/internal/circuits"
	"vstat/internal/core"
	"vstat/internal/measure"
	"vstat/internal/montecarlo"
	"vstat/internal/obs"
	"vstat/internal/spice"
	"vstat/internal/stats"
)

// gateTranStop is the transient window covering both edges of the input
// pulse for the gate benches.
const gateTranStop = 560e-12

// gateTranStep is the fixed transient step for delay Monte Carlo.
const gateTranStep = 1.5e-12

// invDelaySample builds a fresh mismatched INV FO3 bench and measures its
// pair delay.
func invDelaySample(m core.StatModel, rng *rand.Rand, vdd float64, sz circuits.Sizing) (float64, error) {
	b := circuits.InverterFO(3, vdd, sz, m.Statistical(rng))
	res, err := b.Ckt.Transient(spice.TranOpts{Stop: gateTranStop, Step: gateTranStep})
	if err != nil {
		return 0, err
	}
	return measure.PairDelay(res, b.In, b.Out, vdd)
}

// nandDelaySample measures one NAND2 FO3 pair delay.
func nandDelaySample(m core.StatModel, rng *rand.Rand, vdd float64, sz circuits.Sizing) (float64, error) {
	b := circuits.NAND2FO(3, vdd, sz, m.Statistical(rng))
	res, err := b.Ckt.Transient(spice.TranOpts{Stop: gateTranStop, Step: gateTranStep})
	if err != nil {
		return 0, err
	}
	return measure.PairDelay(res, b.In, b.Out, vdd)
}

// DelayDist summarizes one delay population and its density estimate.
type DelayDist struct {
	Samples  []float64
	Mean, SD float64
	KDEx     []float64
	KDEy     []float64
}

func newDelayDist(samples []float64) DelayDist {
	k := stats.NewKDE(samples)
	x, y := k.Curve(120)
	return DelayDist{
		Samples: samples,
		Mean:    stats.Mean(samples),
		SD:      stats.StdDev(samples),
		KDEx:    x,
		KDEy:    y,
	}
}

// Fig5Size is one sizing column of paper Fig. 5.
type Fig5Size struct {
	Label      string
	Sz         circuits.Sizing
	Golden, VS DelayDist
}

// Fig5Result is paper Fig. 5: INV FO3 delay PDFs for three sizes, both
// models, at Vdd = 0.9 V.
type Fig5Result struct {
	N     int
	Sizes []Fig5Size

	// Health aggregates the Monte Carlo run reports of all six populations.
	Health Health
}

// Fig5Sizings are the paper's 1×/2×/4× inverter sizes (P/N widths).
var Fig5Sizings = []struct {
	Label string
	Sz    circuits.Sizing
}{
	{"P/N 300/150", circuits.Sizing{WP: 300e-9, WN: 150e-9, L: 40e-9}},
	{"P/N 600/300", circuits.Sizing{WP: 600e-9, WN: 300e-9, L: 40e-9}},
	{"P/N 1200/600", circuits.Sizing{WP: 1200e-9, WN: 600e-9, L: 40e-9}},
}

// Fig5 runs the INV FO3 delay Monte Carlo.
func (s *Suite) Fig5() (Fig5Result, error) {
	n := s.Cfg.samples(2500)
	res := Fig5Result{N: n}
	for si, cfgSz := range Fig5Sizings {
		seed := s.Cfg.Seed + int64(1000*si)
		build := pooledInvFO3(s.Cfg.Vdd, cfgSz.Sz)
		g, gRep, err := pooledDelayMC(s.Cfg, fmt.Sprintf("fig5-golden-%d", si), n, seed, s.Golden, s.Cfg.Vdd, build, s.instr)
		res.Health.Merge(gRep)
		if err != nil {
			return res, fmt.Errorf("fig5 golden %s: %w", cfgSz.Label, err)
		}
		v, vRep, err := pooledDelayMC(s.Cfg, fmt.Sprintf("fig5-vs-%d", si), n, seed+500009, s.VS, s.Cfg.Vdd, build, s.instr)
		res.Health.Merge(vRep)
		if err != nil {
			return res, fmt.Errorf("fig5 vs %s: %w", cfgSz.Label, err)
		}
		res.Sizes = append(res.Sizes, Fig5Size{
			Label: cfgSz.Label, Sz: cfgSz.Sz,
			Golden: newDelayDist(g), VS: newDelayDist(v),
		})
	}
	return res, nil
}

// String renders the Fig. 5 comparison.
func (r Fig5Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 5: INV FO3 delay distributions, Vdd=0.9 V, N=%d per model\n", r.N)
	fmt.Fprintf(&b, "%-14s %14s %12s %14s %12s %12s\n",
		"size", "golden mean", "golden sd", "VS mean", "VS sd", "mean diff %")
	for _, sz := range r.Sizes {
		fmt.Fprintf(&b, "%-14s %11.2f ps %9.2f ps %11.2f ps %9.2f ps %12.2f\n",
			sz.Label, sz.Golden.Mean*1e12, sz.Golden.SD*1e12,
			sz.VS.Mean*1e12, sz.VS.SD*1e12,
			100*(sz.VS.Mean-sz.Golden.Mean)/sz.Golden.Mean)
	}
	b.WriteString(healthLine(r.Health))
	return b.String()
}

// Fig6Point is one Monte Carlo sample of the leakage–frequency scatter.
type Fig6Point struct {
	Leakage, Freq float64
}

// Fig6Result is paper Fig. 6: total leakage vs frequency (1/delay) scatter
// for the INV FO3 bench, plus the spread statistics the paper quotes
// (leakage spread ~37×, frequency spread ~45–50 % of mean).
type Fig6Result struct {
	N                                    int
	Golden, VS                           []Fig6Point
	GoldenLeakSpread, VSLeakSpread       float64 // max/min leakage
	GoldenFreqSpreadPct, VSFreqSpreadPct float64 // (max−min)/mean, %
	Health                               Health
}

// Fig6 runs the leakage-frequency Monte Carlo.
func (s *Suite) Fig6() (Fig6Result, error) {
	n := s.Cfg.samples(5000)
	sz := circuits.Sizing{WP: 600e-9, WN: 300e-9, L: 40e-9}
	res := Fig6Result{N: n}

	run := func(m core.StatModel, name string, seed int64) ([]Fig6Point, error) {
		out, rep, err := runPooledMC[obsState[*circuits.PooledGate], Fig6Point](s.Cfg, name, n, seed,
			newObsState(s.instr, func() (*circuits.PooledGate, error) {
				return circuits.NewPooledInverterFO(3, s.Cfg.Vdd, sz, m.Nominal(), s.Cfg.FastMC)
			}),
			func(st obsState[*circuits.PooledGate], idx int, rng *rand.Rand) (Fig6Point, error) {
				b, so := st.B, st.So
				sc := so.Scope()
				b.Ckt.SetObsSample(idx)
				sc.Enter(obs.PhaseRestamp)
				b.Restat(so.Factory(m.Statistical(rng)))
				// The previous sample's leakage measurement left the input
				// source at DC 0; reinstall the bench pulse.
				b.Ckt.SetVSource(b.VinSrc, circuits.DefaultPulse(s.Cfg.Vdd))
				sc.Exit()
				tr, err := b.Transient(gateTranStop, gateTranStep)
				if err != nil {
					so.End(b.Ckt.Stats())
					return Fig6Point{}, err
				}
				sc.Enter(obs.PhaseMeasure)
				d, err := measure.PairDelay(tr, b.In, b.Out, s.Cfg.Vdd)
				sc.Exit()
				if err != nil {
					so.End(b.Ckt.Stats())
					return Fig6Point{}, err
				}
				// Static leakage with the input low.
				b.Ckt.SetVSource(b.VinSrc, spice.DC(0))
				op, err := b.Ckt.OP()
				if err != nil {
					so.End(b.Ckt.Stats())
					return Fig6Point{}, err
				}
				sc.Enter(obs.PhaseMeasure)
				leak := measure.Leakage(op, b.VddSrc)
				sc.Exit()
				so.End(b.Ckt.Stats())
				return Fig6Point{Leakage: leak, Freq: 1 / d}, nil
			})
		res.Health.Merge(rep)
		if err != nil {
			return nil, err
		}
		return montecarlo.Compact(out, rep), nil
	}
	var err error
	res.Golden, err = run(s.Golden, "fig6-golden", s.Cfg.Seed+61)
	if err != nil {
		return res, fmt.Errorf("fig6 golden: %w", err)
	}
	res.VS, err = run(s.VS, "fig6-vs", s.Cfg.Seed+62)
	if err != nil {
		return res, fmt.Errorf("fig6 vs: %w", err)
	}
	spread := func(pts []Fig6Point) (leakX, freqPct float64) {
		minL, maxL := pts[0].Leakage, pts[0].Leakage
		minF, maxF := pts[0].Freq, pts[0].Freq
		var sumF float64
		for _, p := range pts {
			if p.Leakage < minL {
				minL = p.Leakage
			}
			if p.Leakage > maxL {
				maxL = p.Leakage
			}
			if p.Freq < minF {
				minF = p.Freq
			}
			if p.Freq > maxF {
				maxF = p.Freq
			}
			sumF += p.Freq
		}
		return maxL / minL, 100 * (maxF - minF) / (sumF / float64(len(pts)))
	}
	res.GoldenLeakSpread, res.GoldenFreqSpreadPct = spread(res.Golden)
	res.VSLeakSpread, res.VSFreqSpreadPct = spread(res.VS)
	return res, nil
}

// String renders the Fig. 6 spread summary.
func (r Fig6Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 6: leakage vs frequency, INV FO3, N=%d per model\n", r.N)
	fmt.Fprintf(&b, "  golden: leakage spread %.1fx, frequency spread %.1f %% of mean\n",
		r.GoldenLeakSpread, r.GoldenFreqSpreadPct)
	fmt.Fprintf(&b, "  VS    : leakage spread %.1fx, frequency spread %.1f %% of mean\n",
		r.VSLeakSpread, r.VSFreqSpreadPct)
	fmt.Fprintf(&b, "  (paper: 37x leakage spread; 45%% / 50%% frequency spread)\n")
	b.WriteString(healthLine(r.Health))
	return b.String()
}

// Fig7Vdd is one supply-voltage column of paper Fig. 7.
type Fig7Vdd struct {
	Vdd        float64
	Golden, VS DelayDist
	// QQ nonlinearity metrics (0 ≈ Gaussian; grows with curvature).
	GoldenQQNL, VSQQNL float64
	// QQ series of the VS population for plotting.
	VSQQ []stats.QQPoint
	// Normality test statistics.
	GoldenAD, VSAD float64
}

// Fig7Result is paper Fig. 7: NAND2 FO3 delay PDFs and QQ plots at
// Vdd ∈ {0.9, 0.7, 0.55} V, showing the non-Gaussian onset at low voltage.
type Fig7Result struct {
	N      int
	Vdds   []Fig7Vdd
	Health Health
}

// Fig7Supplies are the paper's supply points.
var Fig7Supplies = []float64{0.9, 0.7, 0.55}

// fig7Sizing is the NAND2 sizing of Fig. 7.
var fig7Sizing = circuits.Sizing{WP: 600e-9, WN: 300e-9, L: 40e-9}

// Fig7 runs the NAND2 Monte Carlo across supplies.
func (s *Suite) Fig7() (Fig7Result, error) {
	res := Fig7Result{N: s.Cfg.fig7MC(0, "vs").n}
	for vi, vdd := range Fig7Supplies {
		g, gRep, err := s.runFig7Slice(s.Cfg, vi, "golden")
		res.Health.Merge(gRep)
		if err != nil {
			return res, fmt.Errorf("fig7 golden %g V: %w", vdd, err)
		}
		v, vRep, err := s.runFig7Slice(s.Cfg, vi, "vs")
		res.Health.Merge(vRep)
		if err != nil {
			return res, fmt.Errorf("fig7 vs %g V: %w", vdd, err)
		}
		col := Fig7Vdd{
			Vdd:        vdd,
			Golden:     newDelayDist(g),
			VS:         newDelayDist(v),
			GoldenQQNL: stats.QQNonlinearity(g),
			VSQQNL:     stats.QQNonlinearity(v),
			VSQQ:       stats.QQNormal(v),
			GoldenAD:   stats.AndersonDarling(g),
			VSAD:       stats.AndersonDarling(v),
		}
		res.Vdds = append(res.Vdds, col)
	}
	return res, nil
}

// runFig7Slice runs one model's NAND2 FO3 delay Monte Carlo at Fig. 7's
// supply slice vi under cfg.
func (s *Suite) runFig7Slice(cfg Config, vi int, model string) ([]float64, Health, error) {
	r, vdd := cfg.fig7MC(vi, model), Fig7Supplies[vi]
	return pooledDelayMC(cfg, r.name, r.n, r.seed, s.model(model), vdd, pooledNand2FO3(vdd, fig7Sizing), s.instr)
}

// model returns the suite's statistical model by run-name label.
func (s *Suite) model(name string) core.StatModel {
	if name == "vs" {
		return s.VS
	}
	return s.Golden
}

// String renders the Fig. 7 columns.
func (r Fig7Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 7: NAND2 FO3 delay distributions vs Vdd, N=%d per model\n", r.N)
	fmt.Fprintf(&b, "%8s %12s %10s %12s %10s %11s %11s %9s %9s\n",
		"Vdd (V)", "golden mean", "golden sd", "VS mean", "VS sd",
		"golden qqNL", "VS qqNL", "gold AD", "VS AD")
	for _, c := range r.Vdds {
		fmt.Fprintf(&b, "%8.2f %9.2f ps %7.2f ps %9.2f ps %7.2f ps %11.4f %11.4f %9.2f %9.2f\n",
			c.Vdd, c.Golden.Mean*1e12, c.Golden.SD*1e12,
			c.VS.Mean*1e12, c.VS.SD*1e12, c.GoldenQQNL, c.VSQQNL, c.GoldenAD, c.VSAD)
	}
	fmt.Fprintf(&b, "  (qqNL and AD grow at low Vdd: the delay turns non-Gaussian, as the paper's QQ plots show)\n")
	b.WriteString(healthLine(r.Health))
	return b.String()
}
