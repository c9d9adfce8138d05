package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"vstat/internal/circuits"
	"vstat/internal/core"
	"vstat/internal/measure"
	"vstat/internal/stats"
)

// Fig8Result is paper Fig. 8(c): the setup-time distribution of the
// NMOS-pass master–slave register, 250 Monte Carlo runs per model.
type Fig8Result struct {
	N          int
	Golden, VS DelayDist
	// TrialsPerSample is the bisection cost (the ~20× characterization
	// overhead the paper highlights for register timing).
	TrialsPerSample int
	Health          Health
}

// Fig8 runs the setup-time Monte Carlo.
func (s *Suite) Fig8() (Fig8Result, error) {
	opts := measure.DefaultSetupOpts()
	res := Fig8Result{N: s.Cfg.fig8MC("vs").n}
	// Bisection trials: bracket(2) + log2(range/tol).
	res.TrialsPerSample = 2
	for r := opts.MaxOffset * 1.25; r > opts.Tol; r /= 2 {
		res.TrialsPerSample++
	}
	run := func(model string) ([]float64, error) {
		out, rep, err := s.runFig8(s.Cfg, model)
		res.Health.Merge(rep)
		return out, err
	}
	g, err := run("golden")
	if err != nil {
		return res, fmt.Errorf("fig8 golden: %w", err)
	}
	v, err := run("vs")
	if err != nil {
		return res, fmt.Errorf("fig8 vs: %w", err)
	}
	res.Golden = newDelayDist(g)
	res.VS = newDelayDist(v)
	return res, nil
}

// runFig8 runs one model's Fig. 8 setup-time Monte Carlo under cfg.
func (s *Suite) runFig8(cfg Config, model string) ([]float64, Health, error) {
	r := cfg.fig8MC(model)
	return pooledRegisterMC(cfg, r.name, r.n, r.seed, s.model(model), measure.SetupTime, s.instr)
}

// String renders the setup-time summary.
func (r Fig8Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 8: DFF setup time (NMOS-pass master-slave), N=%d per model\n", r.N)
	fmt.Fprintf(&b, "  golden: mean %.2f ps  sd %.2f ps\n", r.Golden.Mean*1e12, r.Golden.SD*1e12)
	fmt.Fprintf(&b, "  VS    : mean %.2f ps  sd %.2f ps\n", r.VS.Mean*1e12, r.VS.SD*1e12)
	fmt.Fprintf(&b, "  bisection cost: ~%d transients per sample (the paper's ~20x register overhead)\n",
		r.TrialsPerSample)
	b.WriteString(healthLine(r.Health))
	return b.String()
}

// Fig9Result is paper Fig. 9: SRAM butterfly curves (nominal), READ/HOLD
// SNM distributions from both models, and the HOLD-SNM QQ series showing a
// slightly non-Gaussian distribution.
type Fig9Result struct {
	N int
	// Nominal VS butterfly curves for plotting (a: read, d: hold).
	ReadLeft, ReadRight circuits.ButterflyCurve
	HoldLeft, HoldRight circuits.ButterflyCurve

	GoldenRead, VSRead DelayDist // SNM in volts (DelayDist reused as dist container)
	GoldenHold, VSHold DelayDist
	VSHoldQQ           []stats.QQPoint
	VSHoldQQNL         float64
	GoldenHoldQQNL     float64
	Health             Health
}

// butterflyPoints is the DC sweep resolution of the SNM extraction.
const butterflyPoints = 61

// snmSample builds one mismatched cell and extracts both SNMs (the unpooled
// reference path, kept for determinism tests).
func snmSample(m core.StatModel, rng *rand.Rand, vdd float64) (read, hold float64, err error) {
	cell := circuits.NewSRAMCell(vdd, circuits.DefaultSRAMSizing(), m.Statistical(rng))
	rl, rr, err := cell.Butterfly(true, butterflyPoints)
	if err != nil {
		return 0, 0, err
	}
	rres, err := measure.SNM(rl, rr)
	if err != nil {
		return 0, 0, err
	}
	hl, hr, err := cell.Butterfly(false, butterflyPoints)
	if err != nil {
		return 0, 0, err
	}
	hres, err := measure.SNM(hl, hr)
	if err != nil {
		return 0, 0, err
	}
	return rres.SNM, hres.SNM, nil
}

// Fig9 runs the SRAM SNM Monte Carlo.
func (s *Suite) Fig9() (Fig9Result, error) {
	res := Fig9Result{N: s.Cfg.fig9MC("vs").n}

	// Nominal butterfly curves (panels a and d).
	nomCell := circuits.NewSRAMCell(s.Cfg.Vdd, circuits.DefaultSRAMSizing(), s.VS.Nominal())
	var err error
	res.ReadLeft, res.ReadRight, err = nomCell.Butterfly(true, butterflyPoints)
	if err != nil {
		return res, err
	}
	res.HoldLeft, res.HoldRight, err = nomCell.Butterfly(false, butterflyPoints)
	if err != nil {
		return res, err
	}

	run := func(model string) (read, hold []float64, err error) {
		read, hold, rep, err := s.runFig9(s.Cfg, model)
		res.Health.Merge(rep)
		return read, hold, err
	}
	gr, gh, err := run("golden")
	if err != nil {
		return res, fmt.Errorf("fig9 golden: %w", err)
	}
	vr, vh, err := run("vs")
	if err != nil {
		return res, fmt.Errorf("fig9 vs: %w", err)
	}
	res.GoldenRead = newDelayDist(gr)
	res.VSRead = newDelayDist(vr)
	res.GoldenHold = newDelayDist(gh)
	res.VSHold = newDelayDist(vh)
	res.VSHoldQQ = stats.QQNormal(vh)
	res.VSHoldQQNL = stats.QQNonlinearity(vh)
	res.GoldenHoldQQNL = stats.QQNonlinearity(gh)
	return res, nil
}

// runFig9 runs one model's Fig. 9 READ and HOLD SNM Monte Carlo under cfg.
func (s *Suite) runFig9(cfg Config, model string) (read, hold []float64, rep Health, err error) {
	r := cfg.fig9MC(model)
	return pooledSNMMC(cfg, r.name, r.n, r.seed, s.model(model), s.instr)
}

// String renders the SNM summary.
func (r Fig9Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 9: 6T SRAM static noise margins, N=%d per model\n", r.N)
	fmt.Fprintf(&b, "%-12s %14s %12s %14s %12s\n", "mode", "golden mean", "golden sd", "VS mean", "VS sd")
	fmt.Fprintf(&b, "%-12s %11.1f mV %9.1f mV %11.1f mV %9.1f mV\n",
		"READ", r.GoldenRead.Mean*1e3, r.GoldenRead.SD*1e3, r.VSRead.Mean*1e3, r.VSRead.SD*1e3)
	fmt.Fprintf(&b, "%-12s %11.1f mV %9.1f mV %11.1f mV %9.1f mV\n",
		"HOLD", r.GoldenHold.Mean*1e3, r.GoldenHold.SD*1e3, r.VSHold.Mean*1e3, r.VSHold.SD*1e3)
	fmt.Fprintf(&b, "  HOLD SNM QQ nonlinearity: golden %.4f, VS %.4f (slightly non-Gaussian, Fig. 9f)\n",
		r.GoldenHoldQQNL, r.VSHoldQQNL)
	b.WriteString(healthLine(r.Health))
	return b.String()
}

// Eq1Result demonstrates the within-die / inter-die decomposition of paper
// Eq. (1) on the measured Idsat statistics.
type Eq1Result struct {
	TotalSigma, WithinSigma, InterSigma float64
}

// Eq1Demo composes a synthetic total variation from the measured within-die
// σ(Idsat) of the medium NMOS device plus an assumed inter-die component,
// then recovers the inter-die part via Eq. (1).
func (s *Suite) Eq1Demo() (Eq1Result, error) {
	within := s.MeasuredN[2].SigmaIdsat // W=600 nm row
	inter := 1.5 * within               // global component dominates here
	total := mathHypot(within, inter)
	got, err := interDie(total, within)
	if err != nil {
		return Eq1Result{}, err
	}
	return Eq1Result{TotalSigma: total, WithinSigma: within, InterSigma: got}, nil
}

// String renders the decomposition.
func (r Eq1Result) String() string {
	return fmt.Sprintf(
		"Eq. (1): sigma_total=%.3g A, sigma_within=%.3g A -> sigma_inter=%.3g A\n",
		r.TotalSigma, r.WithinSigma, r.InterSigma)
}
