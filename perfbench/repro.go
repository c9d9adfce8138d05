package main

import (
	"fmt"
	"math"
	"time"

	"vstat/internal/experiments"
	"vstat/internal/montecarlo"
	"vstat/internal/obs"
	"vstat/internal/obs/trace"
)

// repro settings: the paper set at a fixed small scale (every Monte Carlo
// population at the reproduction's floor of 50 samples) on 2 workers,
// default config otherwise.
const (
	reproScale   = 0.01
	reproWorkers = 2
	reproN       = 50 // samples per Monte Carlo population at reproScale
)

func reproConfig(seed int64) experiments.Config {
	return experiments.Config{Seed: seed, Workers: reproWorkers, Scale: reproScale, Vdd: 0.9}
}

// reproPass is one run of every paper experiment.
type reproPass struct {
	wall    time.Duration
	times   map[string]time.Duration // per experiment
	keys    map[string]float64       // the results' numbers
	health  montecarlo.RunReport     // merged circuit-MC run reports
	t4      experiments.Table4Result
	samples int       // circuit Monte Carlo samples attempted
	rss     []float64 // resident set after each experiment, MB
}

// reproStep is one experiment of the vsrepro "all" set, in its order. run
// stores the result's numbers in p.
type reproStep struct {
	id  string
	run func(s *experiments.Suite, p *reproPass) error
}

var reproSteps = []reproStep{
	{"table1", func(s *experiments.Suite, p *reproPass) error { s.Table1(); return nil }},
	{"fig1", func(s *experiments.Suite, p *reproPass) error {
		r := s.Fig1()
		p.keys["fig1.rms_id_err"] = r.Report.RMSRelId
		return nil
	}},
	{"table2", func(s *experiments.Suite, p *reproPass) error {
		r := s.Table2()
		for _, pol := range []struct {
			name string
			a    [5]float64
		}{{"n", alphaArray(r.NMOS.PaperUnits())}, {"p", alphaArray(r.PMOS.PaperUnits())}} {
			for i, v := range pol.a {
				p.keys[fmt.Sprintf("table2.%s.a%d", pol.name, i+1)] = v
			}
		}
		return nil
	}},
	{"fig2", func(s *experiments.Suite, p *reproPass) error {
		r, err := s.Fig2()
		for i, row := range r.Rows {
			p.keys[fmt.Sprintf("fig2.%d.dvt0_pct", i)] = row.DiffVT0
		}
		return err
	}},
	{"fig3", func(s *experiments.Suite, p *reproPass) error {
		r, err := s.Fig3()
		for i, row := range r.Rows {
			p.keys[fmt.Sprintf("fig3.%d.total_pct", i)] = row.TotalPct
		}
		return err
	}},
	{"table3", func(s *experiments.Suite, p *reproPass) error {
		r, err := s.Table3()
		for i, c := range r.Cells {
			k := fmt.Sprintf("table3.%d.", i)
			p.keys[k+"golden_sidsat"] = c.GoldenIdsat
			p.keys[k+"vs_sidsat"] = c.VSIdsat
			p.keys[k+"golden_slogoff"] = c.GoldenLogOff
			p.keys[k+"vs_slogoff"] = c.VSLogOff
		}
		return err
	}},
	{"fig4", func(s *experiments.Suite, p *reproPass) error {
		r, err := s.Fig4()
		p.keys["fig4.corr_golden"] = r.CorrGolden
		p.keys["fig4.corr_vs"] = r.CorrVS
		return err
	}},
	{"fig5", func(s *experiments.Suite, p *reproPass) error {
		r, err := s.Fig5()
		for i, sz := range r.Sizes {
			distKeys(p.keys, fmt.Sprintf("fig5.%d.golden", i), sz.Golden)
			distKeys(p.keys, fmt.Sprintf("fig5.%d.vs", i), sz.VS)
		}
		p.health.Merge(r.Health)
		return err
	}},
	{"fig6", func(s *experiments.Suite, p *reproPass) error {
		r, err := s.Fig6()
		p.keys["fig6.golden_leak_spread"] = r.GoldenLeakSpread
		p.keys["fig6.vs_leak_spread"] = r.VSLeakSpread
		p.keys["fig6.golden_freq_spread_pct"] = r.GoldenFreqSpreadPct
		p.keys["fig6.vs_freq_spread_pct"] = r.VSFreqSpreadPct
		p.health.Merge(r.Health)
		return err
	}},
	{"fig7", func(s *experiments.Suite, p *reproPass) error {
		r, err := s.Fig7()
		for i, v := range r.Vdds {
			k := fmt.Sprintf("fig7.%d.", i)
			distKeys(p.keys, k+"golden", v.Golden)
			distKeys(p.keys, k+"vs", v.VS)
			p.keys[k+"golden_ad"] = v.GoldenAD
			p.keys[k+"vs_ad"] = v.VSAD
		}
		p.health.Merge(r.Health)
		return err
	}},
	{"fig8", func(s *experiments.Suite, p *reproPass) error {
		r, err := s.Fig8()
		distKeys(p.keys, "fig8.golden", r.Golden)
		distKeys(p.keys, "fig8.vs", r.VS)
		p.health.Merge(r.Health)
		return err
	}},
	{"fig9", func(s *experiments.Suite, p *reproPass) error {
		r, err := s.Fig9()
		distKeys(p.keys, "fig9.golden_read", r.GoldenRead)
		distKeys(p.keys, "fig9.vs_read", r.VSRead)
		distKeys(p.keys, "fig9.golden_hold", r.GoldenHold)
		distKeys(p.keys, "fig9.vs_hold", r.VSHold)
		p.health.Merge(r.Health)
		return err
	}},
	{"table4", func(s *experiments.Suite, p *reproPass) error {
		r, err := s.Table4()
		p.t4 = r
		for _, row := range r.Rows {
			p.samples += 2 * row.Samples // VS and golden
		}
		return err
	}},
	{"eq1", func(s *experiments.Suite, p *reproPass) error {
		r, err := s.Eq1Demo()
		p.keys["eq1.inter_sigma"] = r.InterSigma
		return err
	}},
}

func alphaArray(a1, a2, a3, a4, a5 float64) [5]float64 { return [5]float64{a1, a2, a3, a4, a5} }

func distKeys(keys map[string]float64, prefix string, d experiments.DelayDist) {
	keys[prefix+".mean"] = d.Mean
	keys[prefix+".sd"] = d.SD
}

// runReproPass runs every experiment once on s, with one span per
// experiment when rec is set.
func runReproPass(s *experiments.Suite, rec *trace.Recorder, parent uint64) (reproPass, error) {
	p := reproPass{times: map[string]time.Duration{}, keys: map[string]float64{}}
	t0 := time.Now()
	for _, st := range reproSteps {
		span := rec.Start(st.id, trace.CatExperiment, parent)
		if rec != nil {
			// Monte Carlo runs started now parent to this experiment.
			s.Cfg.TraceParent = span.ID()
		}
		ts := time.Now()
		err := st.run(s, &p)
		p.times[st.id] = time.Since(ts)
		span.End()
		p.rss = append(p.rss, rssMB())
		if err != nil {
			return p, fmt.Errorf("%s: %w", st.id, err)
		}
	}
	p.wall = time.Since(t0)
	p.samples += p.health.Attempted
	return p, nil
}

// table4Speedup is Σ golden time / Σ VS time over the Table IV rows.
func table4Speedup(r experiments.Table4Result) float64 {
	var vs, golden time.Duration
	for _, row := range r.Rows {
		vs += row.VSTime
		golden += row.GoldenTime
	}
	return golden.Seconds() / vs.Seconds()
}

func runRepro(o options) (*outcome, error) {
	out := &outcome{}
	var s *experiments.Suite
	var setups []float64
	for i := 0; i < setUpRepeats; i++ {
		c0 := cpuSeconds()
		var err error
		s, err = experiments.NewSuite(reproConfig(o.seed))
		if err != nil {
			return nil, err
		}
		setups = append(setups, cpuSeconds()-c0)
	}
	out.set("setup_s", median(setups))

	if !o.trace {
		// Whole passes until the budget would be overrun (at least one).
		var walls, rss []float64
		var first reproPass
		var samples int
		deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
		for len(walls) == 0 || time.Now().Add(time.Duration(median(walls)*float64(time.Second))).Before(deadline) {
			p, err := runReproPass(s, nil, 0)
			if err != nil {
				return nil, err
			}
			if len(walls) == 0 {
				first = p
			} else if err := sameKeys(first.keys, p.keys); err != nil {
				return nil, fmt.Errorf("repeated pass differs: %w", err)
			}
			walls = append(walls, p.wall.Seconds())
			rss = append(rss, p.rss...)
			samples += p.samples
			out.attempted += p.samples
			out.failed += p.health.Failed
		}
		out.set("wall_s", median(walls))
		var total float64
		for _, w := range walls {
			total += w
		}
		out.set("samples_per_s", float64(samples)/total)
		out.set("rss_mb", median(rss))
		out.checkErr = checkRepro(o.root, o.seed, first)
		return out, nil
	}

	// Traced run: one untraced pass, then one pass with the program's obs
	// registry and trace recorder attached and a span per experiment.
	plain, err := runReproPass(s, nil, 0)
	if err != nil {
		return nil, err
	}
	obs.SetEnabled(true)
	reg := obs.NewRegistry()
	rec := trace.New("perfbench", 0)
	root := rec.Start("repro", trace.CatRun, 0)
	cfg := reproConfig(o.seed)
	cfg.Metrics, cfg.TraceRec, cfg.TraceParent = reg, rec, root.ID()
	ts, err := experiments.NewSuite(cfg)
	if err != nil {
		return nil, err
	}
	traced, err := runReproPass(ts, rec, root.ID())
	obs.SetEnabled(false)
	if err != nil {
		return nil, err
	}
	root.End()
	if err := rec.WriteFile(o.traceFile()); err != nil {
		return nil, err
	}
	out.attempted = plain.samples + traced.samples
	out.failed = plain.health.Failed + traced.health.Failed
	for _, e := range reproExperiments {
		out.set("experiments."+e+"_s", traced.times[e].Seconds())
	}
	for i, c := range table4Cells {
		row := traced.t4.Rows[i]
		out.set("table4."+c+".vs_s", row.VSTime.Seconds())
		out.set("table4."+c+".golden_s", row.GoldenTime.Seconds())
	}
	out.set("table4_speedup", table4Speedup(traced.t4))
	snap := reg.Snapshot()
	var evals int64
	for _, k := range []string{"direct", "tape", "tape_fast"} {
		evals += snap.FindCounter("model_evals_total_" + k)
	}
	out.set("repro.model_evals", float64(evals))
	out.set("repro.newton_iters", float64(snap.Find("mc_newton_iters").Sum))
	out.set("obs.trace_overhead_frac", traced.wall.Seconds()/plain.wall.Seconds()-1)
	out.checkErr = checkRepro(o.root, o.seed, plain)
	if out.checkErr == nil {
		out.checkErr = sameReproPath(plain, traced)
	}
	return out, nil
}

// sameReproPath checks that the traced pass reproduced the untraced one:
// every reported number and every run-health count identical.
func sameReproPath(plain, traced reproPass) error {
	if err := sameKeys(plain.keys, traced.keys); err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	a, b := plain.health, traced.health
	if a.Attempted != b.Attempted || a.Succeeded != b.Succeeded || a.Failed != b.Failed || !sameCounts(a.Rescued, b.Rescued) {
		return fmt.Errorf("traced pass health %s differs from untraced %s", b.String(), a.String())
	}
	return nil
}

func sameKeys(a, b map[string]float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d result numbers, want %d", len(b), len(a))
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || !(v == w || math.IsNaN(v) && math.IsNaN(w)) {
			return fmt.Errorf("%s = %v, want %v", k, w, v)
		}
	}
	return nil
}

func sameCounts(a, b map[string]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}
