package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vstat/internal/circuits"
	"vstat/internal/device"
	"vstat/internal/experiments"
	"vstat/internal/montecarlo"
	"vstat/internal/obs"
	"vstat/internal/obs/trace"
)

// The benchmark's own tests: the metric table matches BENCHMARK.json, the
// traced run takes the untraced run's program path, the traced self times
// account for the sample wall, and the checks reject wrong outputs.

func TestBenchmarkJSONMatchesMetricTable(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	for _, tc := range []struct {
		kind string
		spec []specMetric
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(tc.spec) != len(tc.defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the table %d", tc.kind, len(tc.spec), len(tc.defs))
			continue
		}
		for i, d := range tc.defs {
			s := tc.spec[i]
			if s.Name != d.name || s.Unit != d.unit || s.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s/%s, table %s/%s/%s", tc.kind, i, s.Name, s.Unit, s.Better, d.name, d.unit, d.better)
			}
		}
	}
}

// opaqueFactory wraps devices so they hide the model's analytic derivative
// path — the mistake the timing device factory must not make.
func opaqueFactory(f circuits.Factory, c *evalClock) circuits.Factory {
	return func(k device.Kind, w, l float64) device.Device {
		return &timedDevice{d: f(k, w, l), clock: c}
	}
}

func TestTimedDeviceForwardsNativeDerivs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := paperModel().SampleDevice(rng, device.NMOS, 600e-9, 40e-9)
	var clock evalClock
	td := timeDevice(d, &clock)
	nd, ok := td.(device.NativeDerivs)
	if !ok {
		t.Fatal("timed device hides the model's NativeDerivs")
	}
	if got, want := nd.EvalDerivs4(0.9, 0.9, 0, 0), d.(device.NativeDerivs).EvalDerivs4(0.9, 0.9, 0, 0); got != want {
		t.Errorf("timed derivatives %+v, model %+v", got, want)
	}
	if got, want := td.Eval(0.9, 0.4, 0, 0), d.Eval(0.9, 0.4, 0, 0); got != want {
		t.Errorf("timed eval %+v, model %+v", got, want)
	}
	if clock.evals() != 2 || clock.derN.Load() != 1 || clock.valN.Load() != 1 || clock.ns() <= 0 {
		t.Errorf("clock counted %d evals (%d derivative, %d value) in %d ns", clock.evals(), clock.derN.Load(), clock.valN.Load(), clock.ns())
	}
}

// tracedUnitsPass runs one untraced and one traced round of every mc_units
// unit, the traced one decorating factories with wrap.
func tracedUnitsPass(t *testing.T, wrap func(circuits.Factory, *evalClock) circuits.Factory) ([]*unit, []unitTotals, []unitTotals, []*unitTrace) {
	t.Helper()
	m, units, err := setUpUnits(11)
	if err != nil {
		t.Fatal(err)
	}
	p, err := mcPass(m, units, 1, time.Time{}, nil, false, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	traces := make([]*unitTrace, len(units))
	for i := range traces {
		traces[i] = newUnitTrace()
		traces[i].wrap = wrap
	}
	tp, err := mcPass(m, units, 1, time.Time{}, traces, false, trace.New("test", 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	return units, p.totals, tp.totals, traces
}

// selfTimeBound is how far the traced self times (device eval, stamp, LU,
// other solve, restat, measure) may fall short of the traced sample wall.
const selfTimeBound = 0.05

func TestTracedUnitsTakeTheUntracedPath(t *testing.T) {
	units, plain, traced, traces := tracedUnitsPass(t, timedFactory)
	if err := samePath(units, plain, traced, traces); err != nil {
		t.Fatal(err)
	}
	for i, u := range units {
		if traced[i].stats.NewtonIters == 0 || traced[i].stats.ModelEvals == 0 {
			t.Errorf("%s: no solver work counted: %+v", u.name, traced[i].stats)
		}
		if u.name != "sram" && traced[i].stats.TranSteps == 0 {
			t.Errorf("%s: no transient steps counted", u.name)
		}
		sp := selfTimes(traces[i])
		var wallNs float64
		for _, w := range traced[i].walls {
			wallNs += w * 1e6
		}
		if frac := sp.sum() / wallNs; frac < 1-selfTimeBound || frac > 1+1e-9 {
			t.Errorf("%s: self times sum to %.4f of the sample wall, want within %.0f%%", u.name, frac, 100*selfTimeBound)
		}
		for name, v := range map[string]float64{"device": sp.device, "stamp": sp.stamp, "lu": sp.lu,
			"other solve": sp.otherSolve, "restat": sp.restat, "measure": sp.measure} {
			if v <= 0 {
				t.Errorf("%s: %s self time %.0f ns, want positive", u.name, name, v)
			}
		}
	}
}

func TestSamePathCatchesAFiniteDifferenceFallback(t *testing.T) {
	units, plain, traced, traces := tracedUnitsPass(t, opaqueFactory)
	if err := samePath(units, plain, traced, traces); err == nil {
		t.Fatal("a decorator hiding NativeDerivs went unnoticed")
	}
}

func TestTracedCampaignTakesTheUntracedPath(t *testing.T) {
	const n = 8 * campaignShardSize
	w := newCampaignWorker()
	e, err := startEndpoints(w.executor())
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	dir := t.TempDir()
	local, err := localSummary(w, 5, n)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := runCampaignOnce(e, 5, n, filepath.Join(dir, "a.journal"), nil)
	if err != nil {
		t.Fatal(err)
	}
	ct := &campaignTrace{log: newDispatchLog(), rec: trace.New("test", 0)}
	w.traced.Store(true)
	e.client.Transport = e.counter
	traced, err := runCampaignOnce(e, 5, n, filepath.Join(dir, "b.journal"), ct)
	e.client.Transport = e.plain
	w.traced.Store(false)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []campaignRun{plain, traced} {
		if r.checkErr != nil {
			t.Fatal(r.checkErr)
		}
		if !sameSummary(r.sums, local) {
			t.Fatal("streamed summary differs from the unsharded run's")
		}
	}
	if err := sameCampaignPath([]campaignRun{plain}, []campaignRun{traced}); err != nil {
		t.Fatal(err)
	}
	if traced.stats.Committed != 8 || traced.stats.JournalCommits != 8 {
		t.Errorf("committed %d, journalled %d, want 8 each", traced.stats.Committed, traced.stats.JournalCommits)
	}
	if len(ct.log.durs) != 8 || len(ct.folds) != 8 || len(ct.commitWaits) != 8 {
		t.Errorf("traced %d dispatches, %d folds, %d commit waits, want 8 each", len(ct.log.durs), len(ct.folds), len(ct.commitWaits))
	}
	if e.counter.sent.Load() == 0 || e.counter.got.Load() == 0 || w.clock.evals() == 0 {
		t.Error("the traced campaign counted no wire bytes or device evaluations")
	}
}

func TestTracedReproStepsMatchUntraced(t *testing.T) {
	steps := map[string]bool{"table2": true, "table3": true, "fig9": true}
	run := func(cfg experiments.Config) reproPass {
		s, err := experiments.NewSuite(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p := reproPass{times: map[string]time.Duration{}, keys: map[string]float64{}}
		for _, st := range reproSteps {
			if steps[st.id] {
				if err := st.run(s, &p); err != nil {
					t.Fatal(err)
				}
			}
		}
		return p
	}
	plain := run(reproConfig(3))
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	cfg := reproConfig(3)
	cfg.Metrics, cfg.TraceRec = obs.NewRegistry(), trace.New("test", 0)
	traced := run(cfg)
	if err := sameReproPath(plain, traced); err != nil {
		t.Fatal(err)
	}
	if plain.health.Attempted == 0 {
		t.Error("no circuit Monte Carlo samples counted")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, m, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || m != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, m, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, m, q3 := quartiles([]float64{2, 1}); q1 != 0.75 || m != 1.5 || q3 != 2.25 {
		t.Errorf("two-point quartiles = %v %v %v", q1, m, q3)
	}
}

func TestJudge(t *testing.T) {
	lower := specMetric{Name: "wall_s", Better: "lower", Bound: 0.1}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		m          specMetric
		base, head []float64
		won, pairs int
		want       string
	}{
		{lower, steady, steady, 3, 6, "unchanged"},
		{lower, steady, scale(steady, 1.2), 0, 6, "REGRESSION"},
		{lower, steady, scale(steady, 0.8), 6, 6, "better"},
		{lower, steady, scale(steady, 0.8), 5, 6, "unchanged"}, // lost a pair
		{lower, steady, scale(steady, 0.8), 0, 0, "unchanged"}, // no seed pairs
		{lower, []float64{1, 2, 1, 2, 1, 2}, []float64{1, 2, 2, 1, 1, 2}, 2, 6, "unresolved"},
		{specMetric{Name: "samples_per_s", Better: "higher", Bound: 0.1}, steady, scale(steady, 0.8), 0, 6, "REGRESSION"},
		{specMetric{Name: "x.samples", Better: "higher"}, steady, steady, 0, 6, "same"},
	} {
		if got := judge(tc.m, tc.base, tc.head, tc.won, tc.pairs); got != tc.want {
			t.Errorf("%s %v: judge = %q, want %q", tc.m.Name, tc.head, got, tc.want)
		}
	}
}

func TestCompareRefusesMixedMachines(t *testing.T) {
	dir := t.TempDir()
	write := func(name, cpu string) string {
		fp, _ := json.Marshal(fingerprint{Fingerprint: true, Workload: "mc_units", CPU: cpu, NProc: 2, GOMAXPROCS: 2})
		res, _ := json.Marshal(resultLine{Correct: true, Attempted: 1, Metrics: map[string]metricOut{"wall_s": {1, "s"}}})
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(string(fp)+"\n"+string(res)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	var sb strings.Builder
	ok, err := runCompare(&sb, filepath.Join("..", "BENCHMARK.json"), write("a", "cpu A"), write("b", "cpu B"))
	if err != nil || ok || !strings.Contains(sb.String(), "different machines") {
		t.Errorf("compare of mixed machines: ok=%v err=%v output %q", ok, err, sb.String())
	}
}

func TestChecksRejectWrongOutputs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	normal := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = 1 + 0.1*rng.NormFloat64()
		}
		return xs
	}
	pool := normal(1000)
	ref := summarize(pool)
	ref.Pool = pool
	xs := normal(200)
	if err := checkStat("ok", xs, ref); err != nil {
		t.Errorf("a sample of the reference population failed: %v", err)
	}
	shifted := make([]float64, len(xs))
	for i, x := range xs {
		shifted[i] = x + 0.1
	}
	if checkStat("shifted", shifted, ref) == nil {
		t.Error("a mean shifted by one sigma passed")
	}
	wide := make([]float64, len(xs))
	for i, x := range xs {
		wide[i] = 1 + 2*(x-1)
	}
	if checkStat("wide", wide, ref) == nil {
		t.Error("a doubled spread passed")
	}

	p := reproPass{keys: map[string]float64{}}
	for k, v := range paperAlphas {
		p.keys[k] = v
	}
	for i := 0; i < 3; i++ {
		for _, m := range []string{"golden", "vs"} {
			p.keys[experimentsKey(i, m, "mean")] = float64(10 + i)
			p.keys[experimentsKey(i, m, "sd")] = float64(1 + i)
		}
	}
	if err := reproShape(p); err != nil {
		t.Fatalf("paper-shaped results failed: %v", err)
	}
	p.keys["table2.n.a1"] = 1.0
	if reproShape(p) == nil {
		t.Error("an alpha1 far from the paper passed")
	}

	var a, b [3]montecarlo.StreamSummary
	for k := range a {
		a[k].Add(1)
		b[k].Add(1)
	}
	b[2].Add(2)
	if sameSummary(a, b) {
		t.Error("different summaries compared equal")
	}
}

func experimentsKey(i int, model, stat string) string {
	return "fig7." + string(rune('0'+i)) + "." + model + "." + stat
}

func TestPairWinsPairsBySeed(t *testing.T) {
	run := func(seed int64, v float64) runRecord {
		return runRecord{fp: fingerprint{Seed: seed},
			res: resultLine{Correct: true, Metrics: map[string]metricOut{"wall_s": {Value: v, Unit: "s"}}}}
	}
	base := []runRecord{run(1, 1.0), run(2, 1.0), run(3, 1.0)}
	head := []runRecord{run(1, 0.9), run(2, 1.0), run(4, 0.5)} // seed 4 has no base run
	won, pairs := pairWins(specMetric{Name: "wall_s", Better: "lower"}, base, head)
	if won != 1 || pairs != 2 {
		t.Errorf("pairWins = %d of %d, want 1 of 2 (a tie wins nothing)", won, pairs)
	}
}
