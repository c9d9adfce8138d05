package experiments

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"vstat/internal/circuits"
	"vstat/internal/core"
	"vstat/internal/device"
	"vstat/internal/measure"
	"vstat/internal/montecarlo"
	"vstat/internal/spice"
)

// faultFactory wraps every device drawn from a statistical factory in a
// FaultCard with the given program, making a whole sample non-convergent.
func faultFactory(stat circuits.Factory, mode device.FaultMode) circuits.Factory {
	return func(k device.Kind, w, l float64) device.Device {
		return &device.FaultCard{Inner: stat(k, w, l), Mode: mode}
	}
}

// TestFaultInjectedMCIsolation is the robustness acceptance test: a single
// deterministically non-convergent sample injected into a 1000-sample Monte
// Carlo must not abort the run under SkipAndRecord, must be counted in the
// RunReport, and must leave every other sample bit-identical to a clean run
// with the same (seed, workers) — for any worker count.
func TestFaultInjectedMCIsolation(t *testing.T) {
	m := core.DefaultStatVS()
	const n = 1000
	const seed = int64(2013)
	const faultIdx = 137
	sz := poolTestSizing()

	newBench := func(int) (*circuits.PooledGate, error) {
		return circuits.NewPooledInverterFO(3, poolTestVdd, sz, m.Nominal(), false)
	}
	// Cheap per-sample measurement (a DC operating point, not a transient)
	// so the 1000-sample population stays fast.
	opSample := func(b *circuits.PooledGate, idx int, rng *rand.Rand) (float64, error) {
		b.Restat(m.Statistical(rng))
		op, err := b.Ckt.OP()
		if err != nil {
			return 0, err
		}
		return op.V(b.Out), nil
	}
	faultSample := func(b *circuits.PooledGate, idx int, rng *rand.Rand) (float64, error) {
		if idx != faultIdx {
			return opSample(b, idx, rng)
		}
		// Bound the rescue-ladder cost of the doomed sample; restored before
		// returning so later samples see an untouched template.
		saved := b.Ckt.MaxNewton
		b.Ckt.MaxNewton = 20
		defer func() { b.Ckt.MaxNewton = saved }()
		b.Restat(faultFactory(m.Statistical(rng), device.FaultNoConverge))
		op, err := b.Ckt.OP()
		if err != nil {
			return 0, err
		}
		return op.V(b.Out), nil
	}

	clean, cleanRep, err := montecarlo.MapPooledReportCtx(context.Background(), n, seed, 1, montecarlo.RunOpts{}, newBench, opSample)
	if err != nil {
		t.Fatal(err)
	}
	if !cleanRep.Clean() {
		t.Fatalf("clean run not clean: %s", cleanRep.String())
	}

	for _, workers := range []int{1, 4} {
		got, rep, err := montecarlo.MapPooledReportCtx(context.Background(), n, seed, workers,
			montecarlo.RunOpts{Policy: montecarlo.SkipUpTo(0.01)}, newBench, faultSample)
		if err != nil {
			t.Fatalf("workers=%d: injected fault aborted the run: %v", workers, err)
		}
		if rep.Attempted != n || rep.Failed != 1 || rep.Succeeded != n-1 {
			t.Fatalf("workers=%d: report %s", workers, rep.String())
		}
		if len(rep.Failures) != 1 || rep.Failures[0].Idx != faultIdx {
			t.Fatalf("workers=%d: failures %v", workers, rep.Failures)
		}
		var cerr *spice.ConvergenceError
		if !errors.As(rep.Failures[0].Err, &cerr) {
			t.Fatalf("workers=%d: failure is %T, want a typed *spice.ConvergenceError chain",
				workers, rep.Failures[0].Err)
		}
		for i := range clean {
			if i == faultIdx {
				continue
			}
			if got[i] != clean[i] {
				t.Fatalf("workers=%d: sample %d = %.17g, clean run %.17g — fault not isolated",
					workers, i, got[i], clean[i])
			}
		}
	}
}

// TestFailFastAbortsOnInjectedFault pins the default policy on the same
// population: without SkipAndRecord the injected sample aborts the run with
// its typed error.
func TestFailFastAbortsOnInjectedFault(t *testing.T) {
	m := core.DefaultStatVS()
	const n = 60
	const faultIdx = 11
	sz := poolTestSizing()
	_, rep, err := montecarlo.MapPooledReportCtx(context.Background(), n, 5, 2, montecarlo.RunOpts{},
		func(int) (*circuits.PooledGate, error) {
			return circuits.NewPooledInverterFO(3, poolTestVdd, sz, m.Nominal(), false)
		},
		func(b *circuits.PooledGate, idx int, rng *rand.Rand) (float64, error) {
			stat := m.Statistical(rng)
			if idx == faultIdx {
				saved := b.Ckt.MaxNewton
				b.Ckt.MaxNewton = 20
				defer func() { b.Ckt.MaxNewton = saved }()
				stat = faultFactory(stat, device.FaultNoConverge)
			}
			b.Restat(stat)
			op, err := b.Ckt.OP()
			if err != nil {
				return 0, err
			}
			return op.V(b.Out), nil
		})
	if err == nil {
		t.Fatal("FailFast did not abort on the injected fault")
	}
	if !errors.Is(err, spice.ErrNoConvergence) {
		t.Fatalf("err %v does not wrap the solver failure", err)
	}
	if len(rep.Failures) == 0 || rep.Failures[0].Idx != faultIdx {
		t.Fatalf("failures %v", rep.Failures)
	}
}

// TestFailedSampleLeavesTemplateRestampable is the template-hygiene
// contract: a sample whose transient dies mid-run (poisoning the candidate
// charge history) must leave the per-worker pooled template re-stampable,
// so the NEXT samples on the same template are bit-identical to a clean
// run. workers=1 forces every sample through the one template sequentially.
func TestFailedSampleLeavesTemplateRestampable(t *testing.T) {
	m := core.DefaultStatVS()
	const n = 4
	const seed = int64(31)
	const faultIdx = 1
	sz := poolTestSizing()

	newBench := func(int) (*circuits.PooledGate, error) {
		return circuits.NewPooledInverterFO(3, poolTestVdd, sz, m.Nominal(), false)
	}
	delaySample := func(b *circuits.PooledGate, idx int, rng *rand.Rand) (float64, error) {
		b.Restat(m.Statistical(rng))
		res, err := b.Transient(gateTranStop, gateTranStep)
		if err != nil {
			return 0, err
		}
		return measure.PairDelay(res, b.In, b.Out, poolTestVdd)
	}
	clean, _, err := montecarlo.MapPooledReportCtx(context.Background(), n, seed, 1, montecarlo.RunOpts{}, newBench, delaySample)
	if err != nil {
		t.Fatal(err)
	}

	faultSample := func(b *circuits.PooledGate, idx int, rng *rand.Rand) (float64, error) {
		if idx != faultIdx {
			return delaySample(b, idx, rng)
		}
		// NaN from deep inside the transient: the initial OP and early steps
		// succeed, then the model turns NaN forever — the rescue ladder must
		// reject the poisoned history, exhaust, and fail the sample.
		stat := m.Statistical(rng)
		b.Restat(func(k device.Kind, w, l float64) device.Device {
			return &device.FaultCard{Inner: stat(k, w, l), Mode: device.FaultNaN, After: 2000}
		})
		res, err := b.Transient(gateTranStop, gateTranStep)
		if err != nil {
			return 0, err
		}
		return measure.PairDelay(res, b.In, b.Out, poolTestVdd)
	}
	got, rep, err := montecarlo.MapPooledReportCtx(context.Background(), n, seed, 1,
		montecarlo.RunOpts{Policy: montecarlo.Policy{OnFailure: montecarlo.SkipAndRecord}}, newBench, faultSample)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 1 || rep.Failures[0].Idx != faultIdx {
		t.Fatalf("report %s", rep.String())
	}
	if !errors.Is(rep.Failures[0].Err, spice.ErrNonFiniteSolution) {
		t.Fatalf("injected NaN surfaced as %v, want ErrNonFiniteSolution chain", rep.Failures[0].Err)
	}
	for i := range clean {
		if i == faultIdx {
			continue
		}
		if got[i] != clean[i] {
			t.Fatalf("sample %d after the failed sample = %.17g, clean %.17g — template corrupted",
				i, got[i], clean[i])
		}
	}
}

// TestConfigPolicyThreadsIntoFigures wires a SkipAndRecord policy through
// the experiment Config and checks a figure still runs and reports clean
// health on a healthy model.
func TestConfigPolicyThreadsIntoFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("suite extraction in -short")
	}
	// Shallow-copy the shared suite so the policy change stays local.
	s := *testSuite(t)
	s.Cfg.Policy = montecarlo.SkipUpTo(0.05)
	res, err := s.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Health.Clean() {
		t.Fatalf("healthy run reports dirty health: %s", res.Health.String())
	}
	if healthLine(res.Health) != "" {
		t.Fatal("clean health must render as an empty line")
	}
}
