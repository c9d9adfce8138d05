package experiments

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"vstat/internal/circuits"
	"vstat/internal/core"
	"vstat/internal/measure"
	"vstat/internal/montecarlo"
)

const poolTestVdd = 0.9

func poolTestSizing() circuits.Sizing {
	return circuits.Sizing{WP: 600e-9, WN: 300e-9, L: 40e-9}
}

// TestPooledInvDelayBitIdentical is the pooling determinism contract: the
// pooled engine must reproduce the unpooled rebuild-per-sample delays bit
// for bit, for any worker count.
func TestPooledInvDelayBitIdentical(t *testing.T) {
	m := core.DefaultStatVS()
	const n = 8
	const seed = int64(1234)
	want, err := montecarlo.Map(n, seed, 1, func(idx int, rng *rand.Rand) (float64, error) {
		return invDelaySample(m, rng, poolTestVdd, poolTestSizing())
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		got, _, err := pooledDelayMC(Config{Workers: workers}, "inv-test", n, seed, m, poolTestVdd,
			pooledInvFO3(poolTestVdd, poolTestSizing()), nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: pooled sample %d = %.17g, unpooled %.17g",
					workers, i, got[i], want[i])
			}
		}
	}
}

func TestPooledNandDelayBitIdentical(t *testing.T) {
	m := core.DefaultStatVS()
	const n = 4
	const seed = int64(77)
	want, err := montecarlo.Map(n, seed, 1, func(idx int, rng *rand.Rand) (float64, error) {
		return nandDelaySample(m, rng, poolTestVdd, poolTestSizing())
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		got, _, err := pooledDelayMC(Config{Workers: workers}, "nand-test", n, seed, m, poolTestVdd,
			pooledNand2FO3(poolTestVdd, poolTestSizing()), nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: pooled sample %d = %.17g, unpooled %.17g",
					workers, i, got[i], want[i])
			}
		}
	}
}

// TestPooledSNMBitIdentical covers the bespoke SRAM re-stamp: the pooled
// cell draws its six devices in NewSRAMCell order but installs them through
// an explicit index map into two shared half-circuits.
func TestPooledSNMBitIdentical(t *testing.T) {
	m := core.DefaultStatVS()
	const n = 4
	const seed = int64(99)
	want, err := montecarlo.Map(n, seed, 1, func(idx int, rng *rand.Rand) ([2]float64, error) {
		r, h, err := snmSample(m, rng, poolTestVdd)
		return [2]float64{r, h}, err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		cfg := Config{Workers: workers, Vdd: poolTestVdd}
		read, hold, _, err := pooledSNMMC(cfg, "snm-test", n, seed, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got := [2]float64{read[i], hold[i]}; got != want[i] {
				t.Fatalf("workers=%d: pooled SNM sample %d = %v, unpooled %v",
					workers, i, got, want[i])
			}
		}
	}
}

// TestPooledSetupTimeBitIdentical: the pooled register (re-stamped cards,
// reused waveform storage, the prefix carried across samples and reset per
// search) reproduces the rebuild-per-sample setup times bit for bit.
func TestPooledSetupTimeBitIdentical(t *testing.T) {
	checkPooledDFFBitIdentical(t, measure.SetupTime)
}

// TestPooledHoldTimeBitIdentical is the same contract for the hold search.
func TestPooledHoldTimeBitIdentical(t *testing.T) {
	checkPooledDFFBitIdentical(t, measure.HoldTime)
}

func checkPooledDFFBitIdentical(t *testing.T, search registerSearch) {
	t.Helper()
	m := core.DefaultStatVS()
	const n = 8
	const seed = int64(55)
	opts := measure.DefaultSetupOpts()
	want, err := montecarlo.Map(n, seed, 1, func(idx int, rng *rand.Rand) (float64, error) {
		ff := circuits.NewDFF(poolTestVdd, circuits.DefaultDFFSizing(), m.Statistical(rng))
		return search(ff, opts)
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := pooledDFFMC(m, n, seed, 2, false, search)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pooled DFF sample %d = %.17g, unpooled %.17g", i, got[i], want[i])
		}
	}
}

// pooledDFFMC runs a register search over n pooled samples.
func pooledDFFMC(m core.StatModel, n int, seed int64, workers int, fast bool, search registerSearch) ([]float64, error) {
	cfg := Config{Workers: workers, Vdd: poolTestVdd, FastMC: fast}
	out, _, err := pooledRegisterMC(cfg, "dff-test", n, seed, m, search, nil)
	return out, err
}

// TestPooledFastSetupAccuracy bounds the fast path on the register: a
// resumed fast trial refactors where a from-zero one would carry factors,
// so trials agree with exact mode only to the fast tolerance — which may
// flip a marginal bisection probe, but then the boundary lies at that
// probe, so the setup time stays within two bisection resolutions. Fast
// mode carries nothing across samples, so it is worker-invariant.
func TestPooledFastSetupAccuracy(t *testing.T) {
	m := core.DefaultStatVS()
	const n = 16
	const seed = int64(2718)
	tol := measure.DefaultSetupOpts().Tol
	exact, err := pooledDFFMC(m, n, seed, 1, false, measure.SetupTime)
	if err != nil {
		t.Fatal(err)
	}
	fast1, err := pooledDFFMC(m, n, seed, 1, true, measure.SetupTime)
	if err != nil {
		t.Fatal(err)
	}
	fast2, err := pooledDFFMC(m, n, seed, 2, true, measure.SetupTime)
	if err != nil {
		t.Fatal(err)
	}
	for i := range exact {
		if d := math.Abs(fast1[i] - exact[i]); d > 2*tol {
			t.Fatalf("fast setup time %d deviates by %g s (exact %g s, fast %g s), bound %g s",
				i, d, exact[i], fast1[i], 2*tol)
		}
		if fast2[i] != fast1[i] {
			t.Fatalf("fast setup sample %d varies with worker count: %.17g vs %.17g", i, fast2[i], fast1[i])
		}
	}
}

// TestPooledFastDelayAccuracy bounds the fast solver path against exact:
// the relaxed tolerances and carried factors may move a delay only at the
// solver tolerance floor, far below the mismatch-induced spread.
func TestPooledFastDelayAccuracy(t *testing.T) {
	m := core.DefaultStatVS()
	const n = 4
	const seed = int64(4321)
	exact, _, err := pooledDelayMC(Config{Workers: 1}, "fast-exact", n, seed, m, poolTestVdd,
		pooledInvFO3(poolTestVdd, poolTestSizing()), nil)
	if err != nil {
		t.Fatal(err)
	}
	fast, _, err := pooledDelayMC(Config{Workers: 1, FastMC: true}, "fast-1", n, seed, m, poolTestVdd,
		pooledInvFO3(poolTestVdd, poolTestSizing()), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range exact {
		if rel := math.Abs(fast[i]-exact[i]) / math.Abs(exact[i]); rel > 1e-4 {
			t.Fatalf("fast delay %d deviates by %.3g relative (exact %g s, fast %g s)",
				i, rel, exact[i], fast[i])
		}
	}
	// Fast mode carries no state across samples (Restat invalidates the
	// factorization), so it must also be worker-invariant.
	fast4, _, err := pooledDelayMC(Config{Workers: 4, FastMC: true}, "fast-4", n, seed, m, poolTestVdd,
		pooledInvFO3(poolTestVdd, poolTestSizing()), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fast {
		if fast4[i] != fast[i] {
			t.Fatalf("fast sample %d varies with worker count: %.17g vs %.17g",
				i, fast4[i], fast[i])
		}
	}
}

// maxPooledDFFAllocs is what one pooled register sample allocated before
// the setup search shared its pre-edge transient (74 objects: the fresh
// cards and the trials' source waveforms). Recording and resuming that
// prefix must not add to it.
const maxPooledDFFAllocs = 74

// TestPooledAllocRegression pins the headline allocation win: a pooled
// per-sample transient must allocate at least 10x less than the
// rebuild-per-sample baseline.
func TestPooledAllocRegression(t *testing.T) {
	m := core.DefaultStatVS()
	sz := poolTestSizing()

	idx := 0
	rebuild := testing.AllocsPerRun(3, func() {
		rng := montecarlo.SampleRNG(5, idx)
		idx++
		if _, err := invDelaySample(m, rng, poolTestVdd, sz); err != nil {
			t.Fatal(err)
		}
	})

	bench, err := circuits.NewPooledInverterFO(3, poolTestVdd, sz, m.Nominal(), false)
	if err != nil {
		t.Fatal(err)
	}
	idx = 0
	pooled := testing.AllocsPerRun(3, func() {
		rng := montecarlo.SampleRNG(5, idx)
		idx++
		bench.Restat(m.Statistical(rng))
		res, err := bench.Transient(gateTranStop, gateTranStep)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := measure.PairDelay(res, bench.In, bench.Out, poolTestVdd); err != nil {
			t.Fatal(err)
		}
	})

	if pooled*10 > rebuild {
		t.Fatalf("pooled sample allocates %.1f objects vs rebuild %.1f (< 10x win)", pooled, rebuild)
	}
	// And the transient alone — the solver hot path — must be allocation-free.
	transientOnly := testing.AllocsPerRun(3, func() {
		if _, err := bench.Transient(gateTranStop, gateTranStep); err != nil {
			t.Fatal(err)
		}
	})
	if transientOnly != 0 {
		t.Fatalf("pooled transient allocates %.1f objects per run, want 0", transientOnly)
	}

	// A pooled register sample: the re-stamp plus one full setup search.
	// After warm-up the shared prefix and the waveform rows are reused, so
	// what remains is the sample's fresh device cards and the trials' source
	// waveforms.
	ff := circuits.NewPooledDFF(poolTestVdd, circuits.DefaultDFFSizing(), m.Nominal(), false)
	o := measure.DefaultSetupOpts()
	o.Res = &ff.Res
	idx = 0
	dffSample := func() {
		rng := montecarlo.SampleRNG(5, idx)
		idx++
		ff.Restat(m.Statistical(rng))
		if _, err := measure.SetupTime(ff.DFF, o); err != nil {
			t.Fatal(err)
		}
	}
	dffSample()
	if dff := testing.AllocsPerRun(3, dffSample); dff > maxPooledDFFAllocs {
		t.Fatalf("pooled DFF sample allocates %.1f objects, want at most %d", dff, maxPooledDFFAllocs)
	}
}
