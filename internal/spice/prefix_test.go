package spice

import (
	"math"
	"testing"

	"vstat/internal/vsmodel"
)

// prefixEdge drives source src low until tEdge, then ramps it to 0.9 V over
// 10 ps: every such waveform equals "low forever" on [0, tEdge].
func prefixEdge(c *Circuit, src int, tEdge float64) {
	c.SetVSource(src, PWL{T: []float64{0, tEdge, tEdge + 10e-12}, V: []float64{0, 0, 0.9}})
}

// prefixRun runs one transient through the prefix with the shared window
// ending at tEdge and returns how many steps it computed.
func prefixRun(t *testing.T, c *Circuit, opts TranOpts, p *TranPrefix, tEdge float64, res *TranResult) int64 {
	t.Helper()
	opts.Prefix, opts.SharedUntil = p, tEdge
	before := c.Stats().TranSteps
	if err := c.TransientInto(opts, res); err != nil {
		t.Fatal(err)
	}
	return c.Stats().TranSteps - before
}

// tranSteps is the number of timesteps TransientInto takes for opts.
func tranSteps(opts TranOpts) int64 {
	return int64(math.Ceil(opts.Stop/opts.Step + 1e-9))
}

// assertFromZero runs the same transient without a prefix and requires
// every row of got to be bitwise equal to it.
func assertFromZero(t *testing.T, c *Circuit, opts TranOpts, got *TranResult) {
	t.Helper()
	want, err := c.Transient(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Time) != len(want.Time) {
		t.Fatalf("prefix run has %d rows, from-zero run %d", len(got.Time), len(want.Time))
	}
	for k := range want.Time {
		if math.Float64bits(got.Time[k]) != math.Float64bits(want.Time[k]) {
			t.Fatalf("row %d: time %.17g, from-zero %.17g", k, got.Time[k], want.Time[k])
		}
		for i, v := range want.xs[k] {
			if math.Float64bits(got.xs[k][i]) != math.Float64bits(v) {
				t.Fatalf("row %d (t=%g) unknown %s: %.17g, from-zero %.17g",
					k, want.Time[k], c.unknownName(i), got.xs[k][i], v)
			}
		}
	}
}

// TestTransientPrefixResumeBitIdentical pins the exact-mode contract: a run
// resumed from a prefix recorded by runs with other data edges, taken in any
// order, reproduces every row of a transient from t = 0 bit for bit, and
// computes only the steps after its resume point.
func TestTransientPrefixResumeBitIdentical(t *testing.T) {
	edges := []float64{150e-12, 40e-12, 300e-12, 90e-12, 221e-12, 1e-12, 260e-12, 150e-12, 500e-12}
	for _, tc := range []struct {
		name string
		opts TranOpts
	}{
		{"be-op", TranOpts{Stop: 400e-12, Step: 2e-12}},
		{"trap-uic", TranOpts{Stop: 400e-12, Step: 2e-12, Trap: true, UIC: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := testInvChain(3)
			vin := c.VSourceIndex("VIN")
			steps := int(tranSteps(tc.opts))
			var p TranPrefix
			var res TranResult
			recorded, computed := 0, int64(0)
			for _, e := range edges {
				prefixEdge(c, vin, e)
				got := prefixRun(t, c, tc.opts, &p, e, &res)
				assertFromZero(t, c, tc.opts, &res)
				shared := sharedStep(TranOpts{Step: tc.opts.Step, SharedUntil: e}, steps)
				start := 0
				if shared >= 1 {
					start = min(shared, recorded)
					recorded = max(recorded, shared)
				}
				if want := int64(steps - start); got != want {
					t.Fatalf("edge %g: computed %d steps, want %d (resume at %d)", e, got, want, start)
				}
				computed += got
			}
			if p.rows-1 != steps {
				t.Fatalf("prefix holds %d steps, want %d", p.rows-1, steps)
			}
			if computed >= int64(len(edges)*steps) {
				t.Fatalf("no trial resumed: %d steps for %d trials", computed, len(edges))
			}
		})
	}
}

// TestTransientPrefixInvalidation: a run whose devices, initial state,
// timestep, integrator or pivot order differ from the recording must
// re-record from t = 0 rather than resume — and the run after it resumes
// from the new recording.
func TestTransientPrefixInvalidation(t *testing.T) {
	base := TranOpts{Stop: 200e-12, Step: 2e-12}
	const edge = 120e-12
	for _, tc := range []struct {
		name   string
		opts   TranOpts
		change func(c *Circuit, o *TranOpts)
	}{
		{"set-mos-device", base, func(c *Circuit, o *TranOpts) {
			nm := vsmodel.NMOS40(330e-9)
			c.SetMOSDevice(0, &nm)
		}},
		{"initial-condition", TranOpts{Stop: base.Stop, Step: base.Step, UIC: true},
			func(c *Circuit, o *TranOpts) { o.IC = map[int]float64{c.Node("o0"): 0.3} }},
		{"step", base, func(c *Circuit, o *TranOpts) { o.Step = 1e-12; o.Stop = 100e-12 }},
		{"trap", base, func(c *Circuit, o *TranOpts) { o.Trap = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := testInvChain(3)
			prefixEdge(c, c.VSourceIndex("VIN"), edge)
			var p TranPrefix
			var res TranResult
			opts := tc.opts
			prefixRun(t, c, opts, &p, edge, &res)
			tc.change(c, &opts)
			steps := tranSteps(opts)
			if got := prefixRun(t, c, opts, &p, edge, &res); got != steps {
				t.Fatalf("run after the change computed %d steps, want all %d", got, steps)
			}
			assertFromZero(t, c, opts, &res)
			if got := prefixRun(t, c, opts, &p, edge, &res); got >= steps {
				t.Fatalf("run after re-recording computed %d steps, want a resume", got)
			}
			assertFromZero(t, c, opts, &res)
		})
	}

	// A re-pivot is the one invalidation no API call announces: mutate a
	// card in place (no SetMOSDevice) so the frozen pivot order degenerates
	// (the TestSparseGrowthTriggersRepivot fixture), re-pivot in an OP,
	// restore the card, and the next run must still re-record, because its
	// from-zero replay would factor under the new pivot order.
	t.Run("repivot", func(t *testing.T) {
		c, n1, n2 := growthNetlist()
		c.LinearCore = CoreSparse
		c.AddC("C1", n1, Gnd, 1e-12)
		c.AddC("C2", n2, Gnd, 1e-12)
		prefixEdge(c, c.VSourceIndex("VS"), edge)
		var p TranPrefix
		var res TranResult
		steps := tranSteps(base)
		prefixRun(t, c, base, &p, edge, &res)
		gb := c.MOSDevice(1).(*linCond)
		gb.G = -2 + 1e-12
		before := c.Stats().SparseRepivots
		if _, err := c.OP(); err != nil {
			t.Fatal(err)
		}
		if c.Stats().SparseRepivots == before {
			t.Fatal("degenerate card did not re-pivot")
		}
		gb.G = 1
		if got := prefixRun(t, c, base, &p, edge, &res); got != steps {
			t.Fatalf("run after a re-pivot computed %d steps, want all %d", got, steps)
		}
		assertFromZero(t, c, base, &res)
		if got := prefixRun(t, c, base, &p, edge, &res); got >= steps {
			t.Fatalf("run after re-recording computed %d steps, want a resume", got)
		}
	})
}

// TestTransientPrefixBelowFirstStep: a shared window that ends before the
// first step leaves nothing to share, so the run is a plain run and does
// not touch the recording.
func TestTransientPrefixBelowFirstStep(t *testing.T) {
	c, _ := testInvChain(3)
	vin := c.VSourceIndex("VIN")
	opts := TranOpts{Stop: 200e-12, Step: 2e-12}
	var p TranPrefix
	var res TranResult
	prefixEdge(c, vin, 150e-12)
	prefixRun(t, c, opts, &p, 150e-12, &res)
	recorded := p.rows - 1
	for _, e := range []float64{0, 0.4e-12, 1.5e-12, -5e-12} {
		prefixEdge(c, vin, e)
		if got := prefixRun(t, c, opts, &p, e, &res); got != tranSteps(opts) {
			t.Fatalf("SharedUntil=%g computed %d steps, want a plain run of %d", e, got, tranSteps(opts))
		}
		assertFromZero(t, c, opts, &res)
		if p.rows-1 != recorded {
			t.Fatalf("SharedUntil=%g changed the recording: %d steps, want %d", e, p.rows-1, recorded)
		}
	}
}
