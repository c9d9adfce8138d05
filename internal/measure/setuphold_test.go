package measure

import (
	"math"
	"math/rand"
	"testing"

	"vstat/internal/circuits"
	"vstat/internal/core"
	"vstat/internal/spice"
)

// TestSetupHoldTrialsMatchFromZero pins the searches' exact-mode contract:
// every setup and hold trial run through the register's shared prefix, with
// offsets taken in and out of bisection order, reproduces the transient from
// t = 0 bit for bit on VS and golden cards — and the prefix saves steps.
func TestSetupHoldTrialsMatchFromZero(t *testing.T) {
	offsets := []float64{150e-12, -37.5e-12, 56.25e-12, 9e-12, 103e-12, 31e-12, -150e-12, 80e-12, 31e-12}
	models := []struct {
		name string
		m    core.StatModel
	}{{"vs", core.DefaultStatVS()}, {"golden", core.DefaultStatGolden()}}
	kinds := []struct {
		name    string
		sources func(*circuits.DFF, SetupOpts, float64) float64
	}{{"setup", setupSources}, {"hold", holdSources}}
	for _, md := range models {
		for _, kd := range kinds {
			t.Run(md.name+"/"+kd.name, func(t *testing.T) {
				ff := circuits.NewDFF(0.9, circuits.DefaultDFFSizing(), md.m.Statistical(rand.New(rand.NewSource(7))))
				o := DefaultSetupOpts()
				stop := o.ClkEdge + o.Settle
				fromZero := spice.TranOpts{Stop: stop, Step: o.Step, UIC: true, IC: ff.ICHoldingZero()}
				ff.Prefix.Reset()
				var shared, full int64
				for _, off := range offsets {
					edge := kd.sources(ff, o, off)
					before := ff.Ckt.Stats().TranSteps
					got, err := o.runTrial(ff, stop, edge)
					if err != nil {
						t.Fatal(err)
					}
					mid := ff.Ckt.Stats().TranSteps
					want, err := ff.Ckt.Transient(fromZero)
					if err != nil {
						t.Fatal(err)
					}
					shared += mid - before
					full += ff.Ckt.Stats().TranSteps - mid
					assertSameWaveforms(t, ff.Ckt, got, want, off)
				}
				if shared >= full {
					t.Fatalf("prefix trials computed %d steps, from-zero trials %d: nothing shared", shared, full)
				}
			})
		}
	}
}

// assertSameWaveforms requires every node waveform and source current of
// got to be bitwise equal to want.
func assertSameWaveforms(t *testing.T, c *spice.Circuit, got, want *spice.TranResult, off float64) {
	t.Helper()
	same := func(what string, g, w []float64) {
		t.Helper()
		if len(g) != len(w) {
			t.Fatalf("offset %g %s: %d points, from-zero %d", off, what, len(g), len(w))
		}
		for k := range w {
			if math.Float64bits(g[k]) != math.Float64bits(w[k]) {
				t.Fatalf("offset %g %s[%d] = %.17g, from-zero %.17g", off, what, k, g[k], w[k])
			}
		}
	}
	same("time", got.Time, want.Time)
	for n := 0; n < c.NumNodes(); n++ {
		same("V("+c.NodeName(n)+")", got.V(n), want.V(n))
	}
	for _, src := range []string{"VDD", "VD", "VCLK"} {
		i := c.VSourceIndex(src)
		same("I("+src+")", got.SourceI(i), want.SourceI(i))
	}
}

// TestSearchesResetThePrefix: back-to-back setup and hold searches on one
// register, with no re-stamp between them, must each start a fresh
// recording — the other search's D waveform differs before its data edge —
// and so match the same search on a fresh register.
func TestSearchesResetThePrefix(t *testing.T) {
	o := DefaultSetupOpts()
	ff := circuits.NewDFF(0.9, circuits.DefaultDFFSizing(), nominalVS)
	fresh := func(search func(*circuits.DFF, SetupOpts) (float64, error)) float64 {
		v, err := search(circuits.NewDFF(0.9, circuits.DefaultDFFSizing(), nominalVS), o)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	for i, step := range []struct {
		name   string
		search func(*circuits.DFF, SetupOpts) (float64, error)
	}{{"setup", SetupTime}, {"hold", HoldTime}, {"setup", SetupTime}} {
		got, err := step.search(ff, o)
		if err != nil {
			t.Fatal(err)
		}
		if want := fresh(step.search); got != want {
			t.Fatalf("search %d (%s) on a reused register = %.17g, fresh register %.17g", i, step.name, got, want)
		}
	}
}
