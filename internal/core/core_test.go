package core

import (
	"math"
	"math/rand"
	"testing"

	"vstat/internal/bpv"
	"vstat/internal/device"
	"vstat/internal/montecarlo"
	"vstat/internal/stats"
	"vstat/internal/variation"
	"vstat/internal/vsmodel"
)

func TestNominalFactoryIsDeterministic(t *testing.T) {
	m := DefaultStatVS()
	f := m.Nominal()
	d1 := f(device.NMOS, 600e-9, 40e-9)
	d2 := f(device.NMOS, 600e-9, 40e-9)
	if d1.Eval(0.9, 0.9, 0, 0).Id != d2.Eval(0.9, 0.9, 0, 0).Id {
		t.Fatal("nominal instances differ")
	}
	if d1.Width() != 600e-9 || d1.Length() != 40e-9 {
		t.Fatal("geometry not applied")
	}
	// Bare VS cards are what the lockstep engine binds natively.
	if _, ok := d1.(*vsmodel.Params); !ok {
		t.Fatalf("nominal instance is %T, want *vsmodel.Params", d1)
	}
}

func TestStatisticalFactoryVariesPerDevice(t *testing.T) {
	m := DefaultStatVS()
	m.AlphaN = variation.GoldenTruthNMOS()
	m.AlphaP = variation.GoldenTruthPMOS()
	rng := rand.New(rand.NewSource(3))
	f := m.Statistical(rng)
	d1 := f(device.NMOS, 600e-9, 40e-9)
	d2 := f(device.NMOS, 600e-9, 40e-9)
	if d1.Eval(0.9, 0.9, 0, 0).Id == d2.Eval(0.9, 0.9, 0, 0).Id {
		t.Fatal("two instances from the same factory must be independently mismatched")
	}
	if _, ok := d1.(*vsmodel.Params); !ok {
		t.Fatalf("statistical instance is %T, want *vsmodel.Params", d1)
	}
}

func TestStatVSSampleStatisticsMatchAlphas(t *testing.T) {
	m := DefaultStatVS()
	m.AlphaN = variation.FromPaperUnits(2.3, 3.71, 3.71, 944, 0.29)
	tg := bpv.Targets{Vdd: 0.9}
	w, l := 600e-9, 40e-9

	samples, err := montecarlo.Map(1200, 5, 0, func(idx int, rng *rand.Rand) ([]float64, error) {
		d := m.SampleDevice(rng, device.NMOS, w, l)
		return tg.EvalVec(d), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	gotS := stats.StdDev(montecarlo.Column(samples, 0))
	// Compare to linear propagation prediction.
	ex := &bpv.Extraction{Card: m.NMOS, Kind: device.NMOS, Vdd: 0.9, Alpha5: m.AlphaN.A5}
	wantS, _, _ := ex.PredictSigmas(m.AlphaN, w, l)
	if math.Abs(gotS-wantS)/wantS > 0.12 {
		t.Fatalf("MC σIdsat %g vs propagated %g", gotS, wantS)
	}
	// Mean unchanged from nominal within sampling error.
	nom := m.Nominal()(device.NMOS, w, l)
	idNom, _, _ := tg.Eval(nom)
	if mu := stats.Mean(montecarlo.Column(samples, 0)); math.Abs(mu-idNom)/idNom > 0.02 {
		t.Fatalf("MC mean %g vs nominal %g", mu, idNom)
	}
}

func TestStatGoldenProducesVariation(t *testing.T) {
	g := DefaultStatGolden()
	tg := bpv.Targets{Vdd: 0.9}
	samples, err := montecarlo.Map(800, 9, 0, func(idx int, rng *rand.Rand) ([]float64, error) {
		d := g.SampleDevice(rng, device.NMOS, 600e-9, 40e-9)
		return tg.EvalVec(d), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ids := montecarlo.Column(samples, 0)
	rel := stats.StdDev(ids) / stats.Mean(ids)
	// Paper Table III medium NMOS: σ/µ ≈ 20.2/460 ≈ 4.4%; expect the same
	// order for the golden stand-in.
	if rel < 0.02 || rel > 0.09 {
		t.Fatalf("golden σ/µ(Idsat) = %g out of band", rel)
	}
	// log10Ioff spread: paper reports σ ≈ 0.17 at this size.
	sLog := stats.StdDev(montecarlo.Column(samples, 1))
	if sLog < 0.05 || sLog > 0.5 {
		t.Fatalf("golden σ(log10Ioff) = %g out of band", sLog)
	}
}

func TestPolaritySelection(t *testing.T) {
	m := DefaultStatVS()
	m.AlphaN = variation.GoldenTruthNMOS()
	m.AlphaP = variation.GoldenTruthPMOS()
	if m.Alphas(device.PMOS) != m.AlphaP || m.Alphas(device.NMOS) != m.AlphaN {
		t.Fatal("alpha selection")
	}
	if m.Card(device.PMOS, 1e-6, 40e-9).TypeK != device.PMOS {
		t.Fatal("card polarity")
	}
	g := DefaultStatGolden()
	if g.Alphas(device.PMOS) != g.AlphaP {
		t.Fatal("golden alpha selection")
	}
	if g.Card(device.PMOS, 1e-6, 40e-9).TypeK != device.PMOS {
		t.Fatal("golden card polarity")
	}
}

func TestGoldenAndVSNominalTargetsAgreeLoosely(t *testing.T) {
	// Before extraction the starter cards already describe the same kind of
	// transistor (within ~35%); after Fig. 1 extraction they agree tightly
	// (tested in internal/extract).
	tg := bpv.Targets{Vdd: 0.9}
	vs := DefaultStatVS().Nominal()(device.NMOS, 600e-9, 40e-9)
	gd := DefaultStatGolden().Nominal()(device.NMOS, 600e-9, 40e-9)
	iv, _, _ := tg.Eval(vs)
	ig, _, _ := tg.Eval(gd)
	if r := iv / ig; r < 0.65 || r > 1.55 {
		t.Fatalf("starter cards diverge: VS %g vs golden %g", iv, ig)
	}
}

// newTestRNG returns a deterministic RNG for corner tests.
func newTestRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
