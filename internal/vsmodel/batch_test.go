package vsmodel

import (
	"math/rand"
	"testing"

	"vstat/internal/device"
)

// randomInstance draws a Pelgrom-style perturbed VS instance.
func randomInstance(rng *rand.Rand, pmos bool) device.Device {
	var base Params
	if pmos {
		base = PMOS40(600e-9)
	} else {
		base = NMOS40(600e-9)
	}
	d := device.Deltas{
		DVT0:  rng.NormFloat64() * 0.03,
		DL:    rng.NormFloat64() * 2e-9,
		DW:    rng.NormFloat64() * 10e-9,
		DMu:   rng.NormFloat64() * 0.002,
		DCinv: rng.NormFloat64() * 0.0005,
	}
	return base.WithDeltas(d)
}

// The batched VS kernel must reproduce the scalar Eval / EvalDerivs4 paths
// bit-for-bit on every lane, across lane widths, random Pelgrom draws,
// polarities, swapped orientations, and mixed per-lane eval modes.
func TestBatchKernelBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, k := range []int{1, 3, 8, 16} {
		pb := NewParamsBatch(k)
		out := device.NewDerivsBatch(k)
		devs := make([]device.Device, k)
		vd := make([]float64, k)
		vg := make([]float64, k)
		vs := make([]float64, k)
		vb := make([]float64, k)
		mode := make([]device.EvalMode, k)

		for round := 0; round < 50; round++ {
			for l := 0; l < k; l++ {
				devs[l] = randomInstance(rng, rng.Intn(2) == 1)
				if !pb.SetLane(l, devs[l]) {
					t.Fatalf("SetLane rejected a *Params instance")
				}
				vd[l] = rng.Float64()*1.8 - 0.45
				vg[l] = rng.Float64() * 0.9
				vs[l] = rng.Float64() * 0.9
				vb[l] = rng.Float64()*0.2 - 0.1
				mode[l] = device.EvalMode(rng.Intn(3)) // skip/values/full mix
				// Poison skipped lanes' outputs to verify they stay untouched.
				if mode[l] == device.EvalSkip {
					out.Id[l] = 1e99
				}
			}
			pb.EvalDerivsBatch(vd, vg, vs, vb, mode, out)
			for l := 0; l < k; l++ {
				switch mode[l] {
				case device.EvalSkip:
					if out.Id[l] != 1e99 {
						t.Fatalf("k=%d round=%d lane=%d: skip lane was written", k, round, l)
					}
				case device.EvalValues:
					ref := devs[l].Eval(vd[l], vg[l], vs[l], vb[l])
					if out.Id[l] != ref.Id {
						t.Fatalf("k=%d round=%d lane=%d: Id %x != scalar %x", k, round, l, out.Id[l], ref.Id)
					}
					got := device.Charges{Qd: out.Q[0][l], Qg: out.Q[1][l], Qs: out.Q[2][l], Qb: out.Q[3][l]}
					if got != ref.Q {
						t.Fatalf("k=%d round=%d lane=%d: Q %+v != scalar %+v", k, round, l, got, ref.Q)
					}
				case device.EvalFull:
					ref := device.EvalDerivs(devs[l], vd[l], vg[l], vs[l], vb[l])
					if got := out.Lane(l); got != ref {
						t.Fatalf("k=%d round=%d lane=%d: derivs diverge from scalar\n got %+v\n ref %+v",
							k, round, l, got, ref)
					}
				}
			}
		}
	}
}

// The fallback scalar-loop batch must agree with the native kernel (both
// reduce to the scalar paths).
func TestFallbackBatchMatchesScalar(t *testing.T) {
	const k = 5
	rng := rand.New(rand.NewSource(7))
	fb := device.NewFallbackBatch(k)
	out := device.NewDerivsBatch(k)
	devs := make([]device.Device, k)
	vd := make([]float64, k)
	vg := make([]float64, k)
	vs := make([]float64, k)
	vb := make([]float64, k)
	mode := make([]device.EvalMode, k)
	for l := 0; l < k; l++ {
		devs[l] = randomInstance(rng, l%2 == 1)
		fb.SetLane(l, devs[l])
		vd[l] = rng.Float64() * 0.9
		vg[l] = rng.Float64() * 0.9
		mode[l] = device.EvalFull
	}
	fb.EvalDerivsBatch(vd, vg, vs, vb, mode, out)
	for l := 0; l < k; l++ {
		if got, ref := out.Lane(l), device.EvalDerivs(devs[l], vd[l], vg[l], vs[l], vb[l]); got != ref {
			t.Fatalf("lane %d: fallback %+v != scalar %+v", l, got, ref)
		}
	}
}

// SetLane binds only bare VS instances: any other device (here a VS card
// behind a fault-injection wrapper) reports false, which is what makes the
// lockstep engine demote that position to the scalar-loop fallback batch.
func TestParamsBatchRejectsForeignLane(t *testing.T) {
	p := NMOS40(600e-9)
	pb := NewParamsBatch(2)
	if !pb.SetLane(0, &p) {
		t.Fatal("SetLane rejected a *Params instance")
	}
	if pb.SetLane(1, &device.FaultCard{Inner: &p}) {
		t.Fatal("SetLane accepted a non-VS device")
	}
}

// The batched kernel must not allocate per call.
func TestBatchKernelZeroAlloc(t *testing.T) {
	const k = 8
	rng := rand.New(rand.NewSource(3))
	pb := NewParamsBatch(k)
	out := device.NewDerivsBatch(k)
	vd := make([]float64, k)
	vg := make([]float64, k)
	vs := make([]float64, k)
	vb := make([]float64, k)
	mode := make([]device.EvalMode, k)
	for l := 0; l < k; l++ {
		pb.SetLane(l, randomInstance(rng, false))
		vd[l] = 0.9
		vg[l] = 0.7
		mode[l] = device.EvalFull
	}
	allocs := testing.AllocsPerRun(100, func() {
		pb.EvalDerivsBatch(vd, vg, vs, vb, mode, out)
	})
	if allocs != 0 {
		t.Fatalf("EvalDerivsBatch allocates %.1f per call, want 0", allocs)
	}
}
