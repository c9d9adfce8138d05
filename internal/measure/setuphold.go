package measure

import (
	"errors"
	"fmt"

	"vstat/internal/circuits"
	"vstat/internal/spice"
)

// ErrNoPassRegion is returned when the flip-flop fails even at the largest
// tested offset (broken register).
var ErrNoPassRegion = errors.New("measure: no passing data-to-clock offset")

// SetupOpts configures the setup-time search.
type SetupOpts struct {
	ClkEdge   float64 // rising clock edge time, s
	MaxOffset float64 // largest data-to-clock offset tried, s
	Tol       float64 // bisection resolution, s
	Step      float64 // transient step, s
	Settle    float64 // time after the edge at which Q is checked, s

	// Res, when non-nil, is a reusable transient result refilled by every
	// bisection trial (the pooled Monte Carlo path); nil keeps the classic
	// allocate-per-trial behavior.
	Res *spice.TranResult
	// Fast selects the carried-Jacobian transient path for the trials.
	Fast bool
}

// DefaultSetupOpts returns a search window suited to the 40-nm register.
func DefaultSetupOpts() SetupOpts {
	return SetupOpts{
		ClkEdge:   300e-12,
		MaxOffset: 150e-12,
		Tol:       1e-12,
		Step:      2e-12,
		Settle:    300e-12,
	}
}

// SetupTime finds the minimum time by which a 0→1 data transition must
// precede the rising clock edge for the register to capture the 1 (checked
// at ClkEdge+Settle). As in the paper, every probe is a transient, which is
// what makes register characterization ~20× more expensive than a
// combinational cell and motivates the ultra-compact VS model. The probes
// share their pre-edge stretch: until its data edge each trial holds D at 0
// under the same clock, so the search records that stretch once in
// ff.Prefix and every trial simulates only from its own data edge to
// ClkEdge+Settle. In exact mode each trial stays bit-identical to a
// transient from t = 0.
func SetupTime(ff *circuits.DFF, o SetupOpts) (float64, error) {
	ff.Prefix.Reset()
	passes := func(offset float64) (bool, error) {
		return setupTrialPasses(ff, o, offset)
	}
	// The largest offset must pass and a zero/negative margin must fail.
	hiPass, err := passes(o.MaxOffset)
	if err != nil {
		return 0, err
	}
	if !hiPass {
		return 0, ErrNoPassRegion
	}
	lo, hi := -o.MaxOffset/4, o.MaxOffset
	loPass, err := passes(lo)
	if err != nil {
		return 0, err
	}
	if loPass {
		// Captures even with data after the edge: effectively no setup
		// constraint in the window; report the lower bound.
		return lo, nil
	}
	for hi-lo > o.Tol {
		mid := 0.5 * (lo + hi)
		ok, err := passes(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid
		}
	}
	return 0.5 * (lo + hi), nil
}

// setupTrialPasses runs one capture trial with the data edge at
// ClkEdge−offset and reports whether Q latched high.
func setupTrialPasses(ff *circuits.DFF, o SetupOpts, offset float64) (bool, error) {
	return o.capture(ff, setupSources(ff, o, offset), "setup")
}

// setupSources installs a setup trial's waveforms and returns its data
// edge. Before the edge every setup trial drives the same sources: D held
// at 0 and the one clock edge.
func setupSources(ff *circuits.DFF, o SetupOpts, offset float64) float64 {
	vdd := ff.Vdd
	edge := circuits.EdgeTime
	tData := o.ClkEdge - offset

	// Data: low, rising at tData, staying high.
	ff.Ckt.SetVSource(ff.DSrc, spice.PWL{
		T: []float64{0, tData, tData + edge},
		V: []float64{0, 0, vdd},
	})
	setClock(ff, o)
	return tData
}

// setClock installs the clock: low long enough for the master to settle,
// one rising edge at ClkEdge, held high through the check.
func setClock(ff *circuits.DFF, o SetupOpts) {
	ff.Ckt.SetVSource(ff.ClkSrc, spice.PWL{
		T: []float64{0, o.ClkEdge, o.ClkEdge + circuits.EdgeTime},
		V: []float64{0, 0, ff.Vdd},
	})
}

// capture runs one trial on the installed sources and reports whether Q
// holds a 1 at ClkEdge+Settle.
func (o SetupOpts) capture(ff *circuits.DFF, dataEdge float64, kind string) (bool, error) {
	stop := o.ClkEdge + o.Settle
	res, err := o.runTrial(ff, stop, dataEdge)
	if err != nil {
		return false, fmt.Errorf("%s trial: %w", kind, err)
	}
	q := res.At(ff.Q, stop)
	// NaN compares false and would silently read as "capture failed",
	// steering the bisection instead of surfacing the broken trial.
	if !finite(q) {
		return false, fmt.Errorf("%s trial Q at t=%g: %w", kind, stop, ErrNonFinite)
	}
	return q > ff.Vdd/2, nil
}

// runTrial runs one capture transient, into o.Res when pooling is active,
// resuming from ff.Prefix at the trial's data edge.
func (o SetupOpts) runTrial(ff *circuits.DFF, stop, dataEdge float64) (*spice.TranResult, error) {
	opts := spice.TranOpts{
		Stop: stop, Step: o.Step, UIC: true, IC: ff.ICHoldingZero(), Fast: o.Fast,
		Prefix: &ff.Prefix, SharedUntil: dataEdge,
	}
	if o.Res != nil {
		if err := ff.Ckt.TransientInto(opts, o.Res); err != nil {
			return nil, err
		}
		return o.Res, nil
	}
	return ff.Ckt.Transient(opts)
}

// HoldTime finds the minimum time the data must remain stable *after* the
// rising clock edge: data goes high well before the edge, then falls at
// ClkEdge+offset; the register must still capture the 1. Returned is the
// smallest passing offset (can be negative when the data may fall before
// the edge). Like SetupTime, the trials share the stretch before their data
// edge through ff.Prefix, reset here so a hold search never resumes from a
// setup recording.
func HoldTime(ff *circuits.DFF, o SetupOpts) (float64, error) {
	ff.Prefix.Reset()
	passes := func(offset float64) (bool, error) {
		return holdTrialPasses(ff, o, offset)
	}
	hiPass, err := passes(o.MaxOffset)
	if err != nil {
		return 0, err
	}
	if !hiPass {
		return 0, ErrNoPassRegion
	}
	lo, hi := -o.MaxOffset, o.MaxOffset
	loPass, err := passes(lo)
	if err != nil {
		return 0, err
	}
	if loPass {
		return lo, nil
	}
	for hi-lo > o.Tol {
		mid := 0.5 * (lo + hi)
		ok, err := passes(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid
		}
	}
	return 0.5 * (lo + hi), nil
}

func holdTrialPasses(ff *circuits.DFF, o SetupOpts, offset float64) (bool, error) {
	return o.capture(ff, holdSources(ff, o, offset), "hold")
}

// holdSources installs a hold trial's waveforms and returns its data edge.
// Before the edge every hold trial drives the same sources: D high from
// 50 ps and the one clock edge.
func holdSources(ff *circuits.DFF, o SetupOpts, offset float64) float64 {
	vdd := ff.Vdd
	edge := circuits.EdgeTime
	tFall := o.ClkEdge + offset

	// Data: high early (ample setup), falling at tFall.
	ff.Ckt.SetVSource(ff.DSrc, spice.PWL{
		T: []float64{0, 50e-12, 50e-12 + edge, tFall, tFall + edge},
		V: []float64{0, 0, vdd, vdd, 0},
	})
	setClock(ff, o)
	return tFall
}
