package spice

import "math"

// TranPrefix records the per-step state of fixed-step transient runs so a
// later run whose sources agree with the recorded ones over a leading window
// can resume at the last shared step instead of re-simulating from t = 0.
// Register characterization is the user: every setup/hold bisection trial
// drives the same clock and the same held data up to its own data edge, so
// the trials share everything before that edge.
//
// A run opts in with TranOpts.Prefix and TranOpts.SharedUntil. Row k holds
// the unknown vector at t_k = k·Step and the integrator history after that
// step; rows only ever describe the shared (source-agreeing) stretch of a
// run, so every row is the state any run with SharedUntil ≥ t_k would reach
// from t = 0. Validity is checked on every run, never assumed: the prefix is
// used only for the same circuit at the same epoch (no device re-stamp,
// element addition or sparse re-pivot since recording), the same Step,
// Trap and Fast, the same Gmin, MaxNewton and linear core, and the same
// initial state vector. Otherwise the run records from scratch. See
// DESIGN.md §6.
//
// The zero value is an empty prefix. The storage is reused across Reset, so
// a pooled caller allocates only while the prefix first grows. A TranPrefix
// belongs to one goroutine, like the circuit it records.
type TranPrefix struct {
	key  prefixKey
	w    int       // floats per row: unknowns + 8·MOSFETs + 2·capacitors
	rows int       // recorded rows 0..rows-1
	data []float64 // rows·w floats, row-major
}

// prefixKey is everything besides the sources that a recorded step depends
// on. The epoch covers the devices and the sparse pivot order.
type prefixKey struct {
	c         *Circuit
	epoch     uint64
	step      float64
	trap      bool
	fast      bool
	sparse    bool
	gmin      float64
	maxNewton int
}

// Reset drops every recorded row, keeping the storage. A caller resets
// before it starts a new family of runs whose sources agree with each other
// but not with the previous family (a hold search after a setup search).
func (p *TranPrefix) Reset() { p.rows = 0 }

// sharedStep returns the last step index k whose state depends only on
// source values inside [0, SharedUntil]: t_k + Step/2 ≤ SharedUntil. The half
// step of margin keeps a rescue sub-step's rounded time (t_{k-1} + i·h/m,
// which can land an ulp past t_k) inside the window as well.
func sharedStep(opts TranOpts, steps int) int {
	lim := opts.SharedUntil - opts.Step/2
	if !(lim >= 0) {
		return -1
	}
	k := int(math.Floor(lim / opts.Step))
	for k >= 0 && float64(k)*opts.Step > lim {
		k--
	}
	return min(k, steps)
}

func (c *Circuit) prefixKey(opts TranOpts) prefixKey {
	return prefixKey{
		c: c, epoch: c.epoch, step: opts.Step, trap: opts.Trap, fast: opts.Fast,
		sparse: c.useSparseCore(), gmin: c.Gmin, maxNewton: c.MaxNewton,
	}
}

// resumable reports whether p holds rows recorded under key for a run
// starting from the initial state x0. The key's epoch pins the topology, so
// a matching key also means matching row widths.
func (p *TranPrefix) resumable(key prefixKey, x0 []float64) bool {
	if p.rows == 0 || p.key != key {
		return false
	}
	for i, v := range p.data[:len(x0)] {
		if math.Float64bits(v) != math.Float64bits(x0[i]) {
			return false
		}
	}
	return true
}

// begin starts a new recording under key.
func (p *TranPrefix) begin(key prefixKey) {
	c := key.c
	p.key, p.w, p.rows = key, c.unknowns()+8*len(c.mos)+2*len(c.cs), 0
}

// row returns the storage of row k.
func (p *TranPrefix) row(k int) []float64 { return p.data[k*p.w : (k+1)*p.w] }

// x returns the unknown vector of row k.
func (p *TranPrefix) x(k, n int) []float64 { return p.row(k)[:n] }

// record appends the state x with integrator history ts as the next row.
func (p *TranPrefix) record(x []float64, ts *tranState) {
	need := (p.rows + 1) * p.w
	if need > cap(p.data) {
		grown := make([]float64, need, 2*need)
		copy(grown, p.data)
		p.data = grown
	}
	p.data = p.data[:need]
	r := p.row(p.rows)
	r = r[copy(r, x):]
	for i := range ts.qPrevMos {
		r = r[copy(r, ts.qPrevMos[i][:]):]
		r = r[copy(r, ts.iPrevMos[i][:]):]
	}
	r = r[copy(r, ts.qPrevCap):]
	copy(r, ts.iPrevCap)
	p.rows++
}

// restore loads row k's integrator history into ts.
func (p *TranPrefix) restore(k, n int, ts *tranState) {
	r := p.row(k)[n:]
	for i := range ts.qPrevMos {
		r = r[copy(ts.qPrevMos[i][:], r):]
		r = r[copy(ts.iPrevMos[i][:], r):]
	}
	r = r[copy(ts.qPrevCap, r):]
	copy(ts.iPrevCap, r)
}
