package main

import (
	"context"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"vstat/internal/circuits"
	"vstat/internal/device"
	"vstat/internal/shard"
)

// evalClock accumulates the time and count of device-model evaluations
// made through timed devices. Value-only Eval calls and derivative-bundle
// EvalDerivs4 calls are kept apart: the solver makes the first inside its
// newton-solve phase and the second inside assemble-J, so the benchmark
// can take each out of the right phase. Counters are atomic so one clock
// can serve several goroutines.
type evalClock struct {
	valNs, valN atomic.Int64
	derNs, derN atomic.Int64
}

func (c *evalClock) evals() int64 { return c.valN.Load() + c.derN.Load() }
func (c *evalClock) ns() int64    { return c.valNs.Load() + c.derNs.Load() }

// timedDevice times a model's value evaluations.
type timedDevice struct {
	d     device.Device
	clock *evalClock
}

func (t *timedDevice) Kind() device.Kind { return t.d.Kind() }
func (t *timedDevice) Width() float64    { return t.d.Width() }
func (t *timedDevice) Length() float64   { return t.d.Length() }

func (t *timedDevice) Eval(vd, vg, vs, vb float64) device.Eval {
	t0 := time.Now()
	e := t.d.Eval(vd, vg, vs, vb)
	t.clock.valNs.Add(int64(time.Since(t0)))
	t.clock.valN.Add(1)
	return e
}

// timedNativeDevice also forwards the model's analytic derivative path.
// Without it the solver would fall back to finite differences, a
// different program path with different Newton iterates.
type timedNativeDevice struct {
	timedDevice
	nd device.NativeDerivs
}

func (t *timedNativeDevice) EvalDerivs4(vd, vg, vs, vb float64) device.Derivs {
	t0 := time.Now()
	d := t.nd.EvalDerivs4(vd, vg, vs, vb)
	t.clock.derNs.Add(int64(time.Since(t0)))
	t.clock.derN.Add(1)
	return d
}

// timeDevice wraps d so its evaluations are timed into clock.
func timeDevice(d device.Device, clock *evalClock) device.Device {
	td := timedDevice{d: d, clock: clock}
	if nd, ok := d.(device.NativeDerivs); ok {
		return &timedNativeDevice{timedDevice: td, nd: nd}
	}
	return &td
}

// timedFactory is the timing device factory: every instance f makes is
// wrapped by timeDevice.
func timedFactory(f circuits.Factory, clock *evalClock) circuits.Factory {
	return func(k device.Kind, w, l float64) device.Device {
		return timeDevice(f(k, w, l), clock)
	}
}

// dispatchLog records, per shard attempt, the coordinator-side dispatch
// duration and the moment the envelope came back.
type dispatchLog struct {
	mu       sync.Mutex
	durs     []time.Duration
	returned map[int]time.Time // shard ordinal -> envelope arrival
}

func newDispatchLog() *dispatchLog { return &dispatchLog{returned: make(map[int]time.Time)} }

// timedTransport wraps a shard transport and logs each dispatch.
type timedTransport[T any] struct {
	inner shard.Transport[T]
	log   *dispatchLog
}

func (t timedTransport[T]) Dispatch(ctx context.Context, req shard.Request) ([]*shard.Envelope[T], error) {
	t0 := time.Now()
	envs, err := t.inner.Dispatch(ctx, req)
	t1 := time.Now()
	t.log.mu.Lock()
	t.log.durs = append(t.log.durs, t1.Sub(t0))
	if err == nil && len(envs) > 0 {
		t.log.returned[req.Shard] = t1
	}
	t.log.mu.Unlock()
	return envs, err
}

// countingRoundTripper counts the HTTP bytes a client sends and receives.
type countingRoundTripper struct {
	inner     http.RoundTripper
	sent, got atomic.Int64
}

func (c *countingRoundTripper) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.ContentLength > 0 {
		c.sent.Add(r.ContentLength)
	}
	resp, err := c.inner.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &c.got}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}
