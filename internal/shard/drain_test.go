package shard

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestHTTPEndpointDrainingIsRetryable runs the coordinator against a
// server that answers /healthz but 503s its first shard requests with the
// draining header — the retry ladder must treat it as retryable (back off,
// re-dispatch, complete) and never retire the worker ahead of DeadAfter.
func TestHTTPEndpointDrainingIsRetryable(t *testing.T) {
	const n = 400
	const seed = int64(13)
	want, wantRep := baseline(t, n, seed)

	real := Handler(testExec())
	var refused atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// First two shard requests hit the worker mid-drain; after that it
		// has "restarted" and serves normally. Health stays green so the
		// coordinator keeps the endpoint.
		if r.URL.Path == "/shard" && refused.Add(1) <= 2 {
			w.Header().Set(headerDraining, "1")
			http.Error(w, ErrDraining.Error(), http.StatusServiceUnavailable)
			return
		}
		real.ServeHTTP(w, r)
	}))
	defer srv.Close()

	cfg := Config{
		N: n, Seed: seed, ConfigHash: testHash, ShardSize: 100, MaxFailFrac: 1.0,
		DeadAfter: 10, MaxAttempts: 6,
		BackoffBase: time.Millisecond, BackoffMax: 10 * time.Millisecond,
	}
	eps := []Endpoint[float64]{{Name: "w0", Transport: HTTPEndpoint[float64]{Base: srv.URL}}}
	res, err := Run(context.Background(), cfg, eps, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "draining-retry", res, want, wantRep)
	assertStatsInvariants(t, "draining-retry", res)
	if res.Stats.Lost != 2 || res.Stats.Retried != 2 {
		t.Fatalf("draining rejections: lost=%d retried=%d, want 2/2: %+v",
			res.Stats.Lost, res.Stats.Retried, res.Stats)
	}
	if res.Stats.WorkersLost != 0 {
		t.Fatalf("retryable draining retired the worker: %+v", res.Stats)
	}
}

// TestHTTPEndpointConfigMismatchIsFatal runs the coordinator against a
// healthy server built for a different run: the 409 + fatal header must
// retire the endpoint after a single attempt — retrying a config mismatch
// can never succeed — and the run must degrade to the local executor.
func TestHTTPEndpointConfigMismatchIsFatal(t *testing.T) {
	const n = 400
	const seed = int64(13)
	want, wantRep := baseline(t, n, seed)

	foreign := NewExecutor[struct{}, float64]("some-other-config", 1, testNewState, testFn)
	srv := httptest.NewServer(Handler(foreign))
	defer srv.Close()

	cfg := Config{
		N: n, Seed: seed, ConfigHash: testHash, ShardSize: 100, MaxFailFrac: 1.0,
		DeadAfter: 10, MaxAttempts: 6,
		BackoffBase: time.Millisecond, BackoffMax: 10 * time.Millisecond,
	}
	eps := []Endpoint[float64]{{Name: "w0", Transport: HTTPEndpoint[float64]{Base: srv.URL}}}
	res, err := Run(context.Background(), cfg, eps, testExec())
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "fatal-mismatch", res, want, wantRep)
	assertStatsInvariants(t, "fatal-mismatch", res)
	if res.Stats.WorkersLost != 1 {
		t.Fatalf("fatal mismatch did not retire the worker: %+v", res.Stats)
	}
	if res.Stats.Lost != 1 {
		t.Fatalf("worker drew %d attempts before retirement, want exactly 1 (DeadAfter=10 must not apply): %+v",
			res.Stats.Lost, res.Stats)
	}
	if res.Stats.LocalFallback != int64(res.Shards) {
		t.Fatalf("local fallback served %d of %d shards: %+v", res.Stats.LocalFallback, res.Shards, res.Stats)
	}
}

// TestHTTPEndpointErrorMapping pins the wire translation directly: a gated
// handler mid-drain yields errors.Is(err, ErrDraining) (retryable), a
// config-mismatch refusal yields IsFatal, and WaitHealthy refuses a
// draining worker.
func TestHTTPEndpointErrorMapping(t *testing.T) {
	gate := &Gate{}
	srv := httptest.NewServer(GatedHandler(testExec(), gate))
	defer srv.Close()
	ep := HTTPEndpoint[float64]{Base: srv.URL}
	req := Request{ConfigHash: testHash, Seed: 1, N: 100, Lo: 0, Hi: 100, MaxFailFrac: 1.0}

	if _, err := ep.Dispatch(context.Background(), req); err != nil {
		t.Fatalf("open gate refused a healthy request: %v", err)
	}
	bad := req
	bad.ConfigHash = "some-other-run"
	if _, err := ep.Dispatch(context.Background(), bad); !IsFatal(err) {
		t.Fatalf("config mismatch over HTTP not fatal: %v", err)
	} else if errors.Is(err, ErrDraining) {
		t.Fatalf("config mismatch misclassified as draining: %v", err)
	}

	gate.Drain()
	_, err := ep.Dispatch(context.Background(), req)
	if !errors.Is(err, ErrDraining) {
		t.Fatalf("drained worker's rejection not ErrDraining: %v", err)
	}
	if IsFatal(err) {
		t.Fatalf("draining misclassified as fatal: %v", err)
	}
	hctx, hcancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer hcancel()
	if err := WaitHealthy(hctx, srv.URL, nil); err == nil {
		t.Fatal("draining worker passed the health probe")
	}
}

// TestHTTPEndpointOversizedBody pins the /shard body cap: a body over
// maxRequestBytes is answered 413 without reaching the executor, and the
// handler goes on serving valid requests.
func TestHTTPEndpointOversizedBody(t *testing.T) {
	srv := httptest.NewServer(Handler(testExec()))
	defer srv.Close()

	// Valid JSON whose one string field runs past the cap, so the decoder
	// keeps reading until the limit trips rather than failing on syntax.
	body := `{"bench":"` + strings.Repeat("x", maxRequestBytes) + `"}`
	resp, err := http.Post(srv.URL+"/shard", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body answered %d, want 413", resp.StatusCode)
	}

	ep := HTTPEndpoint[float64]{Base: srv.URL}
	req := Request{ConfigHash: testHash, Seed: 1, N: 100, Lo: 0, Hi: 100, MaxFailFrac: 1.0}
	envs, err := ep.Dispatch(context.Background(), req)
	if err != nil {
		t.Fatalf("handler refused a valid request after an oversized one: %v", err)
	}
	if len(envs) != 1 || len(envs[0].Results) != 100 {
		t.Fatalf("valid request after an oversized one returned %d envelopes", len(envs))
	}
}

// TestFaultDrainModeRetryable drives the worker-drain fault-matrix mode: a
// scripted ErrDraining at several (shard, attempt) points must behave
// exactly like any retryable loss — backed off, re-dispatched,
// bit-identical result, endpoint alive.
func TestFaultDrainModeRetryable(t *testing.T) {
	const n = 600
	const seed = int64(23)
	want, wantRep := baseline(t, n, seed)
	plan := &FaultPlan{Rules: []FaultRule{
		{Shard: 0, Attempt: 0, Kind: FaultDrain},
		{Shard: 2, Attempt: 0, Kind: FaultDrain},
		{Shard: 2, Attempt: 1, Kind: FaultDrain},
		{Shard: 5, Attempt: 0, Kind: FaultDrain},
	}}
	cfg := Config{
		N: n, Seed: seed, ConfigHash: testHash, ShardSize: 100, MaxFailFrac: 1.0,
		DeadAfter: 10, MaxAttempts: 6,
		BackoffBase: time.Millisecond, BackoffMax: 10 * time.Millisecond,
	}
	eps := []Endpoint[float64]{
		{Name: "w0", Transport: Wrap(plan, Loopback[float64]{Exec: testExec()})},
		{Name: "w1", Transport: Wrap(plan, Loopback[float64]{Exec: testExec()})},
	}
	res, err := Run(context.Background(), cfg, eps, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "fault-drain", res, want, wantRep)
	assertStatsInvariants(t, "fault-drain", res)
	if res.Stats.Lost != 4 || res.Stats.Retried != 4 {
		t.Fatalf("drain faults: lost=%d retried=%d, want 4/4: %+v", res.Stats.Lost, res.Stats.Retried, res.Stats)
	}
	if res.Stats.WorkersLost != 0 {
		t.Fatalf("retryable drains retired a worker: %+v", res.Stats)
	}
}

// TestGateDrainIdempotent pins the gate's tiny contract, nil-safety
// included (an ungated Handler never drains).
func TestGateDrainIdempotent(t *testing.T) {
	var nilGate *Gate
	if nilGate.Draining() {
		t.Fatal("nil gate reports draining")
	}
	g := &Gate{}
	if g.Draining() {
		t.Fatal("fresh gate reports draining")
	}
	g.Drain()
	g.Drain()
	if !g.Draining() {
		t.Fatal("drained gate reports open")
	}
}
