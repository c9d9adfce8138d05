package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"vstat/internal/bpv"
	"vstat/internal/core"
	"vstat/internal/device"
	"vstat/internal/montecarlo"
	"vstat/internal/obs"
	"vstat/internal/obs/trace"
	"vstat/internal/shard"
)

// shard_campaign settings: a device-level Table III campaign (Idsat,
// log10 Ioff and Cgg of a 600/40 NMOS under the paper's Table II model) in
// small shards over two in-process HTTP endpoints, with a dispatch journal
// and the streaming merge.
const (
	campaignN         = 65536
	campaignShardSize = 256
	campaignEndpoints = 2
	campaignW         = 600e-9
	campaignL         = 40e-9
	campaignVdd       = 0.9
)

// warmUpShards is the size of the set-up campaign, in shards.
const warmUpShards = 4

// cell is one campaign sample: Idsat (A), log10 Ioff, Cgg (F).
type cell = [3]float64

// campaignWorker is the worker side shared by both endpoints: the sample
// function's model and, during a traced pass, the timing clocks.
type campaignWorker struct {
	m      *core.StatVS
	tg     bpv.Targets
	traced atomic.Bool
	clock  evalClock

	mu    sync.Mutex
	execs []time.Duration // traced shard executions
}

func newCampaignWorker() *campaignWorker {
	return &campaignWorker{m: paperModel(), tg: bpv.Targets{Vdd: campaignVdd}}
}

func (w *campaignWorker) sample(idx int, rng *rand.Rand) (cell, error) {
	d := w.m.SampleDevice(rng, device.NMOS, campaignW, campaignL)
	if w.traced.Load() {
		d = timeDevice(d, &w.clock)
	}
	a, b, c := w.tg.Eval(d)
	return cell{a, b, c}, nil
}

func campaignHash() string {
	return montecarlo.ConfigHash("perfbench/shard_campaign/v1", campaignW, campaignL, campaignVdd)
}

// executor builds the shard executor the endpoints serve. During a traced
// pass it also times each shard execution.
func (w *campaignWorker) executor() shard.ExecFn[cell] {
	exec := shard.NewExecutor(campaignHash(), 1,
		func(int) (*campaignWorker, error) { return w, nil },
		func(w *campaignWorker, idx int, rng *rand.Rand) (cell, error) { return w.sample(idx, rng) })
	return func(ctx context.Context, req shard.Request) (*shard.Envelope[cell], error) {
		if !w.traced.Load() {
			return exec(ctx, req)
		}
		t0 := time.Now()
		env, err := exec(ctx, req)
		d := time.Since(t0)
		w.mu.Lock()
		w.execs = append(w.execs, d)
		w.mu.Unlock()
		return env, err
	}
}

// endpoints are the in-process HTTP workers on 127.0.0.1.
type endpoints struct {
	servers []*http.Server
	bases   []string
	wg      sync.WaitGroup
	plain   *http.Transport
	counter *countingRoundTripper
	client  *http.Client
}

// startEndpoints starts the HTTP workers and waits until each answers its
// health probe.
func startEndpoints(exec shard.ExecFn[cell]) (*endpoints, error) {
	e := &endpoints{plain: &http.Transport{MaxIdleConnsPerHost: campaignEndpoints * 2}}
	e.counter = &countingRoundTripper{inner: e.plain}
	e.client = &http.Client{Transport: e.plain}
	for i := 0; i < campaignEndpoints; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			e.close()
			return nil, err
		}
		srv := &http.Server{Handler: shard.Handler(exec)}
		e.servers = append(e.servers, srv)
		e.bases = append(e.bases, "http://"+ln.Addr().String())
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			srv.Serve(ln) // returns http.ErrServerClosed on close
		}()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, b := range e.bases {
		if err := shard.WaitHealthy(ctx, b, e.client); err != nil {
			e.close()
			return nil, fmt.Errorf("endpoint %s: %w", b, err)
		}
	}
	return e, nil
}

// close stops the servers and waits for their goroutines.
func (e *endpoints) close() {
	for _, s := range e.servers {
		s.Close()
	}
	e.wg.Wait()
	e.plain.CloseIdleConnections()
}

// campaignTrace is the coordinator-side instrumentation of a traced pass.
type campaignTrace struct {
	log  *dispatchLog
	rec  *trace.Recorder
	span uint64 // parent span of the coordinator's dispatch spans
	// commitWaits (envelope back to fold start, journal fsync inside) and
	// folds (streaming-merge fold) are per committed shard.
	commitWaits, folds []time.Duration
}

// campaignRun is one campaign's outcome.
type campaignRun struct {
	wall                   time.Duration
	stats                  shard.Stats
	shards                 int
	report                 montecarlo.RunReport
	sums                   [3]montecarlo.StreamSummary
	journalBytes           int64
	rss                    float64 // resident set after the campaign, MB
	registryJournalCommits int64   // from the program's shard metrics (traced)
	// checkErr is a broken coordinator invariant: Stats.Check failed or a
	// shard was not folded exactly once.
	checkErr error
}

// runCampaignOnce runs one journaled, streamed campaign of n samples. Its
// wall covers journal creation, the coordinated run and the journal close.
func runCampaignOnce(e *endpoints, seed int64, n int, path string, ct *campaignTrace) (campaignRun, error) {
	var cr campaignRun
	cfg := shard.Config{N: n, Seed: seed, ConfigHash: campaignHash(),
		ShardSize: campaignShardSize, Bench: "targets"}
	var reg *obs.Registry
	if ct != nil {
		reg = obs.NewRegistry()
		cfg.Metrics = shard.NewMetrics(reg)
		cfg.Trace, cfg.TraceParent = ct.rec, ct.span
	}
	var eps []shard.Endpoint[cell]
	for i, b := range e.bases {
		var tr shard.Transport[cell] = shard.HTTPEndpoint[cell]{Base: b, Client: e.client}
		if ct != nil {
			tr = timedTransport[cell]{inner: tr, log: ct.log}
		}
		eps = append(eps, shard.Endpoint[cell]{Name: fmt.Sprintf("http-%d", i), Transport: tr})
	}
	nShards := (n + campaignShardSize - 1) / campaignShardSize
	folds := make([]int, nShards)
	stream := func(env *shard.Envelope[cell]) {
		t0 := time.Now()
		fi := 0
		for i, v := range env.Results {
			for fi < len(env.Failures) && env.Failures[fi].Idx < env.Lo+i {
				fi++
			}
			if fi < len(env.Failures) && env.Failures[fi].Idx == env.Lo+i {
				continue
			}
			for k := range cr.sums {
				cr.sums[k].Add(v[k])
			}
		}
		if env.Shard >= 0 && env.Shard < nShards {
			folds[env.Shard]++
		}
		if ct != nil {
			ct.folds = append(ct.folds, time.Since(t0))
			ct.log.mu.Lock()
			back, ok := ct.log.returned[env.Shard]
			ct.log.mu.Unlock()
			if ok {
				ct.commitWaits = append(ct.commitWaits, t0.Sub(back))
			}
		}
	}
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return cr, err
	}
	t0 := time.Now()
	j, err := shard.CreateJournal[cell](path, cfg)
	if err != nil {
		return cr, err
	}
	res, runErr := shard.RunWithOptions(context.Background(), cfg, eps, nil,
		shard.RunOptions[cell]{Journal: j, Stream: stream})
	closeErr := j.Close()
	cr.wall = time.Since(t0)
	if runErr != nil {
		return cr, runErr
	}
	if closeErr != nil {
		return cr, closeErr
	}
	if fi, err := os.Stat(path); err == nil {
		cr.journalBytes = fi.Size()
	}
	if err := os.Remove(path); err != nil {
		return cr, err
	}
	cr.stats, cr.shards, cr.report = res.Stats, res.Shards, res.Report
	cr.rss = rssMB()
	if reg != nil {
		cr.registryJournalCommits = reg.Snapshot().FindCounter("shard_journal_commits_total")
	}
	cr.checkErr = res.Stats.Check(res.Shards)
	for i, n := range folds {
		if n != 1 && cr.checkErr == nil {
			cr.checkErr = fmt.Errorf("shard %d folded %d times, want exactly once", i, n)
		}
	}
	return cr, nil
}

// localSummary runs the campaign's samples in-process without the shard
// layer — the reference every sharded campaign must reproduce bit for bit.
func localSummary(w *campaignWorker, seed int64, n int) ([3]montecarlo.StreamSummary, error) {
	var sums [3]montecarlo.StreamSummary
	out, rep, err := montecarlo.MapPooledReportCtx(context.Background(), n, seed, campaignEndpoints,
		montecarlo.RunOpts{},
		func(int) (*campaignWorker, error) { return w, nil },
		func(w *campaignWorker, idx int, rng *rand.Rand) (cell, error) { return w.sample(idx, rng) })
	if err != nil {
		return sums, err
	}
	if rep.Failed != 0 {
		return sums, fmt.Errorf("reference run: %d failed samples", rep.Failed)
	}
	for _, v := range out {
		for k := range sums {
			sums[k].Add(v[k])
		}
	}
	return sums, nil
}

// sameSummary reports whether two summaries agree to the bit.
func sameSummary(a, b [3]montecarlo.StreamSummary) bool {
	for k := range a {
		if a[k].Count() != b[k].Count() ||
			math.Float64bits(a[k].Sum()) != math.Float64bits(b[k].Sum()) ||
			math.Float64bits(a[k].Std()) != math.Float64bits(b[k].Std()) ||
			a[k].Min() != b[k].Min() || a[k].Max() != b[k].Max() {
			return false
		}
	}
	return true
}

// campaignPass runs campaigns until the count or the deadline is reached
// (count <= 0: deadline only, at least one).
func campaignPass(e *endpoints, seed int64, dir string, count int, deadline time.Time, ct *campaignTrace) ([]campaignRun, error) {
	var runs []campaignRun
	for i := 0; count <= 0 || i < count; i++ {
		if count <= 0 && i > 0 && time.Now().After(deadline) {
			break
		}
		var span *trace.Span
		var parent uint64
		if ct != nil {
			parent = ct.span
			span = ct.rec.Start(fmt.Sprintf("campaign %d", i), trace.CatMCRun, parent)
			ct.span = span.ID()
		}
		cr, err := runCampaignOnce(e, seed, campaignN, filepath.Join(dir, fmt.Sprintf("campaign-%d.journal", i)), ct)
		if ct != nil {
			ct.span = parent
			span.End()
		}
		if err != nil {
			return nil, fmt.Errorf("campaign %d: %w", i, err)
		}
		runs = append(runs, cr)
	}
	return runs, nil
}

func runCampaign(o options) (*outcome, error) {
	out := &outcome{}
	w := newCampaignWorker()
	dir, err := os.MkdirTemp(o.outDir(), "journal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	// Set-up: start the endpoints, then one small warm-up campaign so the
	// connections are open and the journal path is exercised before timing.
	var e *endpoints
	var setups []float64
	for i := 0; i < setUpRepeats; i++ {
		if e != nil {
			e.close()
		}
		c0 := cpuSeconds()
		e, err = startEndpoints(w.executor())
		if err != nil {
			return nil, err
		}
		warm, err := runCampaignOnce(e, o.seed, warmUpShards*campaignShardSize, filepath.Join(dir, "warm-up.journal"), nil)
		if err == nil {
			err = warm.checkErr
		}
		if err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up campaign: %w", err)
		}
		setups = append(setups, cpuSeconds()-c0)
	}
	defer e.close()
	out.set("setup_s", median(setups))
	ref, err := localSummary(w, o.seed, campaignN)
	if err != nil {
		return nil, err
	}
	budget := time.Duration(o.seconds * float64(time.Second))

	if !o.trace {
		runs, err := campaignPass(e, o.seed, dir, 0, time.Now().Add(budget), nil)
		if err != nil {
			return nil, err
		}
		var walls, rss []float64
		for _, r := range runs {
			walls = append(walls, r.wall.Seconds())
			rss = append(rss, r.rss)
			out.attempted += r.report.Attempted
			out.failed += r.report.Failed
		}
		out.set("wall_s", median(walls))
		out.set("samples_per_s", campaignN/median(walls))
		out.set("rss_mb", median(rss))
		out.checkErr = checkCampaign(o.root, o.seed, ref, runs)
		return out, nil
	}

	// Traced run: untraced campaigns for half the budget, then as many
	// traced ones with the timing transport, round tripper, executor and
	// device decorators, the program's shard metrics and trace recorder.
	plain, err := campaignPass(e, o.seed, dir, 0, time.Now().Add(budget/2), nil)
	if err != nil {
		return nil, err
	}
	rec := trace.New("perfbench", 0)
	root := rec.Start("shard_campaign", trace.CatRun, 0)
	ct := &campaignTrace{log: newDispatchLog(), rec: rec, span: root.ID()}
	w.traced.Store(true)
	e.client.Transport = e.counter
	traced, err := campaignPass(e, o.seed, dir, len(plain), time.Time{}, ct)
	e.client.Transport = e.plain
	w.traced.Store(false)
	if err != nil {
		return nil, err
	}
	root.End()
	if err := rec.WriteFile(o.traceFile()); err != nil {
		return nil, err
	}
	for _, r := range append(append([]campaignRun(nil), plain...), traced...) {
		out.attempted += r.report.Attempted
		out.failed += r.report.Failed
	}
	setCampaignLayers(out, w, e, ct, plain, traced)
	out.checkErr = checkCampaign(o.root, o.seed, ref, plain)
	if out.checkErr == nil {
		out.checkErr = checkCampaign(o.root, o.seed, ref, traced)
	}
	if out.checkErr == nil {
		out.checkErr = sameCampaignPath(plain, traced)
	}
	return out, nil
}

// setCampaignLayers derives the shard-layer metrics of a traced pass.
func setCampaignLayers(out *outcome, w *campaignWorker, e *endpoints, ct *campaignTrace, plain, traced []campaignRun) {
	ms := func(ds []time.Duration, q float64) float64 {
		xs := make([]float64, len(ds))
		for i, d := range ds {
			xs[i] = float64(d.Nanoseconds()) / 1e6
		}
		return quantile(xs, q)
	}
	var dispatchNs, execNs, plainWall, tracedWall float64
	for _, d := range ct.log.durs {
		dispatchNs += float64(d.Nanoseconds())
	}
	w.mu.Lock()
	execs := append([]time.Duration(nil), w.execs...)
	w.mu.Unlock()
	for _, d := range execs {
		execNs += float64(d.Nanoseconds())
	}
	var samples, shards int
	var journal, committed, dispatched, retried, peakLive int64
	for _, r := range traced {
		tracedWall += r.wall.Seconds()
		samples += r.report.Attempted
		shards += r.shards
		journal += r.journalBytes
		committed += r.stats.Committed
		dispatched += r.stats.Dispatched
		retried += r.stats.Retried
		if r.stats.PeakLiveEnvelopes > peakLive {
			peakLive = r.stats.PeakLiveEnvelopes
		}
	}
	for _, r := range plain {
		plainWall += r.wall.Seconds()
	}
	var foldNs float64
	for _, d := range ct.folds {
		foldNs += float64(d.Nanoseconds())
	}
	out.set("shard.dispatch_ms_p50", ms(ct.log.durs, 0.5))
	out.set("shard.dispatch_ms_p99", ms(ct.log.durs, 0.99))
	out.set("shard.exec_ms_p50", ms(execs, 0.5))
	out.set("shard.wire_overhead_frac", 1-execNs/dispatchNs)
	out.set("shard.wire_bytes_per_sample", float64(e.counter.sent.Load()+e.counter.got.Load())/float64(samples))
	out.set("shard.commit_ms_p50", ms(ct.commitWaits, 0.5))
	out.set("shard.journal_bytes_per_shard", float64(journal)/float64(shards))
	out.set("shard.fold_us_per_shard", foldNs/float64(len(ct.folds))/1e3)
	out.set("shard.commit_ratio", float64(committed)/float64(dispatched))
	out.set("shard.retried", float64(retried))
	out.set("shard.peak_live_envelopes", float64(peakLive))
	out.set("shard.endpoint_busy_frac", execNs/1e9/(campaignEndpoints*tracedWall))
	out.set("shard.device_us_per_sample", float64(w.clock.ns())/float64(samples)/1e3)
	out.set("obs.trace_overhead_frac", tracedWall/plainWall-1)
}

// sameCampaignPath checks that the traced campaigns did the untraced
// ones' work: the same commits, journal appends and dispatches, and the
// program's own journal counter agreeing with the coordinator's stats.
func sameCampaignPath(plain, traced []campaignRun) error {
	if len(plain) != len(traced) {
		return fmt.Errorf("traced pass ran %d campaigns, untraced %d", len(traced), len(plain))
	}
	for i := range plain {
		a, b := plain[i].stats, traced[i].stats
		if a.Committed != b.Committed || a.JournalCommits != b.JournalCommits || a.Dispatched != b.Dispatched ||
			plain[i].report.Attempted != traced[i].report.Attempted {
			return fmt.Errorf("campaign %d: traced committed/journal/dispatched/samples %d/%d/%d/%d, untraced %d/%d/%d/%d",
				i, b.Committed, b.JournalCommits, b.Dispatched, traced[i].report.Attempted,
				a.Committed, a.JournalCommits, a.Dispatched, plain[i].report.Attempted)
		}
		if traced[i].registryJournalCommits != b.JournalCommits {
			return fmt.Errorf("campaign %d: shard metrics counted %d journal commits, stats %d",
				i, traced[i].registryJournalCommits, b.JournalCommits)
		}
	}
	return nil
}
