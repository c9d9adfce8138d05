package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"vstat/internal/montecarlo"
)

// mcRun names one circuit Monte Carlo run: its checkpoint and ledger name,
// sample count and seed.
type mcRun struct {
	name string
	n    int
	seed int64
}

// fig7MC, fig8MC and fig9MC derive one model's ("golden" or "vs") run of
// Fig. 7 (supply slice vi), Fig. 8 and Fig. 9 from c. The figures and
// Table IV both call them, so the run Table IV looks up in the ledger is
// the run the figure made.
func (c Config) fig7MC(vi int, model string) mcRun {
	seed := c.Seed + int64(7000+100*vi)
	if model == "vs" {
		seed += 500009
	}
	return mcRun{fmt.Sprintf("fig7-%s-%d", model, vi), c.samples(2500), seed}
}

func (c Config) fig8MC(model string) mcRun {
	seed := c.Seed + 81
	if model == "vs" {
		seed++
	}
	return mcRun{"fig8-" + model, c.samples(250), seed}
}

func (c Config) fig9MC(model string) mcRun {
	seed := c.Seed + 91
	if model == "vs" {
		seed++
	}
	return mcRun{"fig9-" + model, c.samples(2500), seed}
}

// mcWorkers is the parallelism of a circuit Monte Carlo run under c: the
// shard endpoint count on the sharded path (ShardEndpoints, else Workers),
// the pooled worker count otherwise, and GOMAXPROCS when that is <= 0.
func (c Config) mcWorkers() int {
	w := c.Workers
	if c.ShardSize > 0 && c.ShardEndpoints > 0 {
		w = c.ShardEndpoints
	}
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return w
}

// runCost is what one completed circuit Monte Carlo run cost, and under
// which settings it ran.
type runCost struct {
	Wall     time.Duration
	Bytes    uint64 // heap allocated during the run (MemStats.TotalAlloc delta)
	N        int
	Seed     int64
	Hash     string // Config.configHash of the run
	Workers  int    // Config.mcWorkers of the run
	Report   montecarlo.RunReport
	Restored bool // some samples came from a checkpoint or shard journal
}

// costLedger keeps the cost of every successful circuit Monte Carlo run of
// a suite, keyed by run name; a later run of the same name replaces the
// entry. NewSuite plants one on Config, which copies share; a nil ledger
// records nothing. The allocation count is process-wide, so it is the
// run's own only while runs do not overlap, as in a suite.
type costLedger struct {
	mu   sync.Mutex
	runs map[string]runCost
}

// meter starts measuring a run and returns the function that records it
// under name; it is a no-op on a nil ledger, which also skips the
// MemStats reads.
func (l *costLedger) meter() func(name string, c runCost) {
	if l == nil {
		return func(string, runCost) {}
	}
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	return func(name string, c runCost) {
		c.Wall = time.Since(t0)
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		c.Bytes = m1.TotalAlloc - m0.TotalAlloc
		l.mu.Lock()
		defer l.mu.Unlock()
		if l.runs == nil {
			l.runs = map[string]runCost{}
		}
		l.runs[name] = c
	}
}

// freshCost returns the ledger's entry for r if it is the run c would make
// now, with every sample computed in it: same sample count, seed, config
// hash and parallelism, nothing restored.
func (c Config) freshCost(r mcRun) (runCost, bool) {
	if c.ledger == nil {
		return runCost{}, false
	}
	c.ledger.mu.Lock()
	e, ok := c.ledger.runs[r.name]
	c.ledger.mu.Unlock()
	ok = ok && e.N == r.n && e.Seed == r.seed && e.Hash == c.configHash() &&
		e.Workers == c.mcWorkers() && !e.Restored
	return e, ok
}
