package experiments

import (
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"vstat/internal/circuits"
	"vstat/internal/core"
	"vstat/internal/montecarlo"
	"vstat/internal/obs"
	"vstat/internal/shard"
)

// TestShardedRunMatchesLocal pins the Monte Carlo determinism contract on
// a real INV FO3 delay MC: pooled runs at any worker count and runs routed
// through the shard coordinator (Config.ShardSize, shard widths that do not
// divide n, several endpoint counts) are bit-identical to the one-worker
// pooled run — values, failure count, report — and a sharded run's counters
// land in the obs registry.
func TestShardedRunMatchesLocal(t *testing.T) {
	m := core.DefaultStatVS()
	const n = 24
	const seed = int64(777)

	ref, refRep, err := runPooledMC[*circuits.PooledGate, float64](
		Config{Workers: 1, Policy: montecarlo.SkipUpTo(1.0)},
		"shard-ref", n, seed, invBench(m), invDelay(m))
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name                       string
		workers, shardSize, shardN int
	}{
		{"local/workers=2", 2, 0, 0},
		{"local/workers=4", 4, 0, 0},
		{"sharded/7x2", 2, 7, 2}, // 7 deliberately not a divisor of 24
		{"sharded/7x3", 2, 7, 3},
		{"sharded/5x2", 2, 5, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			cfg := Config{
				Workers:        tc.workers,
				Policy:         montecarlo.SkipUpTo(1.0),
				ShardSize:      tc.shardSize,
				ShardEndpoints: tc.shardN,
				shardMetrics:   shard.NewMetrics(reg),
			}
			got, gotRep, err := runPooledMC[*circuits.PooledGate, float64](
				cfg, "shard-run", n, seed, invBench(m), invDelay(m))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(ref) {
				t.Fatalf("run produced %d samples, reference %d", len(got), len(ref))
			}
			for i := range ref {
				if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
					t.Fatalf("sample %d: %.17g, reference %.17g", i, got[i], ref[i])
				}
			}
			if gotRep.Attempted != refRep.Attempted || gotRep.Failed != refRep.Failed {
				t.Fatalf("report %s, reference %s", gotRep.String(), refRep.String())
			}
			for k, v := range refRep.Rescued {
				if gotRep.Rescued[k] != v {
					t.Fatalf("rescued[%s] = %d, reference %d", k, gotRep.Rescued[k], v)
				}
			}
			if tc.shardSize == 0 {
				return
			}
			var dispatched, committed int64
			for _, c := range reg.Snapshot().Counters {
				switch c.Name {
				case "shard_dispatched_total":
					dispatched = c.Value
				case "shard_committed_total":
					committed = c.Value
				}
			}
			wantShards := int64((n + tc.shardSize - 1) / tc.shardSize)
			if committed != wantShards || dispatched < wantShards {
				t.Fatalf("shard counters: dispatched=%d committed=%d, want %d shards", dispatched, committed, wantShards)
			}
		})
	}
}

// TestShardedRunJournalResume pins the suite-level dispatch journal: a
// journaled sharded run followed by a Resume run with the same
// ShardJournalDir must restore every shard — zero sample re-executed —
// and still hand back bit-identical results and report.
func TestShardedRunJournalResume(t *testing.T) {
	m := core.DefaultStatVS()
	const n = 24
	const seed = int64(777)
	dir := t.TempDir()
	cfg := Config{
		Workers:         2,
		Policy:          montecarlo.SkipUpTo(1.0),
		ShardSize:       7,
		ShardEndpoints:  2,
		ShardJournalDir: dir,
	}
	ref, refRep, err := runPooledMC[*circuits.PooledGate, float64](
		cfg, "journal-run", n, seed, invBench(m), invDelay(m))
	if err != nil {
		t.Fatal(err)
	}

	cfg.Resume = true
	var reran atomic.Int64
	base := invDelay(m)
	got, gotRep, err := runPooledMC[*circuits.PooledGate, float64](
		cfg, "journal-run", n, seed, invBench(m),
		func(b *circuits.PooledGate, idx int, rng *rand.Rand) (float64, error) {
			reran.Add(1)
			return base(b, idx, rng)
		})
	if err != nil {
		t.Fatal(err)
	}
	if reran.Load() != 0 {
		t.Fatalf("resume re-executed %d samples, want 0 (all shards journaled)", reran.Load())
	}
	if len(got) != len(ref) {
		t.Fatalf("resumed run produced %d samples, original %d", len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("sample %d: resumed %.17g, original %.17g", i, got[i], ref[i])
		}
	}
	if gotRep.Attempted != refRep.Attempted || gotRep.Failed != refRep.Failed {
		t.Fatalf("resumed report %s, original %s", gotRep.String(), refRep.String())
	}
}

// TestShardedRunRejectsCheckpoint pins the ShardSize/CheckpointDir
// exclusivity: shards are the retry unit, a run-level checkpoint would
// double-apply completions.
func TestShardedRunRejectsCheckpoint(t *testing.T) {
	m := core.DefaultStatVS()
	cfg := Config{ShardSize: 8, CheckpointDir: t.TempDir()}
	_, _, err := runPooledMC[*circuits.PooledGate, float64](
		cfg, "shard-ckpt", 16, 1, invBench(m), invDelay(m))
	if err == nil || !strings.Contains(err.Error(), "cannot also checkpoint") {
		t.Fatalf("sharded+checkpointed run not rejected: %v", err)
	}
}

// TestShardedRunDefaultWorkersUsesEndpoints: with Workers and
// ShardEndpoints both left at 0, a sharded run dispatches to GOMAXPROCS
// loopback endpoints — none of its shards falls back to the coordinator's
// single local loop — and still matches the unsharded run bit for bit.
func TestShardedRunDefaultWorkersUsesEndpoints(t *testing.T) {
	m := core.DefaultStatVS()
	const n = 24
	const seed = int64(777)
	ref, refRep, err := runPooledMC[*circuits.PooledGate, float64](
		Config{Workers: 1, Policy: montecarlo.SkipUpTo(1.0)},
		"shard-ref", n, seed, invBench(m), invDelay(m))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg := Config{
		Policy:       montecarlo.SkipUpTo(1.0),
		ShardSize:    7,
		shardMetrics: shard.NewMetrics(reg),
	}
	got, gotRep, err := runPooledMC[*circuits.PooledGate, float64](
		cfg, "shard-default-workers", n, seed, invBench(m), invDelay(m))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ref) {
		t.Fatalf("run produced %d samples, reference %d", len(got), len(ref))
	}
	for i := range ref {
		if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
			t.Fatalf("sample %d: %.17g, reference %.17g", i, got[i], ref[i])
		}
	}
	if gotRep.Attempted != refRep.Attempted || gotRep.Failed != refRep.Failed {
		t.Fatalf("report %s, reference %s", gotRep.String(), refRep.String())
	}
	snap := reg.Snapshot()
	if fb := snap.FindCounter("shard_local_fallback_total"); fb != 0 {
		t.Fatalf("%d shard attempts fell back to the local loop, want 0", fb)
	}
	if c := snap.FindCounter("shard_committed_total"); c != (n+6)/7 {
		t.Fatalf("%d shards committed, want %d", c, (n+6)/7)
	}
}
