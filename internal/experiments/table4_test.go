package experiments

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"vstat/internal/core"
	"vstat/internal/measure"
	"vstat/internal/obs"
)

// TestTable4RunnersWorkerInvariant: the runners behind Table IV's DFF and
// SRAM columns — Fig. 8's register setup search and Fig. 9's READ+HOLD
// SNM — return the same samples bit for bit at 1 and 2 workers, for both
// models.
func TestTable4RunnersWorkerInvariant(t *testing.T) {
	models := []struct {
		name string
		m    core.StatModel
	}{{"vs", core.DefaultStatVS()}, {"golden", core.DefaultStatGolden()}}
	for _, md := range models {
		var setup, read, hold [2][]float64
		for wi, workers := range []int{1, 2} {
			cfg := Config{Workers: workers, Vdd: poolTestVdd}
			var err error
			if setup[wi], _, err = pooledRegisterMC(cfg, "setup-test", 3, 31, md.m, measure.SetupTime, nil); err != nil {
				t.Fatalf("%s setup, %d workers: %v", md.name, workers, err)
			}
			if read[wi], hold[wi], _, err = pooledSNMMC(cfg, "snm-test", 6, 32, md.m, nil); err != nil {
				t.Fatalf("%s SNM, %d workers: %v", md.name, workers, err)
			}
		}
		for _, c := range []struct {
			what string
			got  [2][]float64
			n    int
		}{{"setup time", setup, 3}, {"read SNM", read, 6}, {"hold SNM", hold, 6}} {
			if len(c.got[0]) != c.n || len(c.got[1]) != c.n {
				t.Fatalf("%s %s: %d and %d samples, want %d", md.name, c.what, len(c.got[0]), len(c.got[1]), c.n)
			}
			for i := range c.got[0] {
				if c.got[0][i] != c.got[1][i] {
					t.Fatalf("%s %s sample %d: %.17g at 1 worker, %.17g at 2",
						md.name, c.what, i, c.got[0][i], c.got[1][i])
				}
			}
		}
	}
}

// table4Suite copies the shared test suite at scale 0.02, where every
// circuit run sits at the 50-sample floor, with a ledger of its own. A
// non-nil reg attaches the Monte Carlo instrumentation, counting there.
func table4Suite(t *testing.T, reg *obs.Registry) *Suite {
	t.Helper()
	s := *testSuite(t)
	s.Cfg.Scale = 0.02
	s.Cfg.ledger = new(costLedger)
	if reg != nil {
		enableObs(t)
		s.instr = NewMCInstr(reg)
		s.Cfg.instr = s.instr
	}
	return &s
}

// checkRowsMatchLedger asserts every Table IV column reports exactly its
// figure run's ledger entry, and every sample of both runs was attempted.
func checkRowsMatchLedger(t *testing.T, s *Suite, r Table4Result) {
	t.Helper()
	if len(r.Rows) != len(table4Cells) {
		t.Fatalf("%d rows, want %d", len(r.Rows), len(table4Cells))
	}
	for i, row := range r.Rows {
		for _, col := range []struct {
			model string
			wall  time.Duration
			bytes uint64
		}{{"vs", row.VSTime, row.VSBytes}, {"golden", row.GoldenTime, row.GoldenBytes}} {
			e, ok := s.Cfg.freshCost(table4Cells[i].mc(s.Cfg, col.model))
			if !ok {
				t.Fatalf("%s %s: no valid ledger entry", row.Cell, col.model)
			}
			if col.wall != e.Wall || col.bytes != e.Bytes || e.Wall <= 0 {
				t.Fatalf("%s %s: row reports %v / %d B, ledger holds %v / %d B",
					row.Cell, col.model, col.wall, col.bytes, e.Wall, e.Bytes)
			}
		}
		if row.Health.Attempted != 2*row.Samples {
			t.Fatalf("%s: %d samples attempted, want %d", row.Cell, row.Health.Attempted, 2*row.Samples)
		}
	}
}

// TestTable4ReadsFigureRuns: after Fig. 7, 8 and 9 ran on a suite, Table
// IV starts no Monte Carlo sample and reports the figures' own run costs.
func TestTable4ReadsFigureRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("figure Monte Carlo in -short mode")
	}
	reg := obs.NewRegistry()
	s := table4Suite(t, reg)
	if _, err := s.Fig7(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fig8(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fig9(); err != nil {
		t.Fatal(err)
	}
	before := reg.Snapshot()
	if before.FindCounter("mc_samples_total") == 0 || before.FindCounter(modelEvalsName) == 0 {
		t.Fatal("the figures counted no samples or model evaluations")
	}
	r, err := s.Table4()
	if err != nil {
		t.Fatal(err)
	}
	after := reg.Snapshot()
	for _, c := range []string{"mc_samples_total", modelEvalsName} {
		if b, a := before.FindCounter(c), after.FindCounter(c); a != b {
			t.Fatalf("Table IV moved %s from %d to %d", c, b, a)
		}
	}
	checkRowsMatchLedger(t, s, r)
}

// TestTable4FallbackRunsEachSliceOnce: on a suite whose figures have not
// run, Table IV runs each figure slice it reads exactly once, and a second
// Table IV reads those runs instead of repeating them.
func TestTable4FallbackRunsEachSliceOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("Table IV Monte Carlo in -short mode")
	}
	reg := obs.NewRegistry()
	s := table4Suite(t, reg)
	r, err := s.Table4()
	if err != nil {
		t.Fatal(err)
	}
	checkRowsMatchLedger(t, s, r)
	var want int64
	for _, row := range r.Rows {
		want += int64(2 * row.Samples)
	}
	if got := reg.Snapshot().FindCounter("mc_samples_total"); got != want {
		t.Fatalf("fallback ran %d samples, want %d (each slice once)", got, want)
	}
	if len(s.Cfg.ledger.runs) != 2*len(table4Cells) {
		t.Fatalf("ledger holds %d runs, want %d", len(s.Cfg.ledger.runs), 2*len(table4Cells))
	}
	if _, err := s.Table4(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().FindCounter("mc_samples_total"); got != want {
		t.Fatalf("second Table IV ran %d more samples, want 0", got-want)
	}
}

// TestTable4RefusesForeignScaleOrSeed: a ledger entry written under
// another scale or seed is not the run the figure would make now, so
// Table IV re-runs that slice. Copies of the shared test suite share one
// ledger across scales, so this happens in the test suite itself.
func TestTable4RefusesForeignScaleOrSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("figure Monte Carlo in -short mode")
	}
	s := table4Suite(t, nil)
	if _, err := s.Fig8(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Cfg.freshCost(s.Cfg.fig8MC("vs")); !ok {
		t.Fatal("Fig. 8's own entry refused under its own config")
	}
	scaled, seeded := s.Cfg, s.Cfg
	scaled.Scale = 0.03 // still the 50-sample floor: only the config hash differs
	seeded.Seed++
	for _, c := range []struct {
		what string
		cfg  Config
	}{{"scale", scaled}, {"seed", seeded}} {
		if _, ok := c.cfg.freshCost(c.cfg.fig8MC("vs")); ok {
			t.Fatalf("entry written at another %s accepted", c.what)
		}
	}
	old := s.Cfg.ledger.runs["fig8-vs"]
	s.Cfg.Scale = scaled.Scale
	r, err := s.Table4()
	if err != nil {
		t.Fatal(err)
	}
	checkRowsMatchLedger(t, s, r)
	if e := s.Cfg.ledger.runs["fig8-vs"]; e.Hash == old.Hash {
		t.Fatal("Table IV kept the entry written at the old scale")
	}
}

// TestTable4NeverRestores: a column must cost every sample of its run, so
// Table IV refuses a figure run that restored samples from a checkpoint
// and re-runs that slice fresh, and it neither writes nor restores
// checkpoints itself even when the suite is configured to resume.
func TestTable4NeverRestores(t *testing.T) {
	if testing.Short() {
		t.Skip("runtime benches in -short mode")
	}
	ts := table4Suite(t, nil)
	dir := t.TempDir()
	ts.Cfg.CheckpointDir = dir
	ts.Cfg.Resume = true
	// The second Fig. 8 restores every sample the first one checkpointed.
	for run := 0; run < 2; run++ {
		if _, err := ts.Fig8(); err != nil {
			t.Fatalf("fig8 run %d: %v", run, err)
		}
	}
	for _, model := range []string{"vs", "golden"} {
		if e := ts.Cfg.ledger.runs["fig8-"+model]; !e.Restored {
			t.Fatalf("resumed fig8-%s not marked restored", model)
		}
	}
	files := func() map[string]time.Time {
		t.Helper()
		out := map[string]time.Time{}
		names, err := filepath.Glob(filepath.Join(dir, "*"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			fi, err := os.Stat(name)
			if err != nil {
				t.Fatal(err)
			}
			out[name] = fi.ModTime()
		}
		return out
	}
	ckpts := files()
	for run := 0; run < 2; run++ {
		r, err := ts.Table4()
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		checkRowsMatchLedger(t, ts, r)
		for _, model := range []string{"vs", "golden"} {
			if e := ts.Cfg.ledger.runs["fig8-"+model]; e.Restored {
				t.Fatalf("run %d: DFF %s column reads a restored run", run, model)
			}
		}
		now := files()
		if len(now) != len(ckpts) {
			t.Fatalf("run %d: checkpoint dir holds %d files, had %d", run, len(now), len(ckpts))
		}
		for name, mod := range ckpts {
			if !now[name].Equal(mod) {
				t.Fatalf("run %d rewrote %s", run, name)
			}
		}
	}
}
