package experiments

import (
	"path/filepath"
	"testing"

	"vstat/internal/core"
	"vstat/internal/measure"
)

// TestTable4RunnersWorkerInvariant: the runners Table IV shares with the
// figures — the register setup search and the HOLD-only SNM — return the
// same samples bit for bit at 1 and 2 workers, for both models.
func TestTable4RunnersWorkerInvariant(t *testing.T) {
	models := []struct {
		name string
		m    core.StatModel
	}{{"vs", core.DefaultStatVS()}, {"golden", core.DefaultStatGolden()}}
	for _, md := range models {
		var setup, hold [2][]float64
		for wi, workers := range []int{1, 2} {
			cfg := Config{Workers: workers, Vdd: poolTestVdd}
			var err error
			if setup[wi], _, err = pooledRegisterMC(cfg, "setup-test", 3, 31, md.m, measure.SetupTime, nil); err != nil {
				t.Fatalf("%s setup, %d workers: %v", md.name, workers, err)
			}
			if _, hold[wi], _, err = pooledSNMMC(cfg, "hold-snm-test", 6, 32, md.m, false, nil); err != nil {
				t.Fatalf("%s hold SNM, %d workers: %v", md.name, workers, err)
			}
		}
		for _, c := range []struct {
			what string
			got  [2][]float64
			n    int
		}{{"setup time", setup, 3}, {"hold SNM", hold, 6}} {
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

// TestTable4NeverRestores: a timed column must run every sample, so Table
// IV neither writes nor restores checkpoints even when the suite is
// configured to resume from them.
func TestTable4NeverRestores(t *testing.T) {
	if testing.Short() {
		t.Skip("runtime benches in -short mode")
	}
	ts := *testSuite(t)
	dir := t.TempDir()
	ts.Cfg.Scale = 0.02
	ts.Cfg.CheckpointDir = dir
	ts.Cfg.Resume = true
	for run := 0; run < 2; run++ {
		r, err := ts.Table4()
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		for _, row := range r.Rows {
			if row.VSTime <= 0 || row.GoldenTime <= 0 {
				t.Fatalf("run %d %s: column times %v / %v", run, row.Cell, row.VSTime, row.GoldenTime)
			}
			if row.Health.Attempted != 2*row.Samples {
				t.Fatalf("run %d %s: %d samples attempted, want %d", run, row.Cell, row.Health.Attempted, 2*row.Samples)
			}
		}
		files, err := filepath.Glob(filepath.Join(dir, "table4-*"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != 0 {
			t.Fatalf("run %d wrote %v", run, files)
		}
	}
}
