package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"vstat/internal/circuits"
	"vstat/internal/core"
	"vstat/internal/measure"
)

// Table4Row is one benchmark row of paper Table IV.
type Table4Row struct {
	Cell                 string
	Samples              int
	VSTime, GoldenTime   time.Duration
	VSBytes, GoldenBytes uint64 // total heap allocated during the run
	Speedup              float64
	MemRatio             float64
	Health               Health // both columns' run reports, merged
}

// Table4Result is paper Table IV: Monte Carlo runtime and memory of the VS
// model versus the golden model on the same engine. The paper compares
// Verilog-A VS against hand-optimized BSIM4 C code and still sees 4.2×; our
// two models share one implementation language and engine, so the measured
// ratio isolates the pure model-evaluation cost.
type Table4Result struct {
	Rows []Table4Row
}

// Table4 times the three Monte Carlo workloads for both models. Each
// column is one run of the pooled engine the figures use (Fig. 7's NAND2
// delay, Fig. 8's setup search, Fig. 9's HOLD SNM), at Cfg.Workers, with
// the same draws for both models; since both columns run the same engine
// at the same worker count, the ratio is still a same-engine comparison.
// The columns run one after another, so each one's allocation count is
// its own. They never restore a checkpoint or shard journal, which would
// make a column look fast.
func (s *Suite) Table4() (Table4Result, error) {
	var res Table4Result
	cfg := s.Cfg
	cfg.CheckpointDir, cfg.Resume, cfg.ShardJournalDir = "", false, ""
	sz := circuits.Sizing{WP: 600e-9, WN: 300e-9, L: 40e-9}
	workloads := []struct {
		name  string
		paper int // the paper's sample count
		run   func(m core.StatModel, name string, n int, seed int64) (Health, error)
	}{
		{"NAND2", 2000, func(m core.StatModel, name string, n int, seed int64) (Health, error) {
			_, rep, err := pooledDelayMC(cfg, name, n, seed, m, cfg.Vdd, pooledNand2FO3(cfg.Vdd, sz), s.instr)
			return rep, err
		}},
		{"DFF", 250, func(m core.StatModel, name string, n int, seed int64) (Health, error) {
			_, rep, err := pooledRegisterMC(cfg, name, n, seed, m, measure.SetupTime, s.instr)
			return rep, err
		}},
		{"SRAM", 2000, func(m core.StatModel, name string, n int, seed int64) (Health, error) {
			_, _, rep, err := pooledSNMMC(cfg, name, n, seed, m, false, s.instr)
			return rep, err
		}},
	}
	for wi, w := range workloads {
		n := cfg.samples(w.paper)
		seed := cfg.Seed + int64(400+wi)
		row := Table4Row{Cell: w.name, Samples: n}
		column := func(m core.StatModel, model string) (time.Duration, uint64, error) {
			return timed(func() error {
				rep, err := w.run(m, "table4-"+strings.ToLower(w.name)+"-"+model, n, seed)
				row.Health.Merge(rep)
				return err
			})
		}
		var err error
		if row.VSTime, row.VSBytes, err = column(s.VS, "vs"); err != nil {
			return res, fmt.Errorf("table4 %s VS: %w", w.name, err)
		}
		if row.GoldenTime, row.GoldenBytes, err = column(s.Golden, "golden"); err != nil {
			return res, fmt.Errorf("table4 %s golden: %w", w.name, err)
		}
		row.Speedup = float64(row.GoldenTime) / float64(row.VSTime)
		if row.VSBytes > 0 {
			row.MemRatio = float64(row.GoldenBytes) / float64(row.VSBytes)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// timed runs fn and reports wall time and heap bytes allocated.
func timed(fn func() error) (time.Duration, uint64, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err := fn()
	dt := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return dt, m1.TotalAlloc - m0.TotalAlloc, err
}

// String renders the runtime/memory table.
func (r Table4Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table IV: Monte Carlo runtime and allocation, VS vs golden (same engine)\n")
	fmt.Fprintf(&b, "%-8s %8s %12s %12s %9s %12s %12s %9s\n",
		"cell", "samples", "VS time", "golden time", "speedup", "VS alloc", "golden alloc", "memratio")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8s %8d %12s %12s %8.2fx %9.1f MB %9.1f MB %8.2fx\n",
			row.Cell, row.Samples,
			row.VSTime.Round(time.Millisecond), row.GoldenTime.Round(time.Millisecond),
			row.Speedup,
			float64(row.VSBytes)/1e6, float64(row.GoldenBytes)/1e6, row.MemRatio)
		b.WriteString(healthLine(row.Health))
	}
	fmt.Fprintf(&b, "  (paper: 4.2x speedup, 8.7x memory for Verilog-A VS vs BSIM4 C code)\n")
	return b.String()
}
