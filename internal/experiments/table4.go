package experiments

import (
	"fmt"
	"strings"
	"time"
)

// Table4Row is one benchmark row of paper Table IV. The times and byte
// counts are the totals of the figure run each column reads; the paper's
// figures are its totals for its own sample count.
type Table4Row struct {
	Cell                 string
	Run                  string // the figure runs the columns read
	Samples              int
	VSTime, GoldenTime   time.Duration
	VSBytes, GoldenBytes uint64 // total heap allocated during the run
	Speedup              float64
	MemRatio             float64
	Health               Health // both columns' run reports, merged

	PaperSamples           int
	PaperGoldenS, PaperVSS float64 // BSIM4 C code and VS Verilog-A, seconds
}

// Table4Result is paper Table IV: Monte Carlo runtime and memory of the VS
// model versus the golden model on the same engine. The paper compares
// Verilog-A VS against hand-optimized BSIM4 C code and still sees 4.2×; our
// two models share one implementation language and engine, so the measured
// ratio isolates the pure model-evaluation cost.
type Table4Result struct {
	Rows []Table4Row
}

// table4Cells are the rows of Table IV: the figure run each reads, the
// runner that makes it, and the paper's numbers.
var table4Cells = []struct {
	cell, run              string
	paperN                 int
	paperGoldenS, paperVSS float64
	mc                     func(c Config, model string) mcRun
	rerun                  func(s *Suite, cfg Config, model string) error
}{
	{"NAND2", "fig7 0.9 V", 2000, 855, 225,
		func(c Config, model string) mcRun { return c.fig7MC(0, model) },
		func(s *Suite, cfg Config, model string) error { _, _, err := s.runFig7Slice(cfg, 0, model); return err }},
	{"DFF", "fig8 setup", 250, 13.5e3, 3.86e3,
		Config.fig8MC,
		func(s *Suite, cfg Config, model string) error { _, _, err := s.runFig8(cfg, model); return err }},
	{"SRAM", "fig9 R+H", 2000, 2.15e3, 405,
		Config.fig9MC,
		func(s *Suite, cfg Config, model string) error { _, _, _, err := s.runFig9(cfg, model); return err }},
}

// Table4 reports what the Monte Carlo runs behind the circuit figures cost
// for both models: NAND2 is Fig. 7's 0.9 V slice, DFF is Fig. 8's setup
// search, SRAM is Fig. 9's READ+HOLD SNM. It reads each run's wall time
// and allocation from the suite's ledger, where runPooledMC recorded them,
// and accepts an entry only if the run is the one the figure would make
// under the current Cfg (same samples, seed, config hash and parallelism)
// and restored no sample from a checkpoint or shard journal, which would
// make a column look fast. A missing or refused entry (Table IV run alone,
// a resumed figure, a changed scale) makes Table4 call that figure's
// runner for that run only, with checkpoints and journals off. Both
// columns run the same engine at the same worker count, so the ratio is a
// same-engine comparison.
func (s *Suite) Table4() (Table4Result, error) {
	var res Table4Result
	cfg := s.Cfg
	cfg.CheckpointDir, cfg.Resume, cfg.ShardJournalDir = "", false, ""
	if cfg.ledger == nil {
		cfg.ledger = new(costLedger)
	}
	for _, c := range table4Cells {
		row := Table4Row{Cell: c.cell, Run: c.run,
			PaperSamples: c.paperN, PaperGoldenS: c.paperGoldenS, PaperVSS: c.paperVSS}
		var cost [2]runCost
		for i, model := range []string{"vs", "golden"} {
			r := c.mc(cfg, model)
			e, ok := cfg.freshCost(r)
			if !ok {
				if err := c.rerun(s, cfg, model); err != nil {
					return res, fmt.Errorf("table4 %s %s: %w", c.cell, model, err)
				}
				if e, ok = cfg.freshCost(r); !ok {
					return res, fmt.Errorf("table4 %s %s: run %s left no ledger entry", c.cell, model, r.name)
				}
			}
			cost[i] = e
			row.Samples = r.n
			row.Health.Merge(e.Report)
		}
		row.VSTime, row.VSBytes = cost[0].Wall, cost[0].Bytes
		row.GoldenTime, row.GoldenBytes = cost[1].Wall, cost[1].Bytes
		row.Speedup = float64(row.GoldenTime) / float64(row.VSTime)
		if row.VSBytes > 0 {
			row.MemRatio = float64(row.GoldenBytes) / float64(row.VSBytes)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String renders the per-sample cost table next to the paper's totals.
func (r Table4Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table IV: Monte Carlo cost per sample, VS vs golden (same engine, the figures' runs)\n")
	fmt.Fprintf(&b, "%-6s %-11s %7s %12s %12s %8s %11s %11s %8s   %s\n",
		"cell", "run", "samples", "VS us/smp", "gold us/smp", "speedup",
		"VS kB/smp", "gold kB/smp", "memratio", "paper: N, BSIM4 -> VS total")
	for _, row := range r.Rows {
		n := float64(row.Samples)
		fmt.Fprintf(&b, "%-6s %-11s %7d %12.0f %12.0f %7.2fx %11.1f %11.1f %7.2fx   %d, %.0f s -> %.0f s (%.1fx)\n",
			row.Cell, row.Run, row.Samples,
			float64(row.VSTime.Microseconds())/n, float64(row.GoldenTime.Microseconds())/n, row.Speedup,
			float64(row.VSBytes)/1e3/n, float64(row.GoldenBytes)/1e3/n, row.MemRatio,
			row.PaperSamples, row.PaperGoldenS, row.PaperVSS, row.PaperGoldenS/row.PaperVSS)
		b.WriteString(healthLine(row.Health))
	}
	fmt.Fprintf(&b, "  (paper: 4.2x speedup, 8.7x memory for Verilog-A VS vs BSIM4 C code)\n")
	return b.String()
}
