// Command perfbench is the repository benchmark: it drives the paper
// reproduction through the public functions of its modules, checks the
// outputs, and prints every metric by name with its unit.
//
//	perfbench --workload repro|mc_units|shard_campaign --seed N --seconds S --trace 0|1
//	perfbench --compare BASE HEAD
//	perfbench --workload W --write-ref
//
// With --trace 0 the last line of standard output carries the end-to-end
// metrics of BENCHMARK.json; with --trace 1 it carries the per-layer
// metrics of one traced run. The line before it is the run fingerprint.
// See README.md in this directory for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// defaultSeed is the seed the committed reference values were made with
// (the reproduction's own default seed).
const defaultSeed = 20130318

// options is one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // repository root; outputs go under root/.bench_build
}

// outDir is where a run writes its files (traces, journals).
func (o options) outDir() string { return filepath.Join(o.root, ".bench_build", "perfbench") }

// traceFile is where a traced run writes its Chrome trace-event file.
func (o options) traceFile() string {
	return filepath.Join(o.outDir(), fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed))
}

// outcome is what a workload reports: sample accounting, the correctness
// verdict, and the metrics it measured, keyed by name.
type outcome struct {
	attempted, failed int
	checkErr          error
	values            map[string]float64
}

// set records one metric value.
func (o *outcome) set(name string, v float64) {
	if o.values == nil {
		o.values = make(map[string]float64)
	}
	o.values[name] = v
}

// metricOut is one metric of the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

var workloads = map[string]func(options) (*outcome, error){
	"repro":          runRepro,
	"mc_units":       runMCUnits,
	"shard_campaign": runCampaign,
}

func main() {
	var o options
	var traceN int
	var compare, writeRef bool
	flag.StringVar(&o.workload, "workload", "", "workload: repro, mc_units or shard_campaign")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 30, "measured time of the run")
	flag.IntVar(&traceN, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&o.root, "root", ".", "repository root")
	flag.BoolVar(&compare, "compare", false, "compare two result sets given as arguments: BASE HEAD")
	flag.BoolVar(&writeRef, "write-ref", false, "regenerate the workload's reference file under perfbench/ref at the default seed")
	flag.Parse()
	o.trace = traceN != 0

	if compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("--compare needs two result sets: BASE HEAD"))
		}
		ok, err := runCompare(os.Stdout, filepath.Join(o.root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if writeRef {
		if err := writeReference(o); err != nil {
			fatal(err)
		}
		return
	}
	run, ok := workloads[o.workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (want repro, mc_units or shard_campaign)", o.workload))
	}
	if o.seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}
	if err := os.MkdirAll(o.outDir(), 0o755); err != nil {
		fatal(err)
	}
	fp := newFingerprint(o)
	fpLine, err := json.Marshal(fp)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(fpLine))

	out, err := run(o)
	if err != nil {
		out = &outcome{checkErr: err} // reported as failed, never as a number
	}
	line := resultLine{Correct: out.checkErr == nil, Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]metricOut{}}
	if out.checkErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: run failed: %v\n", o.workload, out.checkErr)
	} else {
		defs := endToEnd
		if o.trace {
			defs = perLayer
		}
		for _, d := range defs {
			v, ok := out.values[d.name]
			if !ok && (d.owner == "" || d.owner == o.workload) {
				fatal(fmt.Errorf("%s: metric %s was not measured", o.workload, d.name))
			}
			// A metric of another workload's layer reads 0: that layer does
			// no work here.
			line.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		}
	}
	if line.Attempted < 1 { // a run that stopped before its first sample
		line.Attempted, line.Failed, line.Correct = 1, 1, false
	}
	blob, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(blob))
	if !line.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
