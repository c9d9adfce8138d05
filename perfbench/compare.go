package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// A result set is one or more captured standard outputs of benchmark runs,
// concatenated in a file: each run's fingerprint line followed, at the end
// of that run's output, by its result line. The compare mode groups runs
// by workload and mode (traced or not) and compares the two sets metric by
// metric.

// benchSpec is the slice of BENCHMARK.json the compare mode reads.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runRecord is one parsed run.
type runRecord struct {
	fp  fingerprint
	res resultLine
}

// groupKey identifies the runs that are compared together.
type groupKey struct {
	workload string
	trace    bool
}

func readResultSet(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []runRecord
	var cur *fingerprint
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var probe map[string]json.RawMessage
		if json.Unmarshal([]byte(line), &probe) != nil {
			continue
		}
		switch {
		case probe["fingerprint"] != nil:
			var fp fingerprint
			if err := json.Unmarshal([]byte(line), &fp); err != nil {
				return nil, fmt.Errorf("%s: fingerprint: %w", path, err)
			}
			cur = &fp
		case probe["correct"] != nil:
			if cur == nil {
				return nil, fmt.Errorf("%s: result line without a fingerprint before it", path)
			}
			var res resultLine
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				return nil, fmt.Errorf("%s: result: %w", path, err)
			}
			runs = append(runs, runRecord{fp: *cur, res: res})
			cur = nil
		}
	}
	return runs, sc.Err()
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) computes them (its default
// "exclusive" method); a single value is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// runCompare prints, for every workload and metric, each set's median and
// quartiles and a verdict. It reports false when a bounded metric got
// worse by more than its bound, or when the sets come from different
// machines (such results are never compared).
func runCompare(w io.Writer, specPath, basePath, headPath string) (bool, error) {
	blob, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var spec benchSpec
	if err := json.Unmarshal(blob, &spec); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	base, err := readResultSet(basePath)
	if err != nil {
		return false, err
	}
	head, err := readResultSet(headPath)
	if err != nil {
		return false, err
	}
	machines := map[string]bool{}
	for _, r := range append(append([]runRecord(nil), base...), head...) {
		machines[r.fp.machine()] = true
	}
	if len(machines) > 1 {
		fmt.Fprintln(w, "refusing to compare: the results come from different machines:")
		for _, m := range sortedKeys(machines) {
			fmt.Fprintln(w, "  "+m)
		}
		return false, nil
	}
	group := func(runs []runRecord) map[groupKey][]runRecord {
		g := map[groupKey][]runRecord{}
		for _, r := range runs {
			if r.res.Correct {
				k := groupKey{r.fp.Workload, r.fp.Trace}
				g[k] = append(g[k], r)
			}
		}
		return g
	}
	bg, hg := group(base), group(head)
	var keys []groupKey
	for k := range bg {
		if _, ok := hg[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return !keys[i].trace && keys[j].trace
	})
	if len(keys) == 0 {
		return false, fmt.Errorf("no workload has correct runs in both sets")
	}
	ok := true
	for _, k := range keys {
		metrics := spec.EndToEnd
		mode := "end-to-end"
		if k.trace {
			metrics, mode = spec.PerLayer, "per-layer (traced)"
		}
		fmt.Fprintf(w, "\n== %s, %s: %d base runs, %d head runs\n", k.workload, mode, len(bg[k]), len(hg[k]))
		fmt.Fprintf(w, "%-36s %-6s %28s %28s %9s  %s\n", "metric", "unit", "base median [q1, q3]", "head median [q1, q3]", "change", "verdict")
		for _, m := range metrics {
			bv, hv := values(bg[k], m.Name), values(hg[k], m.Name)
			if len(bv) == 0 || len(hv) == 0 {
				continue
			}
			won, pairs := pairWins(m, bg[k], hg[k])
			v := judge(m, bv, hv, won, pairs)
			if v == "REGRESSION" {
				ok = false
			}
			b1, bm, b3 := quartiles(bv)
			h1, hm, h3 := quartiles(hv)
			fmt.Fprintf(w, "%-36s %-6s %28s %28s %+8.1f%%  %s\n", m.Name, m.Unit,
				fmt.Sprintf("%.4g [%.4g, %.4g]", bm, b1, b3), fmt.Sprintf("%.4g [%.4g, %.4g]", hm, h1, h3),
				100*relChange(bm, hm), v)
		}
	}
	return ok, nil
}

func values(runs []runRecord, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		if m, ok := r.res.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// pairWins pairs base and head runs by seed (the first run of each seed on
// each side) and counts the pairs and those the head wins outright.
func pairWins(m specMetric, base, head []runRecord) (won, pairs int) {
	first := map[int64]float64{}
	for _, r := range base {
		if v, ok := r.res.Metrics[m.Name]; ok {
			if _, seen := first[r.fp.Seed]; !seen {
				first[r.fp.Seed] = v.Value
			}
		}
	}
	for _, r := range head {
		b, ok := first[r.fp.Seed]
		v, ok2 := r.res.Metrics[m.Name]
		if !ok || !ok2 {
			continue
		}
		delete(first, r.fp.Seed)
		pairs++
		if m.Better == "higher" && v.Value > b || m.Better != "higher" && v.Value < b {
			won++
		}
	}
	return won, pairs
}

func relChange(base, head float64) float64 {
	if base == 0 {
		if head == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (head - base) / math.Abs(base)
}

// judge gives a metric's verdict. Without a bound (per-layer metrics) it
// only says whether the medians moved. With one: "unresolved" when either
// set's quartile spread exceeds the bound, unless every head run beats
// (or loses to) every base run; "REGRESSION" when the head median is worse
// by more than the bound; "better" when the head wins at least nine tenths
// of the seed-paired runs and its median is better by more than the
// base's own spread; otherwise "unchanged".
func judge(m specMetric, base, head []float64, won, pairs int) string {
	b1, bm, b3 := quartiles(base)
	h1, hm, h3 := quartiles(head)
	if m.Bound == 0 {
		if bm == hm {
			return "same"
		}
		return "moved"
	}
	sign := 1.0 // positive = worse
	if m.Better == "higher" {
		sign = -1
	}
	worse := sign * relChange(bm, hm)
	spread := math.Max(math.Abs(b3-b1)/math.Abs(bm), math.Abs(h3-h1)/math.Abs(hm))
	if spread > m.Bound {
		switch {
		case allBeyond(head, base, -sign):
			return "better (all runs)"
		case allBeyond(head, base, sign):
			return "REGRESSION"
		}
		return "unresolved"
	}
	switch {
	case worse > m.Bound:
		return "REGRESSION"
	case -worse > math.Abs(b3-b1)/math.Abs(bm) && pairs > 0 && 10*won >= 9*pairs:
		return "better"
	}
	return "unchanged"
}

// allBeyond reports whether every head value is above (dir = +1) or below
// (dir = -1) every base value.
func allBeyond(head, base []float64, dir float64) bool {
	for _, h := range head {
		for _, b := range base {
			if dir*(h-b) <= 0 {
				return false
			}
		}
	}
	return true
}
