package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// runCompare is the comparator: given a parent and a change result set —
// directories holding <workload>.jsonl files, one benchmark result line per
// run, runs of the two sides paired by line number — it prints one row per
// workload and metric with medians, quartiles and pair wins, and a verdict
// by the rule below. It exits 1 when any metric is worse.
//
//	better     the change wins at least 9 in 10 pairs (ties count for
//	           neither) and the medians differ by more than the parent's
//	           quartile spread; for a deterministic count, any move in the
//	           better direction
//	worse      the change's median is worse than the parent's by more than
//	           the metric's bound (per-layer metrics, which have no bound:
//	           the mirror of better)
//	unresolved the parent's quartile spread is wider than the bound and the
//	           change is neither better nor worse — unless every change run
//	           beats every parent run, which is better
//	unchanged  otherwise
func runCompare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: serfibench --compare PARENT_DIR CHANGE_DIR")
		return 2
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "serfibench: run from the repository root:", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "serfibench: BENCHMARK.json:", err)
		return 2
	}
	parent, err := loadResultSet(args[0])
	if err == nil {
		var change map[string][]map[string]float64
		change, err = loadResultSet(args[1])
		if err == nil {
			return compareSets(spec, parent, change)
		}
	}
	fmt.Fprintln(os.Stderr, "serfibench:", err)
	return 2
}

// loadResultSet reads every <workload>.jsonl in dir into per-run metric
// maps. Lines that are not result objects are skipped, so whole benchmark
// outputs can be appended as they are.
func loadResultSet(dir string) (map[string][]map[string]float64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no <workload>.jsonl result files", dir)
	}
	out := make(map[string][]map[string]float64)
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			return nil, err
		}
		workload := strings.TrimSuffix(filepath.Base(f), ".jsonl")
		sc := bufio.NewScanner(fh)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			var res struct {
				Correct *bool `json:"correct"`
				Metrics map[string]struct {
					Value float64 `json:"value"`
				} `json:"metrics"`
			}
			if json.Unmarshal(sc.Bytes(), &res) != nil || res.Correct == nil || res.Metrics == nil {
				continue
			}
			run := make(map[string]float64)
			for k, m := range res.Metrics {
				run[k] = m.Value
			}
			out[workload] = append(out[workload], run)
		}
		err = sc.Err()
		fh.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
	}
	return out, nil
}

// verdict applies the comparison rule to one metric.
func verdict(p, c []float64, higher bool, bound float64, counted bool) (v string, wins, n int) {
	better := func(a, b float64) bool { // a better than b
		if higher {
			return a > b
		}
		return a < b
	}
	n = min(len(p), len(c))
	losses := 0
	for i := 0; i < n; i++ {
		switch {
		case better(c[i], p[i]):
			wins++
		case better(p[i], c[i]):
			losses++
		}
	}
	pq1, pmed, pq3 := quartiles(p)
	_, cmed, _ := quartiles(c)
	iqr := pq3 - pq1
	diff := math.Abs(cmed - pmed)
	if counted && iqr == 0 {
		switch {
		case cmed == pmed:
			return "unchanged", wins, n
		case better(cmed, pmed):
			return "better", wins, n
		}
		return "worse", wins, n
	}
	if float64(wins) >= 0.9*float64(n) && diff > iqr && better(cmed, pmed) {
		return "better", wins, n
	}
	hasBound := !math.IsNaN(bound)
	if hasBound && better(pmed, cmed) && diff > bound*math.Abs(pmed) {
		return "worse", wins, n
	}
	if !hasBound && float64(losses) >= 0.9*float64(n) && diff > iqr && better(pmed, cmed) {
		return "worse", wins, n
	}
	spreadBound := bound
	if !hasBound {
		spreadBound = 0
	}
	if pmed != 0 && iqr/math.Abs(pmed) > spreadBound && iqr > 0 {
		if beatsAll(c, p, better) {
			return "better", wins, n
		}
		return "unresolved", wins, n
	}
	return "unchanged", wins, n
}

// beatsAll reports whether every value of c is better than every value of p.
func beatsAll(c, p []float64, better func(a, b float64) bool) bool {
	for _, x := range c {
		for _, y := range p {
			if !better(x, y) {
				return false
			}
		}
	}
	return len(c) > 0 && len(p) > 0
}

func compareSets(spec benchSpec, parent, change map[string][]map[string]float64) int {
	var names []string
	for w := range parent {
		if _, ok := change[w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "serfibench: no workload is present in both result sets")
		return 2
	}
	metrics := append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...)
	for i := len(spec.EndToEnd); i < len(metrics); i++ {
		metrics[i].Bound = math.NaN()
	}
	fmt.Printf("%-14s %-26s %-6s %28s %28s %8s %6s %6s %s\n",
		"workload", "metric", "unit", "parent median [q1,q3]", "change median [q1,q3]", "delta", "wins", "bound", "verdict")
	status := 0
	for _, w := range names {
		for _, m := range metrics {
			p, c := column(parent[w], m.Name), column(change[w], m.Name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			v, wins, n := verdict(p, c, m.Better == "higher", m.Bound, m.Unit == "count" || m.Unit == "B")
			if v == "worse" {
				status = 1
			}
			pq1, pmed, pq3 := quartiles(p)
			cq1, cmed, cq3 := quartiles(c)
			bound := "-"
			if !math.IsNaN(m.Bound) {
				bound = fmt.Sprintf("%.0f%%", 100*m.Bound)
			}
			fmt.Printf("%-14s %-26s %-6s %28s %28s %7.2f%% %6s %6s %s\n", w, m.Name, m.Unit,
				fmt.Sprintf("%.4g [%.4g,%.4g]", pmed, pq1, pq3), fmt.Sprintf("%.4g [%.4g,%.4g]", cmed, cq1, cq3),
				100*ratio(cmed-pmed, math.Abs(pmed)), fmt.Sprintf("%d/%d", wins, n), bound, v)
		}
	}
	return status
}

// column extracts one metric's values across runs.
func column(runs []map[string]float64, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r[name]; ok {
			out = append(out, v)
		}
	}
	return out
}
