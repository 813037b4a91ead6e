// Command serfibench is serfi's benchmark: one stdlib-only program that runs
// a named workload through the user surfaces (campaign.Engine.RunMatrix and
// the dist queue over Coordinator.Handler), checks that the outputs are
// correct, and prints every end-to-end metric by name and unit. With
// --trace 1 it instead replays the workload through the layers' public
// functions, timing each call from this package, and prints the per-layer
// metrics, the self time per layer and the tracing overhead.
//
//	bash serfibench/run.sh --workload reg-matrix --seed 1 --seconds 20 --trace 0
//	bash serfibench/run.sh --compare PARENT_DIR CHANGE_DIR
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. A failed correctness gate
// prints the object with "correct": false and exits 1.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef describes one reported metric. Target and Where name the
// end-to-end metric a per-layer metric should move and on which workload.
type metricDef struct {
	Name, Unit, Better string
	Target, Where      string
}

// endToEnd are the metrics a user of serfi sees; every workload reports all
// of them (see README.md for the per-workload definitions).
var endToEnd = []metricDef{
	{Name: "inj_per_s", Unit: "1/s", Better: "higher"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "first_result_s", Unit: "s", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "db_B_per_fault", Unit: "B", Better: "lower"},
	{Name: "ok_frac", Unit: "frac", Better: "higher"},
	{Name: "report_s", Unit: "s", Better: "lower"},
	{Name: "small_turnaround_p50_s", Unit: "s", Better: "lower"},
	{Name: "small_turnaround_tail_s", Unit: "s", Better: "lower"},
}

// perLayer are the traced run's metrics, each with the end-to-end metric it
// should move and the workload it should move it on.
var perLayer = []metricDef{
	{"npb.build_ms", "ms", "lower", "setup_s", "all"},
	{"fi.golden_ms", "ms", "lower", "setup_s", "reg-matrix"},
	{"fi.golden_ns_per_instr", "ns", "lower", "setup_s", "reg-matrix"},
	{"fi.checkpoint_ms", "ms", "lower", "setup_s", "all"},
	{"fi.ckpt_resident_B", "B", "lower", "peak_rss_mb", "all"},
	{"fi.inject_ms_p50", "ms", "lower", "inj_per_s", "reg-matrix,uncore-traced"},
	{"fi.inject_ms_tail", "ms", "lower", "inj_per_s", "reg-matrix,uncore-traced"},
	{"fi.instrs_per_inject", "count", "lower", "inj_per_s", "reg-matrix"},
	{"fi.prune_frac", "frac", "higher", "inj_per_s", "reg-matrix"},
	{"fi.classify_us", "us", "lower", "inj_per_s", "uncore-traced (reg-matrix little)"},
	{"fi.classified_frac", "frac", "lower", "inj_per_s", "uncore-traced"},
	{"fi.classify_share", "frac", "lower", "inj_per_s", "uncore-traced (reg-matrix little)"},
	{"profile.extract_ms", "ms", "lower", "setup_s", "all"},
	{"fault.list_us", "us", "lower", "setup_s", "all (bypass: predict no change)"},
	{"mach.ns_per_instr", "ns", "lower", "inj_per_s,setup_s", "reg-matrix"},
	{"mach.restore_us", "us", "lower", "inj_per_s", "queue-2tenant,uncore-traced"},
	{"mach.alloc_B_per_inject", "B", "lower", "inj_per_s,peak_rss_mb", "queue-2tenant"},
	{"cache.data_ns", "ns", "lower", "inj_per_s", "reg-matrix"},
	{"cache.accesses_per_instr", "count", "lower", "inj_per_s", "reg-matrix"},
	{"prop.trace_ms", "ms", "lower", "inj_per_s", "uncore-traced"},
	{"prop.traced_frac", "frac", "lower", "inj_per_s", "uncore-traced"},
	{"campaign.put_us", "us", "lower", "db_B_per_fault,inj_per_s", "all (inj_per_s: queue-2tenant)"},
	{"campaign.row_B", "B", "lower", "db_B_per_fault", "all"},
	{"campaign.worker_idle_frac", "frac", "lower", "inj_per_s", "reg-matrix"},
	{"dist.lease_us", "us", "lower", "small_turnaround_p50_s", "queue-2tenant"},
	{"dist.complete_us", "us", "lower", "small_turnaround_p50_s", "queue-2tenant"},
	{"dist.submit_us", "us", "lower", "small_turnaround_p50_s", "queue-2tenant"},
	{"dist.fetch_ms", "ms", "lower", "small_turnaround_p50_s", "queue-2tenant"},
	{"dist.shard_ms", "ms", "lower", "inj_per_s", "queue-2tenant"},
	{"dist.worker_idle_frac", "frac", "lower", "inj_per_s", "queue-2tenant"},
	{"dist.reissued", "count", "lower", "ok_frac", "queue-2tenant"},
	{"dist.retries", "count", "lower", "ok_frac", "queue-2tenant"},
	{"queue.gen_lag_s", "s", "lower", "small_turnaround_tail_s", "queue-2tenant"},
	{"sens.context_ms", "ms", "lower", "report_s", "uncore-traced"},
	{"sens.analyze_us_per_row", "us", "lower", "report_s", "uncore-traced"},
	{"self.bench_ms", "ms", "lower", "-", "all"},
	{"self.npb_ms", "ms", "lower", "setup_s", "all"},
	{"self.fi_ms", "ms", "lower", "inj_per_s,setup_s", "all"},
	{"self.profile_ms", "ms", "lower", "setup_s", "all"},
	{"self.fault_ms", "ms", "lower", "setup_s", "all"},
	{"self.mach_ms", "ms", "lower", "inj_per_s", "all"},
	{"self.prop_ms", "ms", "lower", "inj_per_s", "uncore-traced"},
	{"self.campaign_ms", "ms", "lower", "db_B_per_fault", "all"},
	{"self.dist_ms", "ms", "lower", "small_turnaround_p50_s", "queue-2tenant"},
	{"trace.overhead_frac", "frac", "lower", "-", "all"},
}

// env is one benchmark invocation.
type env struct {
	ctx      context.Context
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	dir      string // scratch directory of this run, removed at exit
	outDir   string // persistent outputs: traces, counter records, references
	bin      string // digest of this program binary
}

// outcome is what a workload run produces.
type outcome struct {
	metrics   map[string]float64
	counts    []counter // deterministic work counters, checked across runs
	attempted int
	failed    int
	gates     []string // failed correctness gates
	digest    string   // of the reference database rows, checked across runs
}

type counter struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]float64)} }

// gate records a failed correctness check.
func (o *outcome) gate(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	o.gates = append(o.gates, msg)
	fmt.Printf("GATE FAILED: %s\n", msg)
}

// count records a deterministic counter and prints it.
func (o *outcome) count(name string, v float64) {
	o.counts = append(o.counts, counter{name, v})
	fmt.Printf("  count %-28s %v\n", name, v)
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*env) (*outcome, error){
	"reg-matrix":    func(e *env) (*outcome, error) { return runEngine(e, regMatrix) },
	"uncore-traced": func(e *env) (*outcome, error) { return runEngine(e, uncoreTraced) },
	"queue-2tenant": runQueue,
}

func main() {
	workload := flag.String("workload", "", "workload: reg-matrix, uncore-traced or queue-2tenant")
	seed := flag.Int64("seed", 1, "workload seed (fault lists, probe address streams)")
	seconds := flag.Float64("seconds", 20, "measured run length in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	compare := flag.Bool("compare", false, "compare two result sets: --compare PARENT CHANGE")
	flag.Parse()
	if *compare {
		os.Exit(runCompare(flag.Args()))
	}
	os.Exit(run(*workload, *seed, *seconds, *trace == 1))
}

func run(workload string, seed int64, seconds float64, traced bool) int {
	if err := checkBenchmarkJSON("BENCHMARK.json"); err != nil {
		fmt.Fprintln(os.Stderr, "serfibench:", err)
		return 2
	}
	fn, ok := workloads[workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "serfibench: unknown workload %q\n", workload)
		return 2
	}
	outDir, err := filepath.Abs(filepath.Join(".bench_build", "serfibench"))
	if err == nil {
		err = os.MkdirAll(outDir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "serfibench:", err)
		return 2
	}
	dir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "serfibench:", err)
		return 2
	}
	defer os.RemoveAll(dir)
	bin, err := binaryDigest()
	if err != nil {
		fmt.Fprintln(os.Stderr, "serfibench:", err)
		return 2
	}
	e := &env{ctx: context.Background(), workload: workload, seed: seed,
		seconds: time.Duration(seconds * float64(time.Second)), traced: traced, dir: dir, outDir: outDir, bin: bin}
	fmt.Printf("serfibench %s seed=%d seconds=%g trace=%v\n", workload, seed, seconds, traced)
	o, err := fn(e)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serfibench:", err)
		return 1
	}
	if err := checkCounters(e, o); err != nil {
		o.gate("%v", err)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: len(o.gates) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]map[string]any{}}
	fmt.Println("metrics:")
	for _, d := range defs {
		v, ok := o.metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			o.gate("metric %s was not measured", d.Name)
			v = 0
		}
		out.Metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit}
		if traced {
			fmt.Printf("  %-26s %14.6g %-6s -> %s on %s\n", d.Name, v, d.Unit, d.Target, d.Where)
		} else {
			fmt.Printf("  %-26s %14.6g %s\n", d.Name, v, d.Unit)
		}
	}
	out.Correct = len(o.gates) == 0
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serfibench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// checkBenchmarkJSON verifies that this program reports exactly the metrics
// BENCHMARK.json declares, with the same units and directions.
func checkBenchmarkJSON(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	same := func(kind string, got []specMetric, want []metricDef) error {
		if len(got) != len(want) {
			return fmt.Errorf("%s: %d %s metrics, program reports %d", path, len(got), kind, len(want))
		}
		for i, m := range got {
			if m.Name != want[i].Name || m.Unit != want[i].Unit || m.Better != want[i].Better {
				return fmt.Errorf("%s: %s metric %d is %s/%s/%s, program reports %s/%s/%s", path, kind, i,
					m.Name, m.Unit, m.Better, want[i].Name, want[i].Unit, want[i].Better)
			}
		}
		return nil
	}
	if err := same("end_to_end", spec.EndToEnd, endToEnd); err != nil {
		return err
	}
	if err := same("per_layer", spec.PerLayer, perLayer); err != nil {
		return err
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			return fmt.Errorf("%s: workload %s is not implemented", path, w.Name)
		}
	}
	return nil
}

// benchSpec is the part of BENCHMARK.json this program and the comparator
// read.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// checkCounters compares this run's deterministic counters with those an
// earlier run of the same program binary recorded for the same workload,
// seed and mode: a run that only changes host timing must reproduce every
// simulated statistic exactly.
func checkCounters(e *env, o *outcome) error {
	dir := filepath.Join(e.outDir, "counters")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mode := "e2e"
	if e.traced {
		mode = "layer"
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-%d-%g-%s.json", e.bin, e.workload, e.seed, e.seconds.Seconds(), mode))
	sort.SliceStable(o.counts, func(i, j int) bool { return o.counts[i].Name < o.counts[j].Name })
	mine, err := json.Marshal(struct {
		Counts []counter `json:"counts"`
		Rows   string    `json:"rows_sha256,omitempty"`
	}{o.counts, o.digest})
	if err != nil {
		return err
	}
	prev, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return os.WriteFile(path, mine, 0o644)
	}
	if err != nil {
		return err
	}
	if string(prev) != string(mine) {
		return fmt.Errorf("deterministic counters or rows differ from an earlier run of the same seed:\n  earlier %s\n  now     %s", prev, mine)
	}
	fmt.Printf("counters match the earlier run of seed %d (%s)\n", e.seed, strings.TrimSuffix(filepath.Base(path), ".json"))
	return nil
}

// cleanHeap starts a measurement from a collected heap and restarts the
// peak resident size that vmHWM reports.
func cleanHeap() {
	runtime.GC()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: without it the peak is the process's
}

// binaryDigest identifies this program build: records keyed by it are
// never reused by a different program.
func binaryDigest() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// vmHWM returns the process's peak resident set size in MiB.
func vmHWM() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			var kb float64
			if _, err := fmt.Sscan(f[1], &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}
