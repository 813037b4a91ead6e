// Package exp regenerates every table and figure of the paper's evaluation
// from fresh simulations: Table 1 (workload summary), Table 2 (Hang vs the
// function-calls-x-branches index), Tables 3/4 (memory transactions vs
// outcome classes), Figures 2/3 (per-scenario outcome distributions and
// MPI-vs-OMP mismatch) plus the narrative statistics of §4.1.3 and §4.2.2
// and the intro trends of Figure 1. Absolute values reflect the miniature
// workloads; EXPERIMENTS.md records paper-vs-measured shape checks.
package exp

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"serfi/internal/campaign"
	"serfi/internal/fault"
	"serfi/internal/fi"
	"serfi/internal/mining"
	"serfi/internal/npb"
	"serfi/internal/prop"
	"serfi/internal/sens"
	"serfi/internal/soc"
)

// Config scales the experiment campaigns.
type Config struct {
	Faults   int
	Seed     int64
	Progress io.Writer
	// Workers bounds the scheduler's host worker pool; 0 = GOMAXPROCS.
	Workers int
	// Snapshots is the per-scenario checkpoint count (0 = default on,
	// negative = from-reset mode); see campaign.Snapshots.
	Snapshots int
	// Domains lists the fault models each scenario runs under (nil: the
	// paper's register domain only). The paper's tables and figures always
	// format the register campaigns; extra domains feed DomainTable.
	Domains []fault.Model
	// TraceProp turns on the propagation tracer: every unmasked injection
	// is re-run against a golden twin to localize the first architectural
	// divergence and classify its escape; the folds feed PropTable.
	TraceProp bool
	// RecordRuns persists the per-fault rows of every campaign (v4 store
	// records): the fault tuple, outcome and escape/latency when traced.
	// The rows feed SensTable and the `serfi sens` attribution engine.
	RecordRuns bool
	// Store, when set, receives streamed scenario records as they complete
	// and supplies already-recorded campaigns for resume (matching
	// campaigns are not re-executed).
	Store campaign.Store
}

// DefaultConfig uses a small per-scenario fault count suitable for a
// laptop-scale reproduction (the paper used 8000 on a 5000-core cluster).
func DefaultConfig() Config {
	return Config{Faults: 24, Seed: 2018}
}

// Matrix holds one campaign result per (scenario, fault domain) — the full
// evaluation run every artefact formats from. The paper's tables and
// figures read the register-domain results; DomainTable compares domains.
type Matrix struct {
	Cfg     Config
	Order   []npb.Scenario
	Domains []fault.Model
	Results map[string]*campaign.Result // keyed by campaign.Key
}

// RunMatrix executes the 130-scenario campaign on the shared matrix
// scheduler, interleaving golden runs and injection jobs across scenarios.
func RunMatrix(cfg Config) (*Matrix, error) {
	return RunMatrixContext(context.Background(), cfg)
}

// RunMatrixContext is RunMatrix with cancellation: the campaign engine
// stops at job granularity when ctx is cancelled and the error is
// ctx.Err(). Campaigns already streamed to cfg.Store stay durable, so a
// rerun over the same store resumes where the cancelled run stopped.
func RunMatrixContext(ctx context.Context, cfg Config) (*Matrix, error) {
	return runScenarios(ctx, cfg, func(npb.Scenario) bool { return true })
}

// RunSubset executes campaigns only for the scenarios that pass keep
// (used by per-table benchmarks that don't need the full matrix). Scenario
// seeds depend on the position in the full scenario list (and are shared
// across domains), so a subset run reproduces the exact per-campaign
// results of the full matrix.
func RunSubset(cfg Config, keep func(npb.Scenario) bool) (*Matrix, error) {
	return RunSubsetContext(context.Background(), cfg, keep)
}

// RunSubsetContext is RunSubset with cancellation; see RunMatrixContext.
func RunSubsetContext(ctx context.Context, cfg Config, keep func(npb.Scenario) bool) (*Matrix, error) {
	return runScenarios(ctx, cfg, keep)
}

// runScenarios assembles jobs, runs the campaign engine and indexes the
// results into a Matrix.
func runScenarios(ctx context.Context, cfg Config, keep func(npb.Scenario) bool) (*Matrix, error) {
	domains := cfg.Domains
	if len(domains) == 0 {
		domains = []fault.Model{fault.Reg}
	}
	m := &Matrix{Cfg: cfg, Domains: domains, Results: make(map[string]*campaign.Result)}
	for _, sc := range npb.Scenarios() {
		if keep(sc) {
			m.Order = append(m.Order, sc)
		}
	}
	opts := []campaign.Option{
		campaign.Faults(cfg.Faults),
		campaign.Workers(cfg.Workers),
		campaign.Snapshots(cfg.Snapshots),
		campaign.Models(domains...),
		campaign.WithStore(cfg.Store),
	}
	if cfg.TraceProp {
		opts = append(opts, campaign.TraceProp())
	}
	if cfg.RecordRuns {
		opts = append(opts, campaign.RecordRuns())
	}
	// Live progress rides the typed event stream: one Collector goroutine
	// prints per-campaign lines until the engine's MatrixDone.
	var done chan struct{}
	if cfg.Progress != nil {
		events := make(chan campaign.Event, 64)
		col := campaign.NewCollector(cfg.Progress, len(m.Order)*len(domains))
		opts = append(opts, campaign.WithEvents(events))
		done = make(chan struct{})
		go func() {
			defer close(done)
			col.Consume(events)
		}()
	}
	eng := campaign.New(opts...)
	jobs := eng.JobsFor(m.Order, cfg.Seed)
	results, err := eng.RunMatrix(ctx, jobs)
	if done != nil {
		<-done
	}
	for i, r := range results {
		if r != nil {
			m.Results[jobs[i].Key()] = r
		}
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}

// MatrixFromStore assembles a Matrix from already-recorded campaigns
// without running anything — the offline path of the report generators.
// Scenario order follows the npb catalog, domains the fault.Models order,
// and the matrix's Cfg.Faults/Seed report what the rows were actually
// recorded with (not what the caller's cfg says); only artefacts over
// stored columns are meaningful (wall-clock spans are never persisted, and
// per-run records reload only from campaigns recorded with RecordRuns —
// v4 rows).
func MatrixFromStore(st campaign.Store, cfg Config) *Matrix {
	m := &Matrix{Cfg: cfg, Results: make(map[string]*campaign.Result)}
	for _, r := range st.Query(campaign.Query{}) {
		m.Results[r.Key()] = r
	}
	haveDomain := make(map[fault.Model]bool)
	scale := false
	for i, sc := range npb.Scenarios() {
		inMatrix := false
		for _, d := range fault.Models() {
			r, ok := m.Results[campaign.Key(sc, d)]
			if !ok {
				continue
			}
			inMatrix = true
			haveDomain[d] = true
			if !scale {
				// The recorded scale (uniform across rows — resume
				// validation refuses mixed databases): fault count as
				// stored, base seed back-derived from the catalog
				// position per the JobsFor convention.
				m.Cfg.Faults = r.Faults
				m.Cfg.Seed = r.Seed - int64(i)
				scale = true
			}
		}
		if inMatrix {
			m.Order = append(m.Order, sc)
		}
	}
	for _, d := range fault.Models() {
		if haveDomain[d] {
			m.Domains = append(m.Domains, d)
		}
	}
	return m
}

// Get returns a scenario's register-domain result (nil when absent) — the
// rows the paper's own tables and figures are built from.
func (m *Matrix) Get(sc npb.Scenario) *campaign.Result {
	return m.Results[campaign.Key(sc, fault.Reg)]
}

// GetDomain returns a scenario's result under one fault domain.
func (m *Matrix) GetDomain(sc npb.Scenario, d fault.Model) *campaign.Result {
	return m.Results[campaign.Key(sc, d)]
}

// All returns every campaign result in deterministic order (scenario order,
// domains within a scenario in configured order).
func (m *Matrix) All() []*campaign.Result {
	var out []*campaign.Result
	for _, sc := range m.Order {
		for _, d := range m.Domains {
			if r := m.GetDomain(sc, d); r != nil {
				out = append(out, r)
			}
		}
	}
	return out
}

// HasDomain reports whether the matrix ran campaigns under the model.
func (m *Matrix) HasDomain(d fault.Model) bool {
	for _, have := range m.Domains {
		if have == d {
			return true
		}
	}
	return false
}

// filter selects register-domain results in matrix order.
func (m *Matrix) filter(keep func(npb.Scenario) bool) []*campaign.Result {
	var out []*campaign.Result
	for _, sc := range m.Order {
		if keep(sc) {
			if r := m.Get(sc); r != nil {
				out = append(out, r)
			}
		}
	}
	return out
}

// Table1 reproduces the NPB workload summary: smaller/average/larger
// single-run simulation time, fault-campaign time and executed instructions
// per ISA, plus campaign totals.
func Table1(m *Matrix) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: NPB workload summary (miniature classes; paper shape: ARMv7 >> ARMv8)\n")
	fmt.Fprintf(&b, "%-28s %-6s %12s %12s %12s\n", "Description", "ISA", "Smaller", "Average", "Larger")
	type agg struct {
		min, max, sum float64
		n             int
	}
	update := func(a *agg, v float64) {
		if a.n == 0 || v < a.min {
			a.min = v
		}
		if v > a.max {
			a.max = v
		}
		a.sum += v
		a.n++
	}
	for _, row := range []struct {
		name string
		get  func(*campaign.Result) float64
		fmtv func(float64) string
	}{
		{"Simulation Time Single Run", func(r *campaign.Result) float64 { return r.GoldenWallSec },
			func(v float64) string { return fmt.Sprintf("%.3fs", v) }},
		{"Fault Campaign Run", func(r *campaign.Result) float64 { return r.CampaignWallSec },
			func(v float64) string { return fmt.Sprintf("%.1fs", v) }},
		{"Executed Instructions", func(r *campaign.Result) float64 { return float64(r.Golden.Retired) },
			func(v float64) string { return fmt.Sprintf("%.3g", v) }},
	} {
		for _, isaName := range []string{"armv8", "armv7"} {
			var a agg
			for _, r := range m.filter(func(sc npb.Scenario) bool { return sc.ISA == isaName }) {
				update(&a, row.get(r))
			}
			if a.n == 0 {
				continue
			}
			fmt.Fprintf(&b, "%-28s %-6s %12s %12s %12s\n", row.name, isaName,
				row.fmtv(a.min), row.fmtv(a.sum/float64(a.n)), row.fmtv(a.max))
		}
	}
	// The campaign total sums ExclusiveCompute, not CampaignWallSec:
	// campaigns overlap on the shared worker pool, so their open-to-close
	// spans double-count pool time when added.
	for _, isaName := range []string{"armv8", "armv7"} {
		total := 0.0
		for _, r := range m.filter(func(sc npb.Scenario) bool { return sc.ISA == isaName }) {
			total += r.ExclusiveCompute()
		}
		fmt.Fprintf(&b, "%-28s %-6s %12s\n", "Total Fault Campaign (compute)", isaName, fmt.Sprintf("%.0fs", total))
	}
	// The paper's headline ratio: average v7 instructions / average v8.
	var s7, s8 float64
	var n7, n8 int
	for _, r := range m.filter(func(sc npb.Scenario) bool { return sc.ISA == "armv7" }) {
		s7 += float64(r.Golden.Retired)
		n7++
	}
	for _, r := range m.filter(func(sc npb.Scenario) bool { return sc.ISA == "armv8" }) {
		s8 += float64(r.Golden.Retired)
		n8++
	}
	if n7 > 0 && n8 > 0 && s8 > 0 {
		fmt.Fprintf(&b, "ARMv7/ARMv8 average executed-instruction ratio: %.1fx (paper: ~25x from software FP)\n",
			(s7/float64(n7))/(s8/float64(n8)))
	}
	return b.String()
}

// Table2 reproduces the Hang-vs-F*B-index case study on IS.
func Table2(m *Matrix) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: Hang occurrence vs normalized function-calls x branches (IS)\n")
	fmt.Fprintf(&b, "%-12s %-10s %10s %10s %10s\n", "Scenario", "Param", "Single", "Dual", "Quad")
	for _, group := range []struct {
		label string
		mode  npb.Mode
		isa   string
	}{
		{"IS MPI V7", npb.MPI, "armv7"},
		{"IS OMP V7", npb.OMP, "armv7"},
		{"IS MPI V8", npb.MPI, "armv8"},
		{"IS OMP V8", npb.OMP, "armv8"},
	} {
		var hang, branches, calls, fb [3]float64
		for i, cores := range []int{1, 2, 4} {
			r := m.Get(npb.Scenario{App: "IS", Mode: group.mode, ISA: group.isa, Cores: cores})
			if r == nil {
				continue
			}
			hang[i] = 100 * r.Counts.Rate(fi.Hang)
			branches[i] = r.Features.Branches
			calls[i] = r.Features.Calls
			fb[i] = r.Features.FBIndex
		}
		norm := fb[0]
		if norm == 0 {
			norm = 1
		}
		fmt.Fprintf(&b, "%-12s %-10s %10.3f %10.3f %10.3f\n", group.label, "Hang (%)", hang[0], hang[1], hang[2])
		fmt.Fprintf(&b, "%-12s %-10s %10.3g %10.3g %10.3g\n", "", "Branches", branches[0], branches[1], branches[2])
		fmt.Fprintf(&b, "%-12s %-10s %10.3g %10.3g %10.3g\n", "", "F. Calls", calls[0], calls[1], calls[2])
		fmt.Fprintf(&b, "%-12s %-10s %10.3f %10.3f %10.3f\n", "", "Index F*B", fb[0]/norm, fb[1]/norm, fb[2]/norm)
	}
	return b.String()
}

// memTable shares the Table 3/4 layout.
func memTable(m *Matrix, title string, rows []npb.Scenario, labels []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-4s %-14s %12s %6s %10s %8s\n",
		"#", "Scenario", "V+OMM+ONA(%)", "UT(%)", "MemInst(%)", "RD/WR")
	for i, sc := range rows {
		r := m.Get(sc)
		if r == nil {
			continue
		}
		masked := 100 * (r.Counts.Rate(fi.Vanished) + r.Counts.Rate(fi.OMM) + r.Counts.Rate(fi.ONA))
		fmt.Fprintf(&b, "%-4s %-14s %12.1f %6.1f %10.1f %8.2f\n",
			labels[i], fmt.Sprintf("%s %sx%d", sc.App, sc.Mode, sc.Cores),
			masked, 100*r.Counts.Rate(fi.UT), r.Features.MemInstrPct, r.Features.RdWrRatio)
	}
	return b.String()
}

// Table3 reproduces the ARMv7 memory-transaction table (MG/IS MPI).
func Table3(m *Matrix) string {
	rows := []npb.Scenario{
		{App: "MG", Mode: npb.MPI, ISA: "armv7", Cores: 1},
		{App: "MG", Mode: npb.MPI, ISA: "armv7", Cores: 2},
		{App: "MG", Mode: npb.MPI, ISA: "armv7", Cores: 4},
		{App: "IS", Mode: npb.MPI, ISA: "armv7", Cores: 1},
		{App: "IS", Mode: npb.MPI, ISA: "armv7", Cores: 2},
		{App: "IS", Mode: npb.MPI, ISA: "armv7", Cores: 4},
	}
	return memTable(m, "Table 3: ARMv7 memory transactions and soft-error classes",
		rows, []string{"1", "2", "3", "4", "5", "6"})
}

// Table4 reproduces the ARMv8 memory-transaction table (LU/SP OMP, FT MPI).
func Table4(m *Matrix) string {
	rows := []npb.Scenario{
		{App: "LU", Mode: npb.OMP, ISA: "armv8", Cores: 1},
		{App: "LU", Mode: npb.OMP, ISA: "armv8", Cores: 2},
		{App: "LU", Mode: npb.OMP, ISA: "armv8", Cores: 4},
		{App: "SP", Mode: npb.OMP, ISA: "armv8", Cores: 1},
		{App: "SP", Mode: npb.OMP, ISA: "armv8", Cores: 2},
		{App: "SP", Mode: npb.OMP, ISA: "armv8", Cores: 4},
		{App: "FT", Mode: npb.MPI, ISA: "armv8", Cores: 1},
		{App: "FT", Mode: npb.MPI, ISA: "armv8", Cores: 2},
		{App: "FT", Mode: npb.MPI, ISA: "armv8", Cores: 4},
	}
	return memTable(m, "Table 4: ARMv8 memory transactions and soft-error classes",
		rows, []string{"A", "B", "C", "D", "E", "F", "G", "H", "I"})
}

// DomainTable is the register-vs-memory counterpart of Tables 3/4: the
// outcome distribution aggregated per fault domain per ISA. The paper
// injects into architectural registers only; this table extends its
// methodology along the fault-space axis (uncore/memory-path faults after
// Cho et al., instruction-word strikes, multi-bit register bursts) so the
// cross-domain movement of the outcome classes becomes visible.
func DomainTable(m *Matrix) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Domain Table: outcome distribution by fault domain (register vs memory fault spaces)\n")
	fmt.Fprintf(&b, "%-6s %-6s %5s %7s %6s %6s %6s %6s %6s %9s\n",
		"ISA", "Domain", "scen", "faults", "V%", "ONA%", "OMM%", "UT%", "Hang%", "Masking%")
	for _, isaName := range []string{"armv7", "armv8"} {
		for _, d := range m.Domains {
			var agg fi.Counts
			scen := 0
			for _, sc := range m.Order {
				if sc.ISA != isaName {
					continue
				}
				r := m.GetDomain(sc, d)
				if r == nil {
					continue
				}
				scen++
				for o := fi.Outcome(0); o < fi.NumOutcomes; o++ {
					agg[o] += r.Counts[o]
				}
			}
			if scen == 0 {
				continue
			}
			fmt.Fprintf(&b, "%-6s %-6s %5d %7d %6.1f %6.1f %6.1f %6.1f %6.1f %9.1f\n",
				isaName, d, scen, agg.Total(),
				100*agg.Rate(fi.Vanished), 100*agg.Rate(fi.ONA), 100*agg.Rate(fi.OMM),
				100*agg.Rate(fi.UT), 100*agg.Rate(fi.Hang), 100*agg.Masking())
		}
	}
	if len(m.Domains) == 1 {
		fmt.Fprintf(&b, "(single-domain matrix; run with -faultmodel all to compare fault spaces)\n")
	}
	return b.String()
}

// PropTable formats the propagation-tracing fold: per ISA per domain, how
// many unmasked injections were traced, the escape-class mix (severity-max
// per trace), the cross-core escape rate and the median latency from
// injection to first architectural corruption. It extends the paper's
// outcome taxonomy with the propagation axis: not just whether a fault
// escaped, but how far and how fast.
func PropTable(m *Matrix) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Propagation Table: escape class and latency-to-first-corruption by fault domain\n")
	fmt.Fprintf(&b, "%-6s %-10s %7s", "ISA", "Domain", "traced")
	for c := prop.Class(0); c < prop.NumClasses; c++ {
		fmt.Fprintf(&b, " %7s", c)
	}
	fmt.Fprintf(&b, " %7s %10s %10s\n", "xcore%", "med(inst)", "med(cyc)")
	traced := 0
	for _, isaName := range []string{"armv7", "armv8"} {
		for _, d := range m.Domains {
			var agg prop.Summary
			for _, sc := range m.Order {
				if sc.ISA != isaName {
					continue
				}
				if r := m.GetDomain(sc, d); r != nil {
					agg.Merge(r.Prop)
				}
			}
			if agg.Traced == 0 {
				continue
			}
			traced += agg.Traced
			fmt.Fprintf(&b, "%-6s %-10s %7d", isaName, d, agg.Traced)
			for c := prop.Class(0); c < prop.NumClasses; c++ {
				fmt.Fprintf(&b, " %7d", agg.EscapeCount(c))
			}
			mi, okI := agg.MedianInstr()
			mc, okC := agg.MedianCyc()
			instr, cyc := "-", "-"
			if okI {
				instr = fmt.Sprintf("%d", mi)
			}
			if okC {
				cyc = fmt.Sprintf("%d", mc)
			}
			fmt.Fprintf(&b, " %7.1f %10s %10s\n", 100*agg.XCoreRate(), instr, cyc)
		}
	}
	if traced == 0 {
		fmt.Fprintf(&b, "(no propagation traces recorded; run with -trace-prop)\n")
	}
	return b.String()
}

// SensTable formats the register-level sensitivity slice of the recorded
// per-fault rows: per ISA, the architecturally named registers ranked by
// unmasked-outcome rate with 95% Wilson intervals, aggregated over every
// recorded register-file and burst campaign in the matrix. The full
// function/page/cache attribution (which needs the rebuilt image and a
// residency walk) lives in `serfi sens`; this artefact stays cheap enough
// to regenerate from a stored matrix alone.
func SensTable(m *Matrix) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sensitivity Table: per-register unmasked rate over recorded campaigns (95%% Wilson CI)\n")
	fmt.Fprintf(&b, "%-6s %-8s %7s %9s %8s %13s\n", "ISA", "register", "n", "unmasked", "rate", "95% CI")
	const top = 10
	rows := 0
	for _, isaName := range []string{"armv7", "armv8"} {
		cfg, err := soc.Config(isaName, 1)
		if err != nil {
			continue
		}
		feat := cfg.ISA.Feat()
		t := sens.NewTable(isaName)
		for _, d := range m.Domains {
			if d != fault.Reg && d != fault.Burst {
				continue
			}
			for _, sc := range m.Order {
				if sc.ISA != isaName {
					continue
				}
				r := m.GetDomain(sc, d)
				if r == nil || len(r.Runs) == 0 {
					continue
				}
				for _, run := range r.Runs {
					t.Cell(fault.RegisterName(feat, run.Fault.Reg)).Counts.Add(run.Outcome)
				}
			}
		}
		cells := t.Cells()
		for i, c := range cells {
			if i >= top {
				fmt.Fprintf(&b, "%-6s ... %d more registers\n", isaName, len(cells)-top)
				break
			}
			lo, hi := c.CI()
			fmt.Fprintf(&b, "%-6s %-8s %7d %9d %7.1f%% %5.1f-%5.1f%%\n",
				isaName, c.Key, c.N(), c.Unmasked(), 100*c.Rate(), 100*lo, 100*hi)
			rows++
		}
	}
	if rows == 0 {
		fmt.Fprintf(&b, "(no recorded per-fault rows; run with -record-runs)\n")
	}
	return b.String()
}

// bar renders a proportional ASCII segment bar for one outcome class mix.
func bar(c fi.Counts, width int) string {
	chars := []byte{'V', 'o', 'M', 'U', 'H'}
	var sb strings.Builder
	for o := fi.Outcome(0); o < fi.NumOutcomes; o++ {
		n := int(c.Rate(o)*float64(width) + 0.5)
		for i := 0; i < n; i++ {
			sb.WriteByte(chars[o])
		}
	}
	s := sb.String()
	if len(s) > width {
		s = s[:width]
	}
	return s + strings.Repeat(".", width-len(s))
}

// figure renders Figures 2a/2b or 3a/3b: outcome distributions per app for
// SER plus one parallel mode at 1/2/4 cores, and the (c) mismatch panel.
func figure(m *Matrix, isaName, figName string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: NPB fault injections on %s (V=Vanished o=ONA M=OMM U=UT H=Hang)\n", figName, isaName)
	panel := func(mode npb.Mode, label string) {
		fmt.Fprintf(&b, "(%s) %s benchmarks\n", label, mode)
		for _, app := range npb.Apps() {
			var has bool
			if mode == npb.MPI {
				has = app.HasMPI
			} else {
				has = app.HasOMP
			}
			if !has {
				continue
			}
			variants := []npb.Scenario{{App: app.Name, Mode: npb.Serial, ISA: isaName, Cores: 1}}
			for _, cc := range []int{1, 2, 4} {
				if app.MPISquare && mode == npb.MPI && cc == 2 {
					continue
				}
				variants = append(variants, npb.Scenario{App: app.Name, Mode: mode, ISA: isaName, Cores: cc})
			}
			for _, sc := range variants {
				r := m.Get(sc)
				if r == nil {
					continue
				}
				tag := "SER-1"
				if sc.Mode != npb.Serial {
					tag = fmt.Sprintf("%s-%d", sc.Mode, sc.Cores)
				}
				fmt.Fprintf(&b, "  %-3s %-6s |%s| %s\n", app.Name, tag, bar(r.Counts, 50), r.Counts)
			}
		}
	}
	panel(npb.MPI, "a")
	panel(npb.OMP, "b")
	// (c): MPI-vs-OMP mismatch for apps that have both.
	fmt.Fprintf(&b, "(c) Mismatch MPI vs OMP (sum of absolute per-class differences, %%)\n")
	for _, app := range npb.Apps() {
		if !app.HasMPI || !app.HasOMP {
			continue
		}
		for _, cc := range []int{1, 2, 4} {
			if app.MPISquare && cc == 2 {
				continue
			}
			a := m.Get(npb.Scenario{App: app.Name, Mode: npb.MPI, ISA: isaName, Cores: cc})
			o := m.Get(npb.Scenario{App: app.Name, Mode: npb.OMP, ISA: isaName, Cores: cc})
			if a == nil || o == nil {
				continue
			}
			fmt.Fprintf(&b, "  %-3s cores=%d mismatch=%6.2f%%\n", app.Name, cc, fi.Mismatch(a.Counts, o.Counts))
		}
	}
	return b.String()
}

// Figure2 is the ARMv7 panel set.
func Figure2(m *Matrix) string { return figure(m, "armv7", "Figure 2") }

// Figure3 is the ARMv8 panel set.
func Figure3(m *Matrix) string { return figure(m, "armv8", "Figure 3") }

// MacroStats reproduces the §4.1.3 narrative: mean branch share and sigma
// for the four macro scenarios.
func MacroStats(m *Matrix) string {
	d := Dataset(m)
	var b strings.Builder
	fmt.Fprintf(&b, "Macro-scenario branch composition (paper: MPI V7 19.24%% / OMP V7 14.08%% / MPI V8 17.65%% / OMP V8 12.01%%)\n")
	for _, g := range []struct{ label, isa, mode string }{
		{"MPI V7", "armv7", "MPI"},
		{"OMP V7", "armv7", "OMP"},
		{"MPI V8", "armv8", "MPI"},
		{"OMP V8", "armv8", "OMP"},
	} {
		mean, std, n := d.MeanStd("branch_pct", func(name string) bool {
			return strings.HasPrefix(name, g.isa) && strings.Contains(name, g.mode)
		})
		fmt.Fprintf(&b, "  %-7s mean=%6.2f%% sigma=%5.2f (n=%d)\n", g.label, mean, std, n)
	}
	return b.String()
}

// VulnWindow reproduces §4.2.2: masking-rate comparisons between MPI and
// OMP pairs, the per-core balance difference and the runtime-library
// vulnerability window bound.
func VulnWindow(m *Matrix) string {
	var b strings.Builder
	pairs, mpiWins := 0, 0
	var maxWin float64
	var mpiImb, ompImb []float64
	for _, isaName := range []string{"armv7", "armv8"} {
		for _, app := range npb.Apps() {
			if !app.HasMPI || !app.HasOMP {
				continue
			}
			for _, cores := range []int{1, 2, 4} {
				if app.MPISquare && cores == 2 {
					continue
				}
				a := m.Get(npb.Scenario{App: app.Name, Mode: npb.MPI, ISA: isaName, Cores: cores})
				o := m.Get(npb.Scenario{App: app.Name, Mode: npb.OMP, ISA: isaName, Cores: cores})
				if a == nil || o == nil {
					continue
				}
				pairs++
				if a.Counts.Masking() >= o.Counts.Masking() {
					mpiWins++
				}
				if w := a.Features.APIWindow; w > maxWin {
					maxWin = w
				}
				if w := o.Features.APIWindow; w > maxWin {
					maxWin = w
				}
				if cores > 1 {
					mpiImb = append(mpiImb, a.Features.CoreImbalance)
					ompImb = append(ompImb, o.Features.CoreImbalance)
				}
			}
		}
	}
	avg := func(v []float64) float64 {
		if len(v) == 0 {
			return 0
		}
		s := 0.0
		for _, x := range v {
			s += x
		}
		return s / float64(len(v))
	}
	fmt.Fprintf(&b, "Vulnerability window / masking (paper: MPI higher masking in 38 of 44 pairs; API window < 23%%)\n")
	fmt.Fprintf(&b, "  MPI masking >= OMP in %d of %d comparable scenarios\n", mpiWins, pairs)
	fmt.Fprintf(&b, "  max parallelization-API vulnerability window: %.1f%%\n", maxWin)
	fmt.Fprintf(&b, "  mean per-core instruction imbalance: MPI %.1f%%, OMP %.1f%% (paper: ~4%% vs up to 16%%)\n",
		avg(mpiImb), avg(ompImb))
	return b.String()
}

// Dataset assembles the mining table from a matrix (the §3.4 database).
func Dataset(m *Matrix) *mining.DataSet {
	d := mining.NewDataSet()
	for _, sc := range m.Order {
		r := m.Get(sc)
		if r == nil {
			continue
		}
		row := r.Features.Map()
		row["rate_vanished"] = 100 * r.Counts.Rate(fi.Vanished)
		row["rate_ona"] = 100 * r.Counts.Rate(fi.ONA)
		row["rate_omm"] = 100 * r.Counts.Rate(fi.OMM)
		row["rate_ut"] = 100 * r.Counts.Rate(fi.UT)
		row["rate_hang"] = 100 * r.Counts.Rate(fi.Hang)
		row["masking"] = 100 * r.Counts.Masking()
		d.AddRow(sc.ID(), row)
	}
	return d
}

// MineReport runs the cross-layer correlation study against the UT and
// Hang rates (the §4 analyses).
func MineReport(m *Matrix) string {
	d := Dataset(m)
	exclude := []string{"rate_vanished", "rate_ona", "rate_omm", "rate_ut", "rate_hang", "masking"}
	var b strings.Builder
	fmt.Fprintf(&b, "Cross-layer mining: features vs UT rate (paper: memory-instruction share drives UTs)\n")
	fmt.Fprintf(&b, "%s\n", mining.Report(d.Correlate("rate_ut", exclude...), 6))
	fmt.Fprintf(&b, "Cross-layer mining: features vs Hang rate (paper: calls x branches index tracks Hangs)\n")
	fmt.Fprintf(&b, "%s", mining.Report(d.Correlate("rate_hang", exclude...), 6))
	return b.String()
}

// trendRow is one Figure 1 data point.
type trendRow struct {
	Year        int
	Transistors float64
	Cores       int
	NodeNM      float64
	Label       string
}

// figure1Data is the embedded historical dataset behind the intro figure.
var figure1Data = []trendRow{
	{1971, 2.3e3, 1, 10000, "Intel 4004"},
	{1978, 2.9e4, 1, 3000, "Intel 8086"},
	{1989, 1.2e6, 1, 1000, "Intel 80486"},
	{1999, 2.2e7, 1, 250, "AMD K7"},
	{2007, 7.9e8, 2, 65, "POWER6"},
	{2010, 1.0e9, 16, 40, "SPARC T3"},
	{2015, 1.0e10, 32, 20, "SPARC M7"},
	{2017, 7.2e9, 48, 14, "Xeon E7-8894"},
	{2017, 4.8e9, 8, 14, "Ryzen"},
	{2018, 6.9e9, 64, 10, "10nm-class"},
}

// Figure1 renders the processor-evolution trends (intro figure).
func Figure1() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1: processor evolution 1970-2018 (embedded dataset)\n")
	fmt.Fprintf(&b, "%-6s %-14s %14s %6s %8s\n", "Year", "Processor", "Transistors", "Cores", "Node(nm)")
	rows := append([]trendRow(nil), figure1Data...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Year < rows[j].Year })
	for _, r := range rows {
		logT := 0
		for t := r.Transistors; t >= 10; t /= 10 {
			logT++
		}
		fmt.Fprintf(&b, "%-6d %-14s %14.2g %6d %8.0f |%s\n",
			r.Year, r.Label, r.Transistors, r.Cores, r.NodeNM, strings.Repeat("#", logT))
	}
	fmt.Fprintf(&b, "(bar length = log10 of transistor count)\n")
	return b.String()
}
