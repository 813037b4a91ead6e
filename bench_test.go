package serfi

// The benchmark harness: one testing.B entry per paper table and figure
// (deliverable d), plus microbenchmarks of the simulator itself. Campaign
// sizes are intentionally small so `go test -bench=.` finishes on a laptop;
// scale with SERFI_FAULTS (the experiment runner cmd/experiments is the
// full-size path and honours the same variable).

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"testing"

	"serfi/internal/campaign"
	"serfi/internal/cc"
	"serfi/internal/exp"
	"serfi/internal/fault"
	"serfi/internal/fi"
	"serfi/internal/isa/armv7"
	"serfi/internal/isa/armv8"
	"serfi/internal/mach"
	"serfi/internal/npb"
	"serfi/internal/prop"
)

// benchFaults returns the per-scenario fault count for bench campaigns.
func benchFaults() int {
	if env := os.Getenv("SERFI_FAULTS"); env != "" {
		if v, err := strconv.Atoi(env); err == nil && v > 0 {
			return v
		}
	}
	return 4
}

func benchConfig() exp.Config {
	return exp.Config{Faults: benchFaults(), Seed: 2018}
}

// run executes fn once per b.N iteration, reporting nothing but wall time.
func runArtefact(b *testing.B, fn func() (string, error)) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := fn()
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("artefact produced no output")
		}
	}
}

// BenchmarkTable1 regenerates the workload-summary table (golden runs plus
// small campaigns over all 130 scenarios).
func BenchmarkTable1(b *testing.B) {
	runArtefact(b, func() (string, error) {
		m, err := exp.RunMatrix(benchConfig())
		if err != nil {
			return "", err
		}
		return exp.Table1(m), nil
	})
}

// BenchmarkTable2 regenerates the IS Hang-vs-F*B-index table.
func BenchmarkTable2(b *testing.B) {
	runArtefact(b, func() (string, error) {
		m, err := exp.RunSubset(benchConfig(), func(sc npb.Scenario) bool {
			return sc.App == "IS" && sc.Mode != npb.Serial
		})
		if err != nil {
			return "", err
		}
		return exp.Table2(m), nil
	})
}

// BenchmarkTable3 regenerates the ARMv7 memory-transaction table.
func BenchmarkTable3(b *testing.B) {
	runArtefact(b, func() (string, error) {
		m, err := exp.RunSubset(benchConfig(), func(sc npb.Scenario) bool {
			return sc.ISA == "armv7" && sc.Mode == npb.MPI && (sc.App == "MG" || sc.App == "IS")
		})
		if err != nil {
			return "", err
		}
		return exp.Table3(m), nil
	})
}

// BenchmarkTable4 regenerates the ARMv8 memory-transaction table.
func BenchmarkTable4(b *testing.B) {
	runArtefact(b, func() (string, error) {
		m, err := exp.RunSubset(benchConfig(), func(sc npb.Scenario) bool {
			return sc.ISA == "armv8" && ((sc.Mode == npb.OMP && (sc.App == "LU" || sc.App == "SP")) ||
				(sc.Mode == npb.MPI && sc.App == "FT"))
		})
		if err != nil {
			return "", err
		}
		return exp.Table4(m), nil
	})
}

// BenchmarkFigure1 regenerates the intro trends figure (static dataset).
func BenchmarkFigure1(b *testing.B) {
	runArtefact(b, func() (string, error) { return exp.Figure1(), nil })
}

// BenchmarkFigure2 regenerates the ARMv7 outcome-distribution panels and
// the MPI-vs-OMP mismatch panel (all 65 ARMv7 scenarios).
func BenchmarkFigure2(b *testing.B) {
	runArtefact(b, func() (string, error) {
		m, err := exp.RunSubset(benchConfig(), func(sc npb.Scenario) bool {
			return sc.ISA == "armv7"
		})
		if err != nil {
			return "", err
		}
		return exp.Figure2(m), nil
	})
}

// BenchmarkFigure3 regenerates the ARMv8 panels (all 65 ARMv8 scenarios).
func BenchmarkFigure3(b *testing.B) {
	runArtefact(b, func() (string, error) {
		m, err := exp.RunSubset(benchConfig(), func(sc npb.Scenario) bool {
			return sc.ISA == "armv8"
		})
		if err != nil {
			return "", err
		}
		return exp.Figure3(m), nil
	})
}

// BenchmarkSimulatorMIPS measures raw interpreter speed (guest MIPS) on the
// IS golden run, the metric gem5 reports as simulation rate (§3.1).
func BenchmarkSimulatorMIPS(b *testing.B) {
	for _, isaName := range []string{"armv7", "armv8"} {
		b.Run(isaName, func(b *testing.B) {
			sc := npb.Scenario{App: "IS", Mode: npb.Serial, ISA: isaName, Cores: 1}
			var retired uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := npb.Execute(sc, 0)
				if err != nil {
					b.Fatal(err)
				}
				retired = r.M.TotalRetired
			}
			b.StopTimer()
			mips := float64(retired) * float64(b.N) / b.Elapsed().Seconds() / 1e6
			b.ReportMetric(mips, "guest-MIPS")
		})
	}
}

// benchGolden builds a scenario, runs its golden reference and returns the
// paper's register fault domain over it.
func benchGolden(b *testing.B, sc npb.Scenario) (*cc.Image, mach.Config, *fi.Golden, fault.Domain) {
	b.Helper()
	img, cfg, err := npb.BuildScenario(sc)
	if err != nil {
		b.Fatal(err)
	}
	g, err := fi.RunGoldenContext(context.Background(), img, cfg, 0)
	if err != nil {
		b.Fatal(err)
	}
	d, err := fi.NewDomain(fault.Reg, img, cfg, g)
	if err != nil {
		b.Fatal(err)
	}
	return img, cfg, g, d
}

// benchCheckpoints builds a checkpoint set for benchmarks.
func benchCheckpoints(b *testing.B, img *cc.Image, cfg mach.Config, g *fi.Golden, opt fi.CheckpointOptions) *fi.CheckpointSet {
	b.Helper()
	cs, err := fi.BuildCheckpointsOpt(context.Background(), img, cfg, g, opt)
	if err != nil {
		b.Fatal(err)
	}
	return cs
}

// snapInject runs one fault through a checkpoint set; a background context
// never cancels, so the error is always nil.
func snapInject(cs *fi.CheckpointSet, d fault.Domain, g *fi.Golden, f fi.Fault) fi.Result {
	r, _ := cs.InjectPointContext(context.Background(), d, g, f)
	return r
}

// BenchmarkInjection measures the cost of one full injection run (build
// machine, run to completion under the Hang budget, classify).
func BenchmarkInjection(b *testing.B) {
	img, cfg, g, d := benchGolden(b, npb.Scenario{App: "EP", Mode: npb.Serial, ISA: "armv8", Cores: 1})
	faults := fi.List(3, 64, d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = fi.InjectDomain(img, cfg, g, d, faults[i%len(faults)])
	}
}

// benchInjectionSetup prepares the mid-size scenario shared by the two
// injection-engine benchmarks below.
func benchInjectionSetup(b *testing.B) (*fi.Golden, []fi.Fault, func(fi.Fault) fi.Result, func(fi.Fault) fi.Result, *fi.CheckpointSet) {
	b.Helper()
	img, cfg, g, d := benchGolden(b, npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1})
	faults := fi.List(3, 64, d)
	cs := benchCheckpoints(b, img, cfg, g, fi.CheckpointOptions{N: fi.DefaultCheckpoints})
	reset := func(f fi.Fault) fi.Result { return fi.InjectDomain(img, cfg, g, d, f) }
	snap := func(f fi.Fault) fi.Result { return snapInject(cs, d, g, f) }
	return g, faults, reset, snap, cs
}

// BenchmarkInjectFromReset measures one injection run that re-executes the
// whole machine from reset (the pre-snapshot engine). The instrs/inject
// metric counts simulated guest instructions per injection.
func BenchmarkInjectFromReset(b *testing.B) {
	_, faults, reset, _, _ := benchInjectionSetup(b)
	var instrs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		instrs += reset(faults[i%len(faults)]).Retired
	}
	b.ReportMetric(float64(instrs)/float64(b.N), "instrs/inject")
}

// BenchmarkInjectSnapshot measures the same injections resumed from the
// nearest pre-fault checkpoint. Compare instrs/inject against
// BenchmarkInjectFromReset: the snapshot engine simulates only the
// post-checkpoint suffix (the amortization the README documents), while
// producing bit-identical outcome classifications.
func BenchmarkInjectSnapshot(b *testing.B) {
	_, faults, _, snap, cs := benchInjectionSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = snap(faults[i%len(faults)])
	}
	b.StopTimer()
	executed, fromReset := cs.SimulatedInstructions()
	b.ReportMetric(float64(executed)/float64(b.N), "instrs/inject")
	if executed > 0 {
		b.ReportMetric(float64(fromReset)/float64(executed), "amortization-x")
	}
	b.ReportMetric(float64(cs.MemBytes()), "resident-B")
}

// BenchmarkInjectSnapshotFullCopy is BenchmarkInjectSnapshot on the
// retained full-copy checkpoint engine (fi.CheckpointOptions.FullCopy) —
// the "before" side of the copy-on-write comparison. instrs/inject must
// match BenchmarkInjectSnapshot exactly: the delta encoding changes
// restore cost and resident bytes, never what gets simulated.
func BenchmarkInjectSnapshotFullCopy(b *testing.B) {
	img, cfg, g, d := benchGolden(b, npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1})
	faults := fi.List(3, 64, d)
	cs := benchCheckpoints(b, img, cfg, g, fi.CheckpointOptions{N: fi.DefaultCheckpoints, FullCopy: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = snapInject(cs, d, g, faults[i%len(faults)])
	}
	b.StopTimer()
	executed, _ := cs.SimulatedInstructions()
	b.ReportMetric(float64(executed)/float64(b.N), "instrs/inject")
	b.ReportMetric(float64(cs.MemBytes()), "resident-B")
}

// BenchmarkCheckpointRestore isolates mach.Restore itself on the same two
// machine states captured both ways. The cow sub-benchmark alternates
// between a root snapshot and its delta on a live machine — the pooled
// injection path — so each restore rewrites only the pages on the chain
// between them. The fullcopy sub-benchmark alternates between two
// independent full snapshots of the same states, forcing the full
// materialize + decode-cache flush every time (the pre-PR engine's cost).
func BenchmarkCheckpointRestore(b *testing.B) {
	sc := npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}
	img, cfg, err := npb.BuildScenario(sc)
	if err != nil {
		b.Fatal(err)
	}
	capture := func(delta bool) (*mach.Machine, *mach.Snapshot, *mach.Snapshot) {
		m := mach.New(cfg)
		img.InstallTo(m)
		m.SetInstrBudget(1_000_000) // budget is total retired instructions
		m.Run(20_000_000_000)
		a := m.Snapshot()
		m.SetInstrBudget(2_000_000)
		m.Run(20_000_000_000)
		if delta {
			return m, a, m.DeltaSnapshot()
		}
		return m, a, m.Snapshot()
	}
	for _, bc := range []struct {
		name  string
		delta bool
	}{{"cow", true}, {"fullcopy", false}} {
		b.Run(bc.name, func(b *testing.B) {
			m, a, z := capture(bc.delta)
			if a.Retired() == z.Retired() {
				b.Fatal("snapshots coincide; nothing to restore between")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%2 == 0 {
					m.Restore(a)
				} else {
					m.Restore(z)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(a.MemBytes()+z.MemBytes()), "snap-B")
		})
	}
}

// BenchmarkScenarioBuild measures compile+link of a full software stack.
func BenchmarkScenarioBuild(b *testing.B) {
	for _, isaName := range []string{"armv7", "armv8"} {
		b.Run(isaName, func(b *testing.B) {
			sc := npb.Scenario{App: "CG", Mode: npb.OMP, ISA: isaName, Cores: 4}
			for i := 0; i < b.N; i++ {
				if _, _, err := npb.BuildScenario(sc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecode measures the two instruction decoders.
func BenchmarkDecode(b *testing.B) {
	words := make([]uint32, 4096)
	for i := range words {
		words[i] = uint32(i*2654435761 + 12345)
	}
	b.Run("armv7", func(b *testing.B) {
		codec := armv7.New()
		for i := 0; i < b.N; i++ {
			_ = codec.Decode(words[i%len(words)])
		}
	})
	b.Run("armv8", func(b *testing.B) {
		codec := armv8.New()
		for i := 0; i < b.N; i++ {
			_ = codec.Decode(words[i%len(words)])
		}
	})
}

// BenchmarkExecHot measures raw execute-loop cost in ns per retired guest
// instruction on the IS and MG hot loops — the paper's simulation-rate
// bottleneck — across both parallel modes and both ISAs. The slowpath
// sub-benchmarks drive the retained reference interpreter (the `-slowpath`
// escape hatch); the fast sub-benchmarks drive the block-cached dispatch
// path. Both must retire the same instruction count (the determinism
// contract); the benchmark fails if they ever disagree.
func BenchmarkExecHot(b *testing.B) {
	type combo struct {
		app  string
		mode npb.Mode
	}
	combos := []combo{{"IS", npb.OMP}, {"IS", npb.MPI}, {"MG", npb.OMP}, {"MG", npb.MPI}}
	for _, isaName := range []string{"armv7", "armv8"} {
		for _, cb := range combos {
			sc := npb.Scenario{App: cb.app, Mode: cb.mode, ISA: isaName, Cores: 2}
			var fastRetired, slowRetired uint64
			for _, path := range []string{"fast", "slowpath"} {
				b.Run(fmt.Sprintf("%s/%s-%s/%s", isaName, cb.app, cb.mode, path), func(b *testing.B) {
					img, cfg, err := npb.BuildScenario(sc)
					if err != nil {
						b.Fatal(err)
					}
					cfg.SlowPath = path == "slowpath"
					var retired uint64
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						// Machine construction (RAM allocation + image
						// install) is excluded: the metric is the execute
						// loop's cost per retired instruction.
						b.StopTimer()
						m := mach.New(cfg)
						img.InstallTo(m)
						b.StartTimer()
						if stop := m.Run(20_000_000_000); stop != mach.StopHalted {
							b.Fatalf("stop = %v", stop)
						}
						retired = m.TotalRetired
					}
					b.StopTimer()
					b.ReportMetric(b.Elapsed().Seconds()*1e9/(float64(retired)*float64(b.N)), "ns/instr")
					if path == "fast" {
						fastRetired = retired
					} else {
						slowRetired = retired
					}
				})
			}
			if fastRetired != 0 && slowRetired != 0 && fastRetired != slowRetired {
				b.Fatalf("%s %s: fast retired %d, slowpath retired %d", sc.ID(), "paths diverged", fastRetired, slowRetired)
			}
		}
	}
}

// BenchmarkCampaignThroughput reports faults/second for a small campaign
// (the paper's cluster-scheduling concern, §3.2.4).
func BenchmarkCampaignThroughput(b *testing.B) {
	sc := npb.Scenario{App: "IS", Mode: npb.OMP, ISA: "armv8", Cores: 2}
	n := benchFaults()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := campaign.New(campaign.Faults(n)).
			RunMatrix(context.Background(), []campaign.ScenarioJob{{Scenario: sc, Seed: int64(i)}})
		if err != nil {
			b.Fatal(err)
		}
		if res[0].Counts.Total() != n {
			b.Fatal("missing classifications")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "faults/s")
}

// ExampleFigure1 pins the static artefact's head for documentation.
func ExampleFigure1() {
	out := exp.Figure1()
	fmt.Println(out[:36])
	// Output: Figure 1: processor evolution 1970-2
}

// BenchmarkPropTrace measures one propagation trace — the lockstep
// golden-twin walk behind -trace-prop — over the unmasked faults of the
// pinned IS register campaign. Compare instrs/trace against the
// instrs/inject of BenchmarkInjectSnapshot: a trace re-positions two twins
// on the checkpoint set and walks both to termination, so roughly two
// snapshot injections plus the boundary comparisons is the expected cost
// per traced (i.e. unmasked) run; masked runs are never traced.
func BenchmarkPropTrace(b *testing.B) {
	img, cfg, g, d := benchGolden(b, npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1})
	cs := benchCheckpoints(b, img, cfg, g, fi.CheckpointOptions{N: fi.DefaultCheckpoints})
	var unmasked []fi.Fault
	for _, f := range fi.List(99, 16, d) {
		if r := snapInject(cs, d, g, f); r.Outcome != fi.Vanished && r.Outcome != fi.ONA {
			unmasked = append(unmasked, f)
		}
	}
	if len(unmasked) == 0 {
		b.Fatal("pinned seed produced no unmasked faults")
	}
	tr := prop.NewTracer(img, cfg, g, cs)
	var instrs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := unmasked[i%len(unmasked)]
		trace, _, err := tr.Trace(d, f)
		if err != nil {
			b.Fatal(err)
		}
		if trace.ArchInstr >= 0 {
			instrs += uint64(trace.ArchInstr)
		}
	}
	b.ReportMetric(float64(instrs)/float64(b.N), "divergence-instrs")
}
