package fi_test

import (
	"context"
	"errors"
	"testing"

	"serfi/internal/fi"
	"serfi/internal/npb"
)

// TestCheckpointInjectMatchesReset is the engine's core correctness claim:
// for every fault, restoring from a pre-fault snapshot yields the exact
// Result (outcome, retired count, cycle count, exit status) of a from-reset
// run, on both a serial and a multicore OMP scenario.
func TestCheckpointInjectMatchesReset(t *testing.T) {
	for _, sc := range []npb.Scenario{
		{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1},
		{App: "EP", Mode: npb.OMP, ISA: "armv8", Cores: 2},
	} {
		t.Run(sc.ID(), func(t *testing.T) {
			img, cfg, g := golden(t, sc)
			cs := checkpoints(t, img, cfg, g, 6)
			if cs.Len() == 0 {
				t.Fatal("no checkpoints captured")
			}
			d := registerDomain(t, img, cfg, g)
			faults := fi.List(11, 12, d)
			// Include the hardest edge: a fault at the first committed
			// instruction of the lifespan and at the last.
			faults = append(faults,
				fi.Fault{Index: 0, Core: 0, Reg: 3, Bit: 5},
				fi.Fault{Index: g.AppEnd - g.AppStart - 1, Core: 0, Reg: 3, Bit: 5})
			for i, f := range faults {
				want := fi.InjectDomain(img, cfg, g, d, f)
				got := inject(t, cs, d, g, f)
				if got != want {
					t.Errorf("fault %d (%s): snapshot run %+v != reset run %+v", i, f, got, want)
				}
			}
			exec, reset := cs.SimulatedInstructions()
			if exec == 0 || reset == 0 || exec >= reset {
				t.Errorf("no amortization: executed %d of %d from-reset instructions", exec, reset)
			}
		})
	}
}

// TestCheckpointOptionsBitIdentical pins the delta-checkpoint engine
// against its retained full-copy reference at the fi layer: the same fault
// list injected through a default (COW) set, a FullCopy set and a spilled
// set yields identical Results and identical savings/prune telemetry —
// while the capture telemetry shows the delta chain actually paying pages
// instead of RAM images.
func TestCheckpointOptionsBitIdentical(t *testing.T) {
	sc := npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}
	img, cfg, g := golden(t, sc)
	build := func(opt fi.CheckpointOptions) *fi.CheckpointSet {
		opt.N = 6
		cs, err := fi.BuildCheckpointsOpt(context.Background(), img, cfg, g, opt)
		if err != nil {
			t.Fatal(err)
		}
		return cs
	}
	cow := build(fi.CheckpointOptions{})
	full := build(fi.CheckpointOptions{FullCopy: true})
	spill := build(fi.CheckpointOptions{SpillDir: t.TempDir()})
	defer spill.Close()

	// Capture telemetry: the delta chain holds a fraction of the full-copy
	// payload, MemBytes equals the last checkpoint's ChainBytes on a linear
	// chain, and a spilled set keeps its payload on disk instead of in RAM.
	if cow.MemBytes() >= full.MemBytes() {
		t.Errorf("delta chain (%d bytes) not smaller than full copies (%d bytes)", cow.MemBytes(), full.MemBytes())
	}
	if cow.MemBytes() == 0 {
		t.Error("delta chain retained no RAM")
	}
	if full.SpilledBytes() != 0 || cow.SpilledBytes() != 0 {
		t.Error("unspilled sets report spilled bytes")
	}
	if spill.MemBytes() != 0 {
		t.Errorf("spilled set still holds %d bytes in RAM", spill.MemBytes())
	}
	if spill.SpilledBytes() != cow.MemBytes() {
		t.Errorf("spilled payload %d != in-RAM payload %d of the identical build", spill.SpilledBytes(), cow.MemBytes())
	}

	d := registerDomain(t, img, cfg, g)
	for i, f := range fi.List(17, 8, d) {
		want := inject(t, cow, d, g, f)
		if got := inject(t, full, d, g, f); got != want {
			t.Errorf("fault %d (%s): full-copy %+v != cow %+v", i, f, got, want)
		}
		if got := inject(t, spill, d, g, f); got != want {
			t.Errorf("fault %d (%s): spilled %+v != cow %+v", i, f, got, want)
		}
	}
	cowSim, cowReset := cow.SimulatedInstructions()
	for name, cs := range map[string]*fi.CheckpointSet{"full": full, "spill": spill} {
		sim, reset := cs.SimulatedInstructions()
		if sim != cowSim || reset != cowReset {
			t.Errorf("%s telemetry sim=%d reset=%d != cow sim=%d reset=%d", name, sim, reset, cowSim, cowReset)
		}
		p, tot := cs.PruneStats()
		cp, ctot := cow.PruneStats()
		if p != cp || tot != ctot {
			t.Errorf("%s prune %d/%d != cow %d/%d", name, p, tot, cp, ctot)
		}
	}
}

// TestBuildCheckpointsSpansLifespan checks placement: all snapshots sit
// strictly below the end of the lifespan, the first strictly below its start.
func TestBuildCheckpointsSpansLifespan(t *testing.T) {
	sc := npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv7", Cores: 1}
	img, cfg, g := golden(t, sc)
	cs := checkpoints(t, img, cfg, g, 4)
	if cs.Len() != 4 {
		t.Fatalf("checkpoints = %d, want 4", cs.Len())
	}
	if cs.MemBytes() == 0 {
		t.Error("checkpoints retained no RAM")
	}
	// Zero checkpoints: valid, every injection falls back to reset.
	empty := checkpoints(t, img, cfg, g, 0)
	d := registerDomain(t, img, cfg, g)
	f := fi.Fault{Index: 1, Core: 0, Reg: 2, Bit: 9}
	if got, want := inject(t, empty, d, g, f), fi.InjectDomain(img, cfg, g, d, f); got != want {
		t.Errorf("empty-set inject %+v != reset %+v", got, want)
	}
}

// TestContextCancellation: every context-aware fi entry point returns
// ctx.Err() promptly when the context is already cancelled, and a live
// context reproduces the from-reset reference bit for bit.
func TestContextCancellation(t *testing.T) {
	sc := npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}
	img, cfg, g := golden(t, sc)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := fi.RunGoldenContext(cancelled, img, cfg, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("RunGoldenContext err = %v, want context.Canceled", err)
	}
	if _, err := fi.BuildCheckpointsOpt(cancelled, img, cfg, g, fi.CheckpointOptions{N: 4}); !errors.Is(err, context.Canceled) {
		t.Errorf("BuildCheckpointsOpt err = %v, want context.Canceled", err)
	}
	cs := checkpoints(t, img, cfg, g, 4)
	d := registerDomain(t, img, cfg, g)
	f := fi.Fault{Index: 7, Core: 0, Reg: 2, Bit: 3}
	if _, err := cs.InjectPointContext(cancelled, d, g, f); !errors.Is(err, context.Canceled) {
		t.Errorf("InjectPointContext err = %v, want context.Canceled", err)
	}
	// An aborted run never counts toward the set's telemetry.
	if _, total := cs.PruneStats(); total != 0 {
		t.Errorf("aborted run counted: total = %d", total)
	}

	// The live-context path is the from-reset path, bit for bit.
	got := inject(t, cs, d, g, f)
	if want := fi.InjectDomain(img, cfg, g, d, f); got != want {
		t.Errorf("ctx inject %+v != from-reset inject %+v", got, want)
	}
	g2, err := fi.RunGoldenContext(context.Background(), img, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Retired != g.Retired || g2.Cycles != g.Cycles || g2.MemHash != g.MemHash || g2.RegHash != g.RegHash {
		t.Errorf("ctx golden diverged: %+v vs %+v", g2, g)
	}
}
