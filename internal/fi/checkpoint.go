// Checkpoint-accelerated injection: instead of re-executing every faulty
// machine from reset, a CheckpointSet fast-forwards one fault-free machine
// through the application lifespan once, capturing snapshots at evenly
// spaced committed-instruction boundaries. Each injection run then restores
// the nearest snapshot strictly below its fault index and simulates only the
// remaining suffix. Because a snapshot restores the complete machine state
// (registers, RAM, caches, console, counters), the suffix interleaves and
// classifies bit-for-bit like a from-reset run: campaigns with checkpoints
// on and off produce identical Counts.
package fi

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"serfi/internal/cc"
	"serfi/internal/fault"
	"serfi/internal/mach"
	"serfi/internal/mem"
)

// DefaultCheckpoints is the per-scenario snapshot count campaigns use when
// the caller does not choose one. More checkpoints shorten the average
// restored suffix; since each checkpoint is a delta holding only the pages
// dirtied since its predecessor, the memory cost grows with pages written,
// not with RAM images retained.
const DefaultCheckpoints = 8

// CheckpointSet holds the pre-fault snapshots of one scenario, plus the
// image and configuration needed to stamp out machines. It is safe for
// concurrent use by any number of injection workers.
type CheckpointSet struct {
	img   *cc.Image
	cfg   mach.Config
	snaps []*mach.Snapshot // ascending by Retired(); a delta chain unless FullCopy

	// pool recycles injection machines across injection runs (delta path
	// only). A pooled machine's memory keeps its tracking base, so restoring
	// the next fault's checkpoint rewrites just the pages that differ along
	// the chain instead of the whole RAM image — the restore-cost win this
	// engine exists for. Shared by Clone so all domains of a scenario reuse
	// the same warm machines.
	pool *sync.Pool

	// spill owns the on-disk page store when the set was built with a
	// SpillDir; only the originally built set holds it (clones share the
	// snapshots, not the file's ownership).
	spill *mem.Spill

	// simulated accumulates retired instructions executed by injection runs;
	// fromReset accumulates what those runs would have retired from reset.
	// The ratio is the engine's amortization win (reported by benchmarks).
	simulated atomic.Uint64
	fromReset atomic.Uint64
	// pruned/total count convergence-pruned versus all injection runs (the
	// per-scenario prune rate of campaign summaries).
	pruned atomic.Uint64
	total  atomic.Uint64
}

// CheckpointOptions configures BuildCheckpointsOpt.
type CheckpointOptions struct {
	// N is the checkpoint count; n <= 0 yields an empty set (every
	// injection runs from reset).
	N int
	// SpillDir, when non-empty, moves every checkpoint's RAM payload into
	// an unlinked temp file under that directory after the build; restores
	// reload pages lazily via pread. Close releases the file.
	SpillDir string
	// FullCopy captures each checkpoint as a complete sparse RAM copy and
	// runs every injection on a fresh machine — the pre-delta engine,
	// retained as a differential reference and as the "before" side of
	// checkpoint benchmarks. Results are bit-identical either way.
	FullCopy bool
}

// BuildCheckpointsOpt executes the fault-free machine once up to the last
// checkpoint, capturing opt.N snapshots spread over the application
// lifespan recorded in g. The first checkpoint sits one instruction before
// the lifespan opens so that every possible fault index has a snapshot
// strictly below it. The fast-forward polls ctx between run slices and
// returns ctx.Err() when cancelled. By default each checkpoint after the
// first is captured as a delta holding only the pages dirtied since its
// predecessor — the fast-forwarding machine's dirty bitmap is reset at
// every capture, so the chain falls out of the run itself with no extra
// page comparisons beyond the dirty set.
func BuildCheckpointsOpt(ctx context.Context, img *cc.Image, cfg mach.Config, g *Golden, opt CheckpointOptions) (*CheckpointSet, error) {
	cs := &CheckpointSet{img: img, cfg: cfg}
	if opt.N <= 0 {
		return cs, nil
	}
	m := mach.New(cfg)
	img.InstallTo(m)
	budget := hangBudget(g)
	span := g.AppEnd - g.AppStart
	last := uint64(0)
	for k := 0; k < opt.N; k++ {
		target := g.AppStart - 1 + span*uint64(k)/uint64(opt.N)
		if target <= last && k > 0 {
			continue // lifespan shorter than the checkpoint count
		}
		stop, err := runCtx(ctx, m, target, budget)
		if err != nil {
			return nil, err
		}
		if stop != mach.StopInstrBudget {
			return nil, fmt.Errorf("fi: checkpoint fast-forward stopped early: %v at %d (target %d)",
				stop, m.TotalRetired, target)
		}
		if opt.FullCopy {
			cs.snaps = append(cs.snaps, m.Snapshot())
		} else {
			// The first capture has no base and falls back to a full copy;
			// every later one chains to its predecessor.
			cs.snaps = append(cs.snaps, m.DeltaSnapshot())
		}
		last = target
	}
	if opt.SpillDir != "" {
		sp, err := mem.NewSpill(opt.SpillDir)
		if err != nil {
			return nil, err
		}
		for _, s := range cs.snaps {
			if err := s.SpillTo(sp); err != nil {
				sp.Close()
				return nil, err
			}
		}
		cs.spill = sp
	}
	if !opt.FullCopy {
		cfg := cfg
		cs.pool = &sync.Pool{New: func() any { return mach.New(cfg) }}
	}
	return cs, nil
}

// Clone returns a set sharing this set's snapshots — immutable and safe to
// share — but with fresh savings/prune counters, so concurrent injection
// batches over the same scenario pay the checkpoint fast-forward once yet
// attribute their telemetry separately. The machine
// pool is shared too (all clones restore from the same chain); spill-file
// ownership is not — Close on a clone is a no-op.
func (cs *CheckpointSet) Clone() *CheckpointSet {
	return &CheckpointSet{img: cs.img, cfg: cs.cfg, snaps: cs.snaps, pool: cs.pool}
}

// Close releases the spill file backing this set's checkpoints, if any.
// Only the set BuildCheckpointsOpt returned owns the file; it must not be
// closed while any injection that could restore a spilled checkpoint — on
// this set or any Clone — is still in flight.
func (cs *CheckpointSet) Close() error {
	sp := cs.spill
	cs.spill = nil
	if sp == nil {
		return nil
	}
	return sp.Close()
}

// Len returns the number of captured snapshots.
func (cs *CheckpointSet) Len() int { return len(cs.snaps) }

// MemBytes returns the total in-memory payload of all retained RAM pages
// (telemetry). On the delta path this sums each checkpoint's own pages —
// equal to the last checkpoint's ChainBytes for a linear chain — and is a
// small fraction of the full-copy cost; after a spill it approaches zero.
func (cs *CheckpointSet) MemBytes() int {
	n := 0
	for _, s := range cs.snaps {
		n += s.MemBytes()
	}
	return n
}

// SpilledBytes returns the total RAM payload the set keeps on disk
// (telemetry; zero unless built with a SpillDir).
func (cs *CheckpointSet) SpilledBytes() int {
	n := 0
	for _, s := range cs.snaps {
		n += s.SpilledBytes()
	}
	return n
}

// nearest returns the latest snapshot strictly before the absolute retired-
// instruction index at which a fault fires, or nil if none qualifies. The
// bound is strict because the injection hook triggers while committing
// instruction injectAt: a snapshot taken at that exact boundary has already
// retired it, and the fault would never fire.
func (cs *CheckpointSet) nearest(injectAt uint64) *mach.Snapshot {
	i := sort.Search(len(cs.snaps), func(i int) bool {
		return cs.snaps[i].Retired() >= injectAt
	})
	if i == 0 {
		return nil
	}
	return cs.snaps[i-1]
}

// RestoreNearest positions m at the latest checkpoint strictly before
// injectAt and reports whether one was found; when none qualifies (or the
// set is empty) the machine is left untouched and the caller should install
// the image from reset. Exported for the propagation tracer, whose twin
// machines must reach the injection boundary by exactly the restore path a
// campaign run took — restore telemetry is deliberately not recorded, so
// tracing does not skew the injection engine's own metrics.
func (cs *CheckpointSet) RestoreNearest(m *mach.Machine, injectAt uint64) bool {
	s := cs.nearest(injectAt)
	if s == nil {
		return false
	}
	m.Restore(s)
	return true
}

// InjectPointContext runs one fault of any domain, restoring the nearest
// pre-fault snapshot instead of booting from reset when one is available.
// The Result is bit-identical to InjectDomain(img, cfg, g, d, p).
//
// On top of snapshot restarts, InjectPointContext prunes converged runs:
// execution pauses at each later checkpoint boundary, and if the faulty
// machine's complete state is bit-identical to the fault-free snapshot
// there, its continuation is provably the golden continuation — the run is
// scored Vanished with the golden run's terminal numbers without
// simulating the remaining suffix. Most masked register faults (a flipped
// bit that is overwritten before being read) converge at the first
// boundary after injection, which is where the bulk of the engine's
// simulated-instruction savings comes from. Faults whose flip persists in
// RAM (an instruction word, a data word the program never rewrites) can
// never converge and run to completion.
//
// The run polls ctx between checkpoint-boundary stages and between suffix
// run slices. A cancelled run returns ctx.Err() with a zero Result and
// leaves the set's telemetry counters untouched (an aborted run never
// counts).
func (cs *CheckpointSet) InjectPointContext(ctx context.Context, d fault.Domain, g *Golden, p Fault) (Result, error) {
	var m *mach.Machine
	injectAt := g.AppStart + p.Index
	if s := cs.nearest(injectAt); s != nil {
		if cs.pool != nil {
			// A recycled machine still carries its last restore as the
			// memory's tracking base, so this Restore rewrites only the
			// pages that differ along the chain between the two
			// checkpoints. Restore overwrites all execution state and
			// armFault/runCtx re-arm the injection hook and instruction
			// budget, so no other cleaning is needed.
			m = cs.pool.Get().(*mach.Machine)
			defer cs.pool.Put(m)
		} else {
			m = mach.New(cs.cfg)
		}
		t0 := time.Now()
		m.Restore(s)
		obsRestoreSeconds.Observe(time.Since(t0).Seconds())
	} else {
		m = mach.New(cs.cfg)
		cs.img.InstallTo(m)
		obsFromResetRuns.Inc()
	}
	start := m.TotalRetired
	armFault(m, d, g, p)
	budget := hangBudget(g)

	res, pruned := Result{}, false
	stop := mach.StopInstrBudget
	// Run in stages, pausing at each checkpoint boundary past the fault.
	next := sort.Search(len(cs.snaps), func(i int) bool {
		return cs.snaps[i].Retired() > injectAt
	})
	for ; next < len(cs.snaps); next++ {
		var err error
		if stop, err = runCtx(ctx, m, cs.snaps[next].Retired(), budget); err != nil {
			return Result{}, err
		}
		if stop != mach.StopInstrBudget {
			break // halted, hung or deadlocked before the boundary
		}
		if cs.snaps[next].StateEquals(m) {
			// Converged: the rest of the run is the golden run.
			res = Result{
				Fault:    p,
				Outcome:  Vanished,
				Retired:  g.Retired,
				Cycles:   g.Cycles,
				ExitCode: g.ExitCode,
				Signal:   g.Signal,
			}
			pruned = true
			break
		}
	}
	if !pruned {
		if stop == mach.StopInstrBudget {
			var err error
			if stop, err = runCtx(ctx, m, 0, budget); err != nil {
				return Result{}, err
			}
		}
		res = finishFault(m, g, p, stop)
	}
	cs.simulated.Add(m.TotalRetired - start)
	cs.fromReset.Add(res.Retired)
	cs.total.Add(1)
	if pruned {
		cs.pruned.Add(1)
		obsPruned.Inc()
	}
	obsInstrsPerInject.Observe(float64(m.TotalRetired - start))
	obsInjections.Inc()
	return res, nil
}

// SimulatedInstructions returns (executed, fromReset): retired instructions
// actually simulated by this set's injection runs versus what the same runs
// would have cost from reset.
func (cs *CheckpointSet) SimulatedInstructions() (executed, fromReset uint64) {
	return cs.simulated.Load(), cs.fromReset.Load()
}

// PruneStats returns (pruned, total): injection runs scored by convergence
// pruning versus all runs injected through this set.
func (cs *CheckpointSet) PruneStats() (pruned, total uint64) {
	return cs.pruned.Load(), cs.total.Load()
}
