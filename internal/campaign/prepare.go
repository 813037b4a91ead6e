// The one preparation path of a scenario: phases 1 and 2 of the paper's
// workflow (golden run plus profiling, fault list) and the injection
// primitive of phase 3. The local Engine and the distributed worker both
// prepare scenarios and inject fault ranges through here, so the two
// execution fabrics cannot drift apart.
package campaign

import (
	"context"
	"fmt"
	"time"

	"serfi/internal/cc"
	"serfi/internal/fault"
	"serfi/internal/fi"
	"serfi/internal/mach"
	"serfi/internal/npb"
	"serfi/internal/obs"
	"serfi/internal/profile"
	"serfi/internal/prop"
)

// DefaultSamplePeriod is the golden profiling sample period of every
// prepared scenario, local or remote, so Features match across fabrics.
const DefaultSamplePeriod = 97

// Prepared is one scenario's fault-free state: the built image, the
// profiled golden reference, its features, the base checkpoint set and a
// propagation tracer over it. It is read-only after Prepare and shared by
// every fault domain and injection batch of the scenario.
type Prepared struct {
	Golden   *fi.Golden
	Features profile.Features
	APICalls uint64 // calls into the parallelization runtime
	// Checkpoints is the base set; Inject runs each batch through a clone
	// carrying that batch's own telemetry.
	Checkpoints *fi.CheckpointSet
	// GoldenWallSec is the host time of the build and golden phases.
	GoldenWallSec float64

	img    *cc.Image
	cfg    mach.Config
	tracer *prop.Tracer
}

// Prepare builds a scenario, runs its profiled golden reference (sample
// period DefaultSamplePeriod), extracts its profile features and
// fast-forwards its checkpoints, recording one build/golden/profile/
// checkpoint span each on track tid of tr (nil records nothing). opt.N
// follows the campaign convention: 0 picks fi.DefaultCheckpoints and a
// negative count disables snapshots (every injection runs from reset).
func Prepare(ctx context.Context, sc npb.Scenario, opt fi.CheckpointOptions, tr *obs.Tracer, tid int) (*Prepared, error) {
	t0 := time.Now()
	end := tr.Start("build", "build", tid, nil)
	img, cfg, err := npb.BuildScenario(sc)
	end()
	if err != nil {
		return nil, err
	}
	gcfg := cfg
	gcfg.Profile = true
	gcfg.SamplePeriod = DefaultSamplePeriod
	end = tr.Start("golden", "golden", tid, nil)
	g, err := fi.RunGoldenContext(ctx, img, gcfg, 0)
	end()
	if err != nil {
		return nil, err
	}
	p := &Prepared{Golden: g, GoldenWallSec: time.Since(t0).Seconds(), img: img, cfg: cfg}

	end = tr.Start("profile", "profile", tid, nil)
	p.Features = profile.Extract(img, g.Machine)
	p.APICalls = profile.Build(img, g.Machine).CallsTo(profile.RuntimePrefixes...)
	end()

	switch {
	case opt.N == 0:
		opt.N = fi.DefaultCheckpoints
	case opt.N < 0:
		opt.N = 0
	}
	end = tr.Start("checkpoint", "checkpoint", tid, nil)
	p.Checkpoints, err = fi.BuildCheckpointsOpt(ctx, img, cfg, g, opt)
	end()
	if err != nil {
		return nil, err
	}
	p.tracer = prop.NewTracer(img, cfg, g, p.Checkpoints)
	return p, nil
}

// Summary returns the golden run's headline numbers.
func (p *Prepared) Summary() GoldenSummary {
	g := p.Golden
	return GoldenSummary{AppStart: g.AppStart, AppEnd: g.AppEnd, Retired: g.Retired, Cycles: g.Cycles}
}

// Close releases the checkpoint spill file, if any. No injection may be in
// flight.
func (p *Prepared) Close() error { return p.Checkpoints.Close() }

// Faults builds one fault model's domain over the scenario and draws the
// campaign's n seeded faults from it (phase 2).
func (p *Prepared) Faults(model fault.Model, seed int64, n int) (fault.Domain, []fi.Fault, error) {
	d, err := fi.NewDomain(model, p.img, p.cfg, p.Golden)
	if err != nil {
		return nil, nil, err
	}
	return d, fi.List(seed, n, d), nil
}

// Batch is the outcome of one injected fault range.
type Batch struct {
	Runs []fi.Result
	// Traces is parallel to Runs when the batch was traced (nil entries
	// for masked runs) and nil otherwise.
	Traces []*prop.Trace
	// Snapshot telemetry: instructions simulated versus their from-reset
	// cost, and runs scored by convergence pruning. All zero when the
	// scenario runs without checkpoints.
	SimulatedInstr uint64
	FromResetInstr uint64
	PrunedRuns     int
}

// Inject runs faults[lo:hi] in index order through a clone of the
// checkpoint set and, when trace is set, re-runs every unmasked fault
// through the propagation tracer. Every run is independent, so the
// concatenation of any split of a fault list equals one batch over all of
// it. Cancellation returns ctx.Err(); a tracer failure returns a wrapped
// error.
func (p *Prepared) Inject(ctx context.Context, d fault.Domain, faults []fi.Fault, lo, hi int, trace bool) (Batch, error) {
	if lo < 0 || hi > len(faults) || lo > hi {
		return Batch{}, fmt.Errorf("campaign: fault range [%d, %d) outside list of %d", lo, hi, len(faults))
	}
	cs := p.Checkpoints.Clone()
	b := Batch{Runs: make([]fi.Result, hi-lo)}
	if trace {
		b.Traces = make([]*prop.Trace, hi-lo)
	}
	for i := lo; i < hi; i++ {
		r, err := cs.InjectPointContext(ctx, d, p.Golden, faults[i])
		if err != nil {
			return Batch{}, err
		}
		b.Runs[i-lo] = r
		if trace && fi.IsUnmasked(r.Outcome) {
			tr, _, err := p.tracer.Trace(d, faults[i])
			if err != nil {
				return Batch{}, fmt.Errorf("propagation trace %v: %w", faults[i], err)
			}
			b.Traces[i-lo] = &tr
		}
	}
	if cs.Len() > 0 {
		b.SimulatedInstr, b.FromResetInstr = cs.SimulatedInstructions()
		pruned, _ := cs.PruneStats()
		b.PrunedRuns = int(pruned)
	}
	return b, nil
}
