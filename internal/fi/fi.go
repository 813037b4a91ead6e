// Package fi implements the paper's fault-injection methodology (§3.2):
// the four-phase workflow (golden execution, fault-list generation,
// injection runs, report assembly) and the Cho et al. outcome
// classification (Vanished / ONA / OMM / UT / Hang). The fault model
// itself is pluggable: every phase is generic over a fault.Domain — the
// register single-bit-upset space of the paper, data words in guest RAM,
// instruction words, or register bit bursts (internal/fault). The fault.Reg
// domain draws bit-identical fault lists to the pre-domain injector at the
// same seed.
package fi

import (
	"context"
	"fmt"
	"math/rand"

	"serfi/internal/cc"
	"serfi/internal/fault"
	"serfi/internal/mach"
)

// HangFactor multiplies the golden cycle count to obtain the fault-run
// budget; a run still alive past it is classified Hang.
const HangFactor = 3

// HangSlack is added on top for very short workloads.
const HangSlack = 500_000

// Golden is the phase-1 reference record.
type Golden struct {
	AppStart uint64 // retired-instruction index at the app-start beacon
	AppEnd   uint64 // retired-instruction index at app exit
	Retired  uint64 // total retired instructions at halt
	Cycles   uint64 // machine time (max per-core cycles)
	Console  string
	MemHash  uint64
	RegHash  uint64
	ExitCode int
	Signal   int

	Stats   mach.CoreStats   // totals over cores
	PerCore []mach.CoreStats // per-core counters
	L2Miss  float64
	L1DMiss float64
	Machine *mach.Machine // retained for profiling inspection
}

// ctxCheckInterval is how many committed instructions a context-aware run
// executes between cancellation polls. Pausing at a retired-instruction
// boundary and resuming is state-preserving (the checkpoint stage loop
// depends on the same property), so the interval only trades cancellation
// latency against polling overhead.
const ctxCheckInterval = 8 << 20

// runCtx drives m.Run in committed-instruction slices, polling ctx between
// slices. target, when non-zero, is an absolute retired-instruction bound
// (the machine stops with StopInstrBudget on reaching it, exactly like
// SetInstrBudget(target) + Run); zero means run until a non-budget stop.
// The returned error is ctx.Err() and the StopReason is meaningless then.
func runCtx(ctx context.Context, m *mach.Machine, target, budget uint64) (mach.StopReason, error) {
	for {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		next := m.TotalRetired + ctxCheckInterval
		if target != 0 && next > target {
			next = target
		}
		m.SetInstrBudget(next)
		stop := m.Run(budget)
		if stop != mach.StopInstrBudget {
			return stop, nil
		}
		if target != 0 && m.TotalRetired >= target {
			return stop, nil
		}
	}
}

// RunGoldenContext executes the faultless reference for an image/config
// pair (phase 1). The run polls ctx every few million committed
// instructions and returns ctx.Err() when cancelled; budget 0 picks a
// generous cycle bound.
func RunGoldenContext(ctx context.Context, img *cc.Image, cfg mach.Config, budget uint64) (*Golden, error) {
	m := mach.New(cfg)
	img.InstallTo(m)
	if budget == 0 {
		budget = 30_000_000_000
	}
	stop, err := runCtx(ctx, m, 0, budget)
	if err != nil {
		return nil, err
	}
	m.SetInstrBudget(0) // clear the polling slice bound on the retained machine
	if stop != mach.StopHalted {
		return nil, fmt.Errorf("fi: golden run did not halt: %v (retired %d)", stop, m.TotalRetired)
	}
	if !m.AppExited || m.AppSignal != 0 || m.AppExitCode != 0 {
		return nil, fmt.Errorf("fi: golden run failed in-guest: exit=%d sig=%d", m.AppExitCode, m.AppSignal)
	}
	if m.AppStartRetired == 0 || m.AppEndRetired <= m.AppStartRetired {
		return nil, fmt.Errorf("fi: app lifespan beacons missing")
	}
	g := &Golden{
		AppStart: m.AppStartRetired,
		AppEnd:   m.AppEndRetired,
		Retired:  m.TotalRetired,
		Cycles:   m.MaxCycles(),
		Console:  m.ConsoleString(),
		MemHash:  m.Mem.Hash(),
		RegHash:  m.RegFileHash(),
		ExitCode: m.AppExitCode,
		Signal:   m.AppSignal,
		Stats:    m.TotalStats(),
		Machine:  m,
	}
	for i := range m.Cores {
		g.PerCore = append(g.PerCore, m.Cores[i].Stats)
	}
	var dh, dm, l2h, l2m uint64
	for c := 0; c < cfg.Cores; c++ {
		s := m.Hier.L1DStats(c)
		dh += s.Hits
		dm += s.Misses
	}
	l2 := m.Hier.L2Stats()
	l2h, l2m = l2.Hits, l2.Misses
	if dh+dm > 0 {
		g.L1DMiss = float64(dm) / float64(dh+dm)
	}
	if l2h+l2m > 0 {
		g.L2Miss = float64(l2m) / float64(l2h+l2m)
	}
	return g, nil
}

// Fault is one sampled fault point. The zero Domain is the register
// single-bit-upset model, so legacy literals (Index/Core/Reg/Bit) keep
// their historical meaning.
type Fault = fault.Point

// NewDomain builds the fault domain of one model over one scenario: the
// register-file shape and core count come from the machine configuration,
// the injectable time window from the golden run, and the memory target
// space from the image's mapped region table.
func NewDomain(model fault.Model, img *cc.Image, cfg mach.Config, g *Golden) (fault.Domain, error) {
	return fault.New(model, fault.Env{
		Feat:    cfg.ISA.Feat(),
		Cores:   cfg.Cores,
		Span:    g.AppEnd - g.AppStart,
		Regions: img.Regions,
		Cache:   cfg.Cache,
	})
}

// List is phase 2, domain-generic: n seeded faults drawn from the domain's
// stream. Duplicate (time, location, bit) tuples are deduplicated by
// deterministic resampling — a colliding draw is discarded and the next
// tuple comes from the same stream, so the non-colliding prefix of a list
// is unchanged by the dedup and identical seeds still yield identical
// lists. Once a list has exhausted the domain's whole target space,
// further draws may repeat (a campaign larger than its fault space).
func List(seed int64, n int, d fault.Domain) []Fault {
	r := rand.New(rand.NewSource(seed))
	out := make([]Fault, 0, n)
	seen := make(map[Fault]struct{}, n)
	space := d.Size()
	for len(out) < n {
		p := d.Sample(r)
		if _, dup := seen[p]; dup && uint64(len(seen)) < space {
			continue
		}
		seen[p] = struct{}{}
		out = append(out, p)
	}
	return out
}

// Outcome is the Cho et al. classification (§3.2.2).
type Outcome int

// Outcomes.
const (
	Vanished Outcome = iota // no fault traces are left
	ONA                     // output not affected, architectural state differs
	OMM                     // output mismatch, normal termination
	UT                      // unexpected termination (signal / bad exit / kernel panic)
	Hang                    // did not finish within the cycle budget
	NumOutcomes
)

func (o Outcome) String() string {
	switch o {
	case Vanished:
		return "Vanished"
	case ONA:
		return "ONA"
	case OMM:
		return "OMM"
	case UT:
		return "UT"
	case Hang:
		return "Hang"
	}
	return "?"
}

// Result is one injection-run record.
type Result struct {
	Fault    Fault
	Outcome  Outcome
	Retired  uint64
	Cycles   uint64
	ExitCode int
	Signal   int
}

// InjectDomain runs phase 3 for one fault point of any domain from machine
// reset. The image is read-only and may be shared across goroutines; each
// run gets a fresh machine. Campaigns that amortize the pre-fault prefix
// across faults use CheckpointSet.InjectPointContext instead; both paths
// produce bit-identical Results, and this one stays as their reference.
func InjectDomain(img *cc.Image, cfg mach.Config, g *Golden, d fault.Domain, p Fault) Result {
	m := mach.New(cfg)
	img.InstallTo(m)
	armFault(m, d, g, p)
	stop := m.Run(hangBudget(g))
	return finishFault(m, g, p, stop)
}

// hangBudget is the absolute cycle budget of one injection run.
func hangBudget(g *Golden) uint64 { return g.Cycles*HangFactor + HangSlack }

// armFault installs the injection hook for one fault point: when the
// machine commits instruction AppStart+Index, the domain applies the flip.
func armFault(m *mach.Machine, d fault.Domain, g *Golden, p Fault) {
	m.InjectAt = g.AppStart + p.Index
	m.Inject = func(mm *mach.Machine) { d.Apply(mm, p) }
}

// finishFault classifies a completed injection run.
func finishFault(m *mach.Machine, g *Golden, f Fault, stop mach.StopReason) Result {
	res := Result{
		Fault:    f,
		Retired:  m.TotalRetired,
		Cycles:   m.MaxCycles(),
		ExitCode: m.AppExitCode,
		Signal:   m.AppSignal,
	}
	res.Outcome = classify(m, g, stop)
	return res
}

// Classify maps a finished run against the golden reference using the
// paper's observables only (termination state, console output, memory and
// register-file hashes). Exported for the propagation tracer, which re-runs
// an injection outside the campaign loop and must reach the identical
// verdict; campaign code uses the private classify via finishFault.
func Classify(m *mach.Machine, g *Golden, stop mach.StopReason) Outcome {
	return classify(m, g, stop)
}

// classify maps a finished run against the golden reference.
func classify(m *mach.Machine, g *Golden, stop mach.StopReason) Outcome {
	if stop != mach.StopHalted {
		return Hang // cycle budget exhausted or full-machine deadlock
	}
	if !m.AppExited || m.AppSignal != 0 || m.AppExitCode != g.ExitCode {
		return UT
	}
	if m.ConsoleString() != g.Console {
		return OMM
	}
	if m.Mem.Hash() == g.MemHash && m.RegFileHash() == g.RegHash {
		return Vanished
	}
	return ONA
}

// Counts aggregates outcomes.
type Counts [NumOutcomes]int

// Add accumulates one outcome.
func (c *Counts) Add(o Outcome) { c[o]++ }

// Total returns the number of classified runs.
func (c Counts) Total() int {
	t := 0
	for _, v := range c {
		t += v
	}
	return t
}

// Rate returns the share of outcome o in [0, 1].
func (c Counts) Rate(o Outcome) float64 {
	if t := c.Total(); t > 0 {
		return float64(c[o]) / float64(t)
	}
	return 0
}

// Masking is the fraction of executions without any error (Vanished+ONA),
// the paper's §4.2.2 masking-rate definition.
func (c Counts) Masking() float64 { return c.Rate(Vanished) + c.Rate(ONA) }

// Unmasked counts the runs whose fault escaped masking (OMM + UT + Hang) —
// the numerator of every vulnerability rate the sensitivity layer reports.
func (c Counts) Unmasked() int { return c[OMM] + c[UT] + c[Hang] }

// IsUnmasked reports whether an outcome escaped masking — the Cho et al.
// partition the propagation tracer and the sensitivity layer share.
func IsUnmasked(o Outcome) bool { return o != Vanished && o != ONA }

// String renders like "V=62.0% ONA=10.0% OMM=5.0% UT=20.0% H=3.0%".
func (c Counts) String() string {
	return fmt.Sprintf("V=%.1f%% ONA=%.1f%% OMM=%.1f%% UT=%.1f%% H=%.1f%%",
		100*c.Rate(Vanished), 100*c.Rate(ONA), 100*c.Rate(OMM),
		100*c.Rate(UT), 100*c.Rate(Hang))
}

// Mismatch is the paper's Figures 2c/3c metric: the sum of absolute
// per-class rate differences between two campaigns, in percent.
func Mismatch(a, b Counts) float64 {
	s := 0.0
	for o := Outcome(0); o < NumOutcomes; o++ {
		d := a.Rate(o) - b.Rate(o)
		if d < 0 {
			d = -d
		}
		s += d
	}
	return 100 * s
}
