// The campaign Engine: a constructed, reusable orchestrator around the
// shared-worker-pool matrix scheduler. One Engine carries its tuning
// (workers, job size, snapshots, fault models) as functional options;
// RunMatrix(ctx, jobs) threads the context through every phase — golden
// runs, checkpoint fast-forwards and injection job loops — so a campaign
// cancels promptly at job granularity and returns partial results plus
// ctx.Err(). Progress is published as a typed event stream (events.go)
// and completed campaigns land in a Store (store.go), whose pre-loaded
// keys double as the resume set.
//
// One worker pool executes scenario preparations (Prepare: golden run and
// checkpoint fast-forward) and batched injection jobs as interleavable
// tasks; jobs for the same scenario under several fault domains form one
// group whose fault-free work runs once.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"serfi/internal/fault"
	"serfi/internal/fi"
	"serfi/internal/npb"
	"serfi/internal/obs"
	"serfi/internal/prop"
)

// Engine is the reusable campaign orchestrator. Construct one with New,
// then run any number of matrices through RunMatrix; an Engine holds no
// per-run state, so it is safe to reuse (sequentially or concurrently)
// across runs. The exception is a shared event stream: runs emitting into
// one WithEvents channel need one consumer per run (see WithEvents), so
// concurrent runs should use separate engines with separate channels.
type Engine struct {
	workers    int
	jobSize    int
	snapshots  int // campaign convention: 0 = default, negative = off
	maxOpen    int
	faults     int
	models     []fault.Model
	store      Store
	events     chan<- Event
	ckptSpill  string
	fullCopy   bool
	traceProp  bool
	recordRuns bool
	metrics    *obs.Registry
	tracer     *obs.Tracer
}

// Option configures an Engine.
type Option func(*Engine)

// Workers bounds the host worker pool; 0 (the default) uses GOMAXPROCS.
func Workers(n int) Option { return func(e *Engine) { e.workers = n } }

// JobSize groups faults into injection jobs — the paper batches
// simulations per HPC job to amortize scheduling; 0 picks DefaultJobSize.
func JobSize(n int) Option { return func(e *Engine) { e.jobSize = n } }

// Snapshots sets the per-scenario checkpoint count: 0 (the default) picks
// fi.DefaultCheckpoints, negative disables snapshot acceleration (every
// injection re-executes from reset). Outcome counts are bit-identical
// either way.
func Snapshots(n int) Option { return func(e *Engine) { e.snapshots = n } }

// MaxOpen bounds how many scenario groups may hold golden state and
// checkpoints at once (memory backpressure); 0 picks a default.
func MaxOpen(n int) Option { return func(e *Engine) { e.maxOpen = n } }

// Faults sets the per-campaign fault count.
func Faults(n int) Option { return func(e *Engine) { e.faults = n } }

// Models sets the fault domains JobsFor expands each scenario into; empty
// (the default) means the paper's register domain only.
func Models(ms ...fault.Model) Option {
	return func(e *Engine) { e.models = append([]fault.Model(nil), ms...) }
}

// CheckpointSpill moves every scenario's checkpoint RAM payload into an
// unlinked temp file under dir right after the checkpoint fast-forward;
// injection restores reload pages lazily. This trades restore latency for
// resident memory, which is what makes large checkpoint counts viable.
// "" (the default) keeps checkpoints in RAM. Results are bit-identical
// either way.
func CheckpointSpill(dir string) Option { return func(e *Engine) { e.ckptSpill = dir } }

// TraceProp turns on fault-propagation tracing: every injection whose
// outcome is not masked (Vanished/ONA) is re-run against a golden twin
// through prop.Tracer, its Trace attached to the Result and folded into the
// campaign's prop summary. Tracing re-executes only the unmasked minority
// of runs and is strictly additive — outcome counts, fault lists and
// untraced database rows are byte-identical with tracing off.
func TraceProp() Option { return func(e *Engine) { e.traceProp = true } }

// RecordRuns persists the per-fault rows of every campaign: results are
// marked RecordRuns, so the store writes v4 database rows carrying each
// run's fault tuple and outcome (plus escape class and divergence latency
// when TraceProp is also on) — the raw material of the sensitivity
// attribution layer (internal/sens). Purely additive: fault lists,
// outcomes and scheduling are untouched, and campaigns without the option
// keep writing v2/v3 rows byte for byte.
func RecordRuns() Option { return func(e *Engine) { e.recordRuns = true } }

// WithStore attaches a results store: campaigns whose key the store
// already holds are skipped (their stored results returned in place — the
// resume path), and every freshly completed campaign is Put in completion
// order. nil (the default) keeps results in memory only.
func WithStore(s Store) Option { return func(e *Engine) { e.store = s } }

// WithEvents attaches the typed event stream. The engine sends
// ScenarioStarted/GoldenDone/JobDone/ScenarioDone events as phases
// complete and exactly one terminal MatrixDone per RunMatrix call; sends
// block until received, so every run needs a live consumer draining the
// channel until that run's MatrixDone (Collector.Consume returns there —
// start a fresh Consume goroutine per run). The engine never closes the
// channel, so the channel itself may be reused across sequential runs;
// concurrent runs must not share one (their streams would interleave and
// the first MatrixDone would detach the consumer mid-flight).
func WithEvents(ch chan<- Event) Option { return func(e *Engine) { e.events = ch } }

// New constructs an Engine from functional options; zero-value settings
// resolve to the documented defaults at run time.
func New(opts ...Option) *Engine {
	e := &Engine{}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// JobsFor expands scenarios into scheduler jobs under the engine's fault
// models. Each scenario draws the seed baseSeed+i where i is its position
// in the full npb.Scenarios() list (the historical convention shared by
// CLI campaigns and the experiment matrix), so a subset run, a resumed run
// and the full matrix all draw identical fault lists for the same
// (scenario, domain) pair. Domain campaigns of one scenario share its
// seed. A scenario outside the catalog draws baseSeed unmodified.
func (e *Engine) JobsFor(scs []npb.Scenario, baseSeed int64) []ScenarioJob {
	pos := make(map[string]int)
	for i, sc := range npb.Scenarios() {
		pos[sc.ID()] = i
	}
	models := e.models
	if len(models) == 0 {
		models = []fault.Model{fault.Reg}
	}
	jobs := make([]ScenarioJob, 0, len(scs)*len(models))
	for _, sc := range scs {
		seed := baseSeed
		if i, ok := pos[sc.ID()]; ok {
			seed += int64(i)
		}
		for _, d := range models {
			jobs = append(jobs, ScenarioJob{Scenario: sc, Domain: d, Seed: seed})
		}
	}
	return jobs
}

// emit publishes one event when a stream is attached.
func (e *Engine) emit(ev Event) {
	if e.events != nil {
		e.events <- ev
	}
}

// cancelledBy reports whether err is the context's own cancellation error
// (such campaigns are tallied in MatrixDone instead of announced one by
// one).
func cancelledBy(ctx context.Context, err error) bool {
	return ctx.Err() != nil && errors.Is(err, ctx.Err())
}

// RunMatrix executes every scenario job through the shared scheduler and
// returns results in job order. Jobs whose key the engine's store already
// holds are skipped and answered from the store. The context cancels the
// run at job granularity: in-flight injection jobs abandon between run
// slices, no further work starts, completed campaigns are already durable
// in the store, and RunMatrix returns the partial results plus ctx.Err().
// On a non-cancellation failure the first error (in job order) is
// reported; unaffected scenarios still complete and are returned.
func (e *Engine) RunMatrix(ctx context.Context, jobs []ScenarioJob) ([]*Result, error) {
	t0 := time.Now()
	em := newEngineMetrics(e.metrics)
	workers := e.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	jobSize := e.jobSize
	if jobSize <= 0 {
		jobSize = DefaultJobSize
	}
	maxOpen := e.maxOpen
	if maxOpen <= 0 {
		maxOpen = workers
		if maxOpen > 8 {
			maxOpen = 8
		}
	}
	faults := e.faults

	n := len(jobs)
	results := make([]*Result, n)
	errs := make([]error, n)
	skipped := 0

	injJobs := (faults + jobSize - 1) / jobSize
	if injJobs < 1 {
		injJobs = 1
	}
	// The task queue is sized for every task the matrix can ever enqueue,
	// so no producer — worker or feeder — ever blocks on it.
	tasks := make(chan func(), n*(injJobs+1))
	sem := make(chan struct{}, maxOpen) // open-scenario slots
	var open sync.WaitGroup             // fresh scenarios still in flight
	var dbMu sync.Mutex                 // serializes store appends + ScenarioDone events

	var workerWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		workerWG.Add(1)
		go func() {
			defer workerWG.Done()
			for t := range tasks {
				t()
			}
		}()
	}

	// fail records one campaign's error and announces it — unless the
	// campaign was merely abandoned by cancellation, which MatrixDone
	// tallies instead.
	fail := func(ds *domainState, err error) {
		wrapped := fmt.Errorf("%s: %w", ds.job.Key(), err)
		errs[ds.idx] = wrapped
		em.campaigns.With("failed").Inc()
		if !cancelledBy(ctx, err) {
			e.emit(ScenarioDone{Key: ds.job.Key(), Err: wrapped})
		}
	}

	// closeGroup retires an open scenario group, recording err (if any) for
	// every domain campaign in it that has no result yet.
	closeGroup := func(st *scenarioState, err error) {
		if err != nil {
			for _, ds := range st.domains {
				if results[ds.idx] == nil && errs[ds.idx] == nil {
					fail(ds, err)
				}
			}
		}
		if st.prep != nil {
			st.prep.Close() // release the spill file, if any
		}
		if st.obsResident != 0 || st.obsSpilled != 0 {
			em.ckptResident.Add(-float64(st.obsResident))
			em.ckptSpilled.Add(-float64(st.obsSpilled))
		}
		st.prep = nil // drop checkpoint RAM before releasing the slot
		<-sem
		open.Done()
	}

	// domainDone retires one domain campaign; the group slot is released
	// when its last domain finishes. Sibling domains keep running after one
	// domain fails.
	domainDone := func(st *scenarioState, ds *domainState, err error) {
		if err != nil {
			fail(ds, err)
		}
		if st.openDomains.Add(-1) == 0 {
			closeGroup(st, nil)
		}
	}

	assemble := func(st *scenarioState, ds *domainState) {
		res := &Result{
			Scenario:        ds.job.Scenario,
			Domain:          ds.job.Domain,
			Faults:          faults,
			Seed:            ds.job.Seed,
			GoldenWallSec:   st.prep.GoldenWallSec,
			CampaignWallSec: time.Since(st.t0).Seconds(),
			JobWallSec:      time.Duration(ds.jobNanos.Load()).Seconds(),
			JobSpans:        ds.takeSpans(),
			Golden:          st.prep.Summary(),
			Features:        st.prep.Features,
			APICalls:        st.prep.APICalls,
			Runs:            ds.runs,
			Traces:          ds.traces,
			Prop:            prop.Summarize(ds.traces),
			RecordRuns:      e.recordRuns,
			SimulatedInstr:  ds.simulated.Load(),
			FromResetInstr:  ds.fromReset.Load(),
			PrunedRuns:      int(ds.pruned.Load()),
		}
		for _, r := range ds.runs {
			res.Counts.Add(r.Outcome)
		}
		results[ds.idx] = res
		em.campaigns.With("completed").Inc()
		em.prunedRuns.Add(float64(res.PrunedRuns))
		if e.store != nil || e.events != nil {
			// One mutex serializes the store stream and the event order
			// across completing workers, and guarantees the record is
			// durable before its ScenarioDone is observable.
			dbMu.Lock()
			var err error
			if e.store != nil {
				err = e.store.Put(res)
			}
			if err == nil {
				e.emit(ScenarioDone{Key: res.Key(), Result: res})
			}
			dbMu.Unlock()
			if err != nil {
				domainDone(st, ds, fmt.Errorf("stream record: %w", err))
				return
			}
		}
		domainDone(st, ds, nil)
	}

	// finishDomain retires a domain whose last injection job just returned:
	// a campaign with any job abandoned by cancellation has no result, and
	// a tracer failure (a should-never-happen twin mispositioning) fails
	// the domain rather than silently dropping traces.
	finishDomain := func(st *scenarioState, ds *domainState) {
		if ds.cancelled.Load() {
			domainDone(st, ds, context.Cause(ctx))
			return
		}
		if err := ds.takeTraceErr(); err != nil {
			domainDone(st, ds, err)
			return
		}
		assemble(st, ds)
	}

	prepare := func(st *scenarioState) {
		if err := ctx.Err(); err != nil {
			closeGroup(st, err)
			return
		}
		st.t0 = time.Now()
		tid := e.tracer.TID(fmt.Sprintf("%s/%d", st.job.Scenario.ID(), st.job.Seed))
		doms := make([]fault.Model, len(st.domains))
		for i, ds := range st.domains {
			doms[i] = ds.job.Domain
		}
		em.scenariosStarted.Inc()
		e.emit(ScenarioStarted{Scenario: st.job.Scenario, Seed: st.job.Seed, Domains: doms})
		prep, err := Prepare(ctx, st.job.Scenario, fi.CheckpointOptions{
			N:        e.snapshots,
			SpillDir: e.ckptSpill,
			FullCopy: e.fullCopy,
		}, e.tracer, tid)
		if err != nil {
			closeGroup(st, err)
			return
		}
		st.prep = prep
		cs := prep.Checkpoints
		st.obsResident = cs.MemBytes()
		st.obsSpilled = cs.SpilledBytes()
		em.goldensDone.Inc()
		em.ckptResident.Add(float64(st.obsResident))
		em.ckptSpilled.Add(float64(st.obsSpilled))
		e.emit(GoldenDone{
			Scenario:               st.job.Scenario,
			Seed:                   st.job.Seed,
			Golden:                 prep.Summary(),
			WallSec:                prep.GoldenWallSec,
			Checkpoints:            cs.Len(),
			CheckpointBytes:        st.obsResident,
			CheckpointSpilledBytes: st.obsSpilled,
		})
		// Arm every domain campaign of the group before any finishes: all
		// share the prepared golden reference and snapshots.
		st.openDomains.Store(int64(len(st.domains)))
		for _, ds := range st.domains {
			ds.dom, ds.faults, err = prep.Faults(ds.job.Domain, ds.job.Seed, faults)
			if err != nil {
				domainDone(st, ds, err)
				continue
			}
			ds.runs = make([]fi.Result, len(ds.faults))
			if e.traceProp {
				ds.traces = make([]*prop.Trace, len(ds.faults))
			}
			if len(ds.faults) == 0 {
				assemble(st, ds)
				continue
			}
			ds.remaining.Store(int64(len(ds.faults)))
			for lo := 0; lo < len(ds.faults); lo += jobSize {
				hi := min(lo+jobSize, len(ds.faults))
				ds, lo, hi := ds, lo, hi
				em.jobsQueued.Inc()
				tasks <- func() {
					if ctx.Err() != nil {
						ds.cancelled.Store(true)
					} else {
						em.jobsRunning.Add(1)
						endSpan := e.tracer.Start(fmt.Sprintf("inject [%d,%d)", lo, hi), "inject", tid,
							map[string]string{"campaign": ds.job.Key()})
						jt0 := time.Now()
						b, err := prep.Inject(ctx, ds.dom, ds.faults, lo, hi, e.traceProp)
						span := time.Since(jt0)
						endSpan()
						em.jobsRunning.Add(-1)
						switch {
						case cancelledBy(ctx, err):
							ds.cancelled.Store(true)
						case err != nil:
							ds.noteTraceErr(err)
						default:
							copy(ds.runs[lo:hi], b.Runs)
							if ds.traces != nil {
								copy(ds.traces[lo:hi], b.Traces)
							}
							ds.simulated.Add(b.SimulatedInstr)
							ds.fromReset.Add(b.FromResetInstr)
							ds.pruned.Add(int64(b.PrunedRuns))
							em.jobsDone.Inc()
							// Outcome counters update in one batch per job,
							// tallied locally first.
							tally := map[string]int{}
							for _, r := range b.Runs {
								tally[r.Outcome.String()]++
							}
							for o, n := range tally {
								em.injections.With(o).Add(float64(n))
							}
							// Aborted jobs record no span: the campaign
							// carries no result, and a resumed matrix
							// re-executes (and re-counts) the whole range.
							ds.jobNanos.Add(span.Nanoseconds())
							ds.addSpan(lo, hi, span.Seconds())
							e.emit(JobDone{
								Scenario: ds.job.Scenario,
								Domain:   ds.job.Domain,
								Lo:       lo,
								Hi:       hi,
								WallSec:  span.Seconds(),
								Done:     int(ds.done.Add(int64(hi - lo))),
								Total:    len(ds.faults),
							})
						}
					}
					if ds.remaining.Add(int64(lo-hi)) == 0 {
						finishDomain(st, ds)
					}
				}
			}
		}
	}

	// Feed scenario groups in order: jobs sharing a (scenario, seed) pair —
	// the same scenario under several fault domains — run their fault-free
	// phases once. The semaphore provides memory backpressure while the
	// buffered queue keeps workers from ever blocking; cancellation stops
	// the feeder at the next free slot.
	groups := make(map[string]*scenarioState, n)
	var order []*scenarioState
	for i, job := range jobs {
		if e.store != nil {
			if r, ok := e.store.Get(job.Key()); ok {
				// A stored campaign only answers a job drawn identically:
				// silently reusing a different fault count or seed would
				// mix sample sizes or fault lists in one matrix
				// (ValidateResume gives callers the friendly up-front
				// version of this check).
				if r.Faults != faults || r.Seed != job.Seed {
					wrapped := fmt.Errorf("%s: recorded campaign (faults=%d seed=%d) does not match this run (faults=%d seed=%d)",
						job.Key(), r.Faults, r.Seed, faults, job.Seed)
					errs[i] = wrapped
					e.emit(ScenarioDone{Key: job.Key(), Err: wrapped})
					continue
				}
				results[i] = r
				skipped++
				em.campaigns.With("skipped").Inc()
				continue
			}
		}
		gkey := fmt.Sprintf("%s/%d", job.Scenario.ID(), job.Seed)
		st := groups[gkey]
		if st == nil {
			st = &scenarioState{job: job}
			groups[gkey] = st
			order = append(order, st)
		}
		st.domains = append(st.domains, &domainState{idx: i, job: job})
	}
feed:
	for _, st := range order {
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			break feed
		}
		open.Add(1)
		st := st
		tasks <- func() { prepare(st) }
	}
	open.Wait()
	close(tasks)
	workerWG.Wait()

	var first error
	if err := ctx.Err(); err != nil {
		first = err
	} else {
		for _, err := range errs {
			if err != nil {
				first = err
				break
			}
		}
	}
	have := 0
	for i := range jobs {
		if results[i] != nil {
			have++
		}
	}
	completed := have - skipped
	// Everything without a result failed — including campaigns the feeder
	// never scheduled under cancellation, which carry no recorded error.
	failed := n - have
	e.emit(MatrixDone{
		Completed: completed,
		Skipped:   skipped,
		Failed:    failed,
		WallSec:   time.Since(t0).Seconds(),
		Err:       first,
	})
	return results, first
}
