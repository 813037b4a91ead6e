// Scheduler bookkeeping of the Engine (engine.go): the job identity and
// the per-group and per-domain state its tasks share.
package campaign

import (
	"sync"
	"sync/atomic"
	"time"

	"serfi/internal/fault"
	"serfi/internal/fi"
	"serfi/internal/npb"
	"serfi/internal/prop"
)

// DefaultJobSize groups this many faults into one injection task (the paper
// batches simulations per HPC job to amortize scheduling).
const DefaultJobSize = 8

// ScenarioJob pairs one scenario with its fault domain and fault-list
// seed. Seeds are the caller's responsibility so that a subset run, a
// resumed run and a full matrix all draw identical fault lists for the
// same (scenario, domain) pair (Engine.JobsFor encodes the convention);
// the zero Domain is the paper's register single-bit-upset model.
type ScenarioJob struct {
	Scenario npb.Scenario
	Domain   fault.Model
	Seed     int64
}

// Key returns the job's database identity.
func (j ScenarioJob) Key() string { return Key(j.Scenario, j.Domain) }

// domainState tracks one (scenario, domain) campaign within its group.
type domainState struct {
	idx    int // index into the jobs / results slices
	job    ScenarioJob
	dom    fault.Domain
	faults []fi.Fault
	runs   []fi.Result
	// traces holds the propagation trace of each unmasked run when the
	// engine traces propagation (nil entries: masked or untraced). Jobs
	// write disjoint indices concurrently, like runs.
	traces []*prop.Trace

	remaining atomic.Int64 // injection runs left
	done      atomic.Int64 // injection runs finished (JobDone progress)
	jobNanos  atomic.Int64 // summed host wall clock of completed jobs
	cancelled atomic.Bool  // some injection job was abandoned by ctx

	// Snapshot telemetry summed over completed jobs (Batch fields).
	simulated atomic.Uint64
	fromReset atomic.Uint64
	pruned    atomic.Int64

	spanMu sync.Mutex
	spans  []JobSpan // per-job spans of completed jobs (behind JobWallSec)

	traceMu  sync.Mutex
	traceErr error // first propagation-tracer failure, fatal for the domain
}

// noteTraceErr records the first tracer failure (workers run concurrently).
func (ds *domainState) noteTraceErr(err error) {
	ds.traceMu.Lock()
	if ds.traceErr == nil {
		ds.traceErr = err
	}
	ds.traceMu.Unlock()
}

// takeTraceErr returns the recorded tracer failure, if any.
func (ds *domainState) takeTraceErr() error {
	ds.traceMu.Lock()
	defer ds.traceMu.Unlock()
	return ds.traceErr
}

// addSpan records one completed job's span (workers run concurrently).
func (ds *domainState) addSpan(lo, hi int, sec float64) {
	ds.spanMu.Lock()
	ds.spans = append(ds.spans, JobSpan{Lo: lo, Hi: hi, WallSec: sec})
	ds.spanMu.Unlock()
}

// takeSpans returns the recorded spans sorted by fault-index range (the
// order Result.JobSpans documents).
func (ds *domainState) takeSpans() []JobSpan {
	ds.spanMu.Lock()
	spans := ds.spans
	ds.spans = nil
	ds.spanMu.Unlock()
	SortJobSpans(spans)
	return spans
}

// scenarioState tracks one open scenario group — every domain campaign of
// one (scenario, seed) pair — across its scheduler tasks. The fault-free
// work (Prepare) runs once per group and is shared by all of its domains.
type scenarioState struct {
	job     ScenarioJob // scenario+seed of the group
	domains []*domainState
	prep    *Prepared

	openDomains atomic.Int64 // domain campaigns still running
	t0          time.Time

	// Checkpoint byte counts added to the resident/spilled gauges at
	// GoldenDone, subtracted again when the group closes.
	obsResident int
	obsSpilled  int
}
