// The worker half of the fabric: pull leases, prepare the leased scenario
// locally through campaign.Prepare (image, golden reference, checkpoints,
// fault list — every one a deterministic function of the scenario and
// seed), inject exactly the leased fault index range through
// Prepared.Inject, and post the results back. A worker is the local
// campaign engine's injection pipeline with the scheduling inverted:
// instead of feeding a worker pool from an in-process matrix, each pool
// slot feeds itself from the coordinator.
package dist

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"serfi/internal/campaign"
	"serfi/internal/fault"
	"serfi/internal/fi"
	"serfi/internal/npb"
	"serfi/internal/obs"
)

// Worker pulls shards from one coordinator and executes them. Construct
// with NewWorker; Run blocks until the coordinator reports the matrix done,
// the context cancels, or the coordinator stays unreachable past the retry
// budget.
type Worker struct {
	cl        *Client
	name      string
	parallel  int
	snapshots int // campaign convention: 0 = default, negative = off
	maxOpen   int
	spillDir  string

	draining atomic.Bool

	gmu    sync.Mutex
	groups map[string]*group
	seq    int64
}

// WorkerOption configures a Worker.
type WorkerOption func(*Worker)

// Name sets the worker's stable name on the coordinator's status page;
// the default is host-pid.
func Name(s string) WorkerOption { return func(w *Worker) { w.name = s } }

// Parallel sets how many leases the worker executes concurrently; 0 (the
// default) uses one slot. Shards are independent, so any parallelism is
// sound.
func Parallel(n int) WorkerOption { return func(w *Worker) { w.parallel = n } }

// Snapshots sets the per-scenario checkpoint count, with the campaign
// convention: 0 (default) picks fi.DefaultCheckpoints, negative disables
// snapshot acceleration. Results are bit-identical either way.
func Snapshots(n int) WorkerOption { return func(w *Worker) { w.snapshots = n } }

// CheckpointSpill moves each cached scenario group's checkpoint RAM
// payload into an unlinked temp file under dir after the fast-forward
// (lazy reload on restore), mirroring the engine's CheckpointSpill option;
// "" (the default) keeps checkpoints in RAM. Results are bit-identical
// either way.
func CheckpointSpill(dir string) WorkerOption { return func(w *Worker) { w.spillDir = dir } }

// MaxOpen bounds how many scenario groups (golden state + checkpoints) the
// worker caches at once; 0 picks a default of 2.
func MaxOpen(n int) WorkerOption { return func(w *Worker) { w.maxOpen = n } }

// NewWorker returns a worker bound to one coordinator client.
func NewWorker(cl *Client, opts ...WorkerOption) *Worker {
	host, _ := os.Hostname()
	if host == "" {
		host = "worker"
	}
	w := &Worker{
		cl:     cl,
		name:   fmt.Sprintf("%s-%d", host, os.Getpid()),
		groups: make(map[string]*group),
	}
	for _, opt := range opts {
		opt(w)
	}
	if w.parallel <= 0 {
		w.parallel = 1
	}
	if w.maxOpen <= 0 {
		w.maxOpen = 2
	}
	return w
}

// Drain puts the worker into graceful-shutdown mode: every lease slot
// finishes the shard it holds (results are posted as usual), takes no new
// lease, and Run returns nil once all slots have parked. Safe to call from
// a signal handler; calling it more than once is a no-op.
func (w *Worker) Drain() { w.draining.Store(true) }

// maxLeaseErrs is how many consecutive unreachable-coordinator round trips
// a lease loop tolerates before giving up.
const maxLeaseErrs = 20

// Run pulls and executes leases until the coordinator reports the matrix
// done. Cancellation returns ctx.Err(); in-flight shards are abandoned
// (their leases expire and the coordinator re-issues them).
func (w *Worker) Run(ctx context.Context) error {
	errs := make([]error, w.parallel)
	var wg sync.WaitGroup
	for i := 0; i < w.parallel; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.loop(ctx)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// loop is one lease slot: lease, execute, complete, repeat.
func (w *Worker) loop(ctx context.Context) error {
	fails := 0
	backoff := func() error {
		fails++
		d := time.Duration(fails) * 100 * time.Millisecond
		if d > 3*time.Second {
			d = 3 * time.Second
		}
		return sleep(ctx, d)
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if w.draining.Load() {
			// Draining: this slot's previous shard (if any) was completed
			// above; park without leasing again.
			return nil
		}
		reply, err := w.cl.LeaseCapacity(ctx, w.name, w.parallel)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if fails+1 >= maxLeaseErrs {
				return fmt.Errorf("dist: coordinator unreachable: %w", err)
			}
			if err := backoff(); err != nil {
				return err
			}
			continue
		}
		fails = 0
		if reply.Done {
			return nil
		}
		if reply.Lease == nil {
			wait := time.Duration(reply.RetryMs) * time.Millisecond
			if wait <= 0 {
				wait = defaultRetryMs * time.Millisecond
			}
			if err := sleep(ctx, wait); err != nil {
				return err
			}
			continue
		}
		req, err := w.exec(ctx, reply.Lease)
		if err != nil {
			return err // only cancellation aborts exec; shard errors travel in req.Err
		}
		done, err := w.complete(ctx, req)
		if err != nil {
			return err
		}
		if done {
			// The matrix finished with this shard: exit without another
			// lease round trip (the coordinator may shut down any moment).
			return nil
		}
	}
}

// complete posts one shard result, retrying transient failures — a shard
// the coordinator never hears about would burn a full lease TTL. The
// returned done mirrors the coordinator's matrix-finished flag.
func (w *Worker) complete(ctx context.Context, req CompleteRequest) (bool, error) {
	for attempt := 1; ; attempt++ {
		reply, err := w.cl.Complete(ctx, req)
		if err == nil {
			return reply.Done, nil // accepted or stale; both retire the shard here
		}
		if ctx.Err() != nil {
			return false, ctx.Err()
		}
		if attempt >= maxLeaseErrs {
			return false, fmt.Errorf("dist: completing shard %s[%d,%d): %w", req.Key, req.Lo, req.Hi, err)
		}
		if err := sleep(ctx, time.Duration(attempt)*100*time.Millisecond); err != nil {
			return false, err
		}
	}
}

// exec runs one leased shard. Scenario-level failures (bad scenario ID,
// image build or golden-run errors) are reported to the coordinator in
// CompleteRequest.Err, failing the campaign there exactly like a local
// engine run; only context cancellation returns a non-nil error.
func (w *Worker) exec(ctx context.Context, l *Lease) (CompleteRequest, error) {
	req := CompleteRequest{Worker: w.name, LeaseID: l.ID, Key: l.Key, Lo: l.Lo, Hi: l.Hi}
	g, err := w.acquire(ctx, l)
	if err != nil {
		if ctx.Err() != nil {
			return req, ctx.Err()
		}
		req.Err = err.Error()
		return req, nil
	}
	defer w.release(g)
	de, err := g.domain(l)
	if err != nil {
		req.Err = err.Error()
		return req, nil
	}

	// Beats every campaign.DefaultJobSize faults, like the engine's jobs.
	t0 := time.Now()
	for lo := l.Lo; lo < l.Hi; lo += campaign.DefaultJobSize {
		hi := min(lo+campaign.DefaultJobSize, l.Hi)
		bt0 := time.Now()
		b, err := g.prep.Inject(ctx, de.dom, de.faults, lo, hi, l.TraceProp)
		if err != nil {
			if ctx.Err() != nil {
				return req, ctx.Err() // lease expires, shard re-issued
			}
			req.Err = err.Error()
			return req, nil
		}
		req.Runs = append(req.Runs, b.Runs...)
		req.Traces = append(req.Traces, b.Traces...)
		req.SimulatedInstr += b.SimulatedInstr
		req.FromResetInstr += b.FromResetInstr
		req.PrunedRuns += b.PrunedRuns
		// Progress beat, best-effort: a lost beat only costs display
		// granularity on the coordinator.
		_ = w.cl.Event(ctx, EventRequest{
			Worker:   w.name,
			LeaseID:  l.ID,
			Key:      l.Key,
			Lo:       lo,
			Hi:       hi,
			WallSec:  time.Since(bt0).Seconds(),
			Scenario: l.Scenario,
			Domain:   l.Domain,
		})
	}
	req.Golden = g.prep.Summary()
	req.Features = g.prep.Features.Map()
	req.APICalls = g.prep.APICalls
	req.WallSec = time.Since(t0).Seconds()
	// Piggyback this process's cumulative metric snapshot (fi, mach, mem,
	// wire families) so the coordinator can serve cluster-wide /metrics.
	req.Metrics = obs.Default.Snapshot()
	return req, nil
}

// group is one cached prepared scenario, shared by every shard of that
// (scenario, seed) pair — the distributed analogue of the engine's scenario
// group, whose fault-free phases run once. Domain entries (fault domain +
// full fault list) hang off the group.
type group struct {
	key   string
	refs  int
	stamp int64 // LRU clock; updated on release

	ready chan struct{} // closed once built
	err   error

	prep *campaign.Prepared

	dmu  sync.Mutex
	doms map[string]*domEntry
}

// domEntry is one fault domain over one group: the domain instance and the
// campaign's complete fault list (sharding happens by index into it).
type domEntry struct {
	ready  chan struct{}
	err    error
	dom    fault.Domain
	faults []fi.Fault
}

// acquire returns the built scenario group for a lease, building it on
// first use and evicting the least-recently-used idle group beyond the
// cache bound. The first acquirer builds; concurrent acquirers wait.
func (w *Worker) acquire(ctx context.Context, l *Lease) (*group, error) {
	gkey := fmt.Sprintf("%s/%d", l.Scenario, l.Seed)
	w.gmu.Lock()
	g := w.groups[gkey]
	build := false
	if g == nil {
		w.evictLocked()
		g = &group{key: gkey, ready: make(chan struct{}), doms: make(map[string]*domEntry)}
		w.groups[gkey] = g
		build = true
	}
	g.refs++
	w.gmu.Unlock()

	if build {
		var sc npb.Scenario
		if sc, g.err = npb.ParseID(l.Scenario); g.err == nil {
			g.prep, g.err = campaign.Prepare(ctx, sc,
				fi.CheckpointOptions{N: w.snapshots, SpillDir: w.spillDir}, nil, 0)
		}
		close(g.ready)
	}
	select {
	case <-g.ready:
	case <-ctx.Done():
		w.release(g)
		return nil, ctx.Err()
	}
	if g.err != nil {
		w.release(g)
		return nil, g.err
	}
	return g, nil
}

// release drops one reference and stamps the group for LRU eviction.
func (w *Worker) release(g *group) {
	w.gmu.Lock()
	g.refs--
	w.seq++
	g.stamp = w.seq
	w.gmu.Unlock()
}

// evictLocked drops idle groups until the cache fits maxOpen-1 entries
// (room for the incoming one). Groups still referenced stay — correctness
// over the bound. Caller holds w.gmu.
func (w *Worker) evictLocked() {
	for len(w.groups) >= w.maxOpen {
		var victim *group
		for _, g := range w.groups {
			if g.refs > 0 {
				continue
			}
			select {
			case <-g.ready:
			default:
				continue // still building
			}
			if victim == nil || g.stamp < victim.stamp {
				victim = g
			}
		}
		if victim == nil {
			return
		}
		if victim.prep != nil {
			victim.prep.Close() // release the spill file, if any
		}
		delete(w.groups, victim.key)
	}
}

// domain returns the group's entry for a lease's fault domain, drawing the
// campaign's complete fault list on first use (first needer builds,
// concurrent needers wait).
func (g *group) domain(l *Lease) (*domEntry, error) {
	dkey := fmt.Sprintf("%s/%d", l.Domain, l.Faults)
	g.dmu.Lock()
	de := g.doms[dkey]
	build := false
	if de == nil {
		de = &domEntry{ready: make(chan struct{})}
		g.doms[dkey] = de
		build = true
	}
	g.dmu.Unlock()
	if build {
		model, err := fault.ParseModel(l.Domain)
		if err == nil {
			de.dom, de.faults, err = g.prep.Faults(model, l.Seed, l.Faults)
		}
		de.err = err
		close(de.ready)
	}
	<-de.ready
	return de, de.err
}

// sleep waits for d or until ctx cancels.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
