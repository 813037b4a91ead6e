package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"serfi/internal/campaign"
	"serfi/internal/dist"
	"serfi/internal/exp"
	"serfi/internal/fault"
)

// The queue-2tenant workload: tenant A submits one bulk matrix at t=0 and
// tenant B submits single-campaign matrices on a fixed schedule (an open
// loop: each is timed from when it was due), against a persistent queue
// over an fsynced segmented store and journal, served to two in-process
// loopback workers with one lease slot each.
const (
	shardSize    = 1                      // faults per lease
	segmentBytes = 64 << 10               // small, so segments seal and footers are read on restart
	bInterval    = 500 * time.Millisecond // tenant B's submission period
	bFaults      = 2
	aFaults      = 96
)

// bIDs are the queue workload's scenarios. Tenant A's bulk matrix is
// their campaigns under all seven fault domains, sized to outlast the
// measured window (it is cancelled when the window closes). Tenant B's i-th submission is
// scenario i mod 4 under fault domain i/4, one campaign per submission, so
// no two of B's submissions share a campaign key (a repeated key would be
// answered from the store without work). Both tenants share the scenarios,
// so each worker's prepared set is these four.
var bIDs = []string{"armv8/EP/SER-1", "armv8/IS/SER-1", "armv7/EP/SER-1", "armv7/IS/SER-1"}

// contentSeed draws both tenants' fault lists. They are fixed, so their
// local reference is computed by the first run of a build and reused after,
// and the turnaround of 56 small campaigns does not swing with their fault
// lists; the workload seed draws B's arrival times instead.
const contentSeed = 1

// tenantJobs returns tenant A's bulk jobs and tenant B's campaigns in
// submission order.
func tenantJobs() (a, b []campaign.ScenarioJob, err error) {
	bScs, err := parseScenarios(bIDs)
	if err != nil {
		return nil, nil, err
	}
	models := fault.Models()
	a = campaign.New(campaign.Models(models...)).JobsFor(bScs, contentSeed)
	for d := range models {
		for s := range bScs {
			b = append(b, a[s*len(models)+d])
		}
	}
	return a, b, nil
}

// wireLog is the middleware around Coordinator.Handler. Untraced it counts
// requests, refusals and lease polls answered without a lease; traced it
// also times every request as a dist span and pairs each lease reply with
// its shard's completion.
type wireLog struct {
	rec      *recorder
	t0       time.Time
	mu       sync.Mutex
	requests int
	failed   int
	idle     int // lease replies without a lease
	byPath   map[string][]time.Duration
	leaseAt  map[int64]time.Duration
	shards   []time.Duration
}

func newWireLog(rec *recorder, t0 time.Time) *wireLog {
	return &wireLog{rec: rec, t0: t0,
		byPath: make(map[string][]time.Duration), leaseAt: make(map[int64]time.Duration)}
}

// captureWriter keeps the status code, and the body when asked.
type captureWriter struct {
	http.ResponseWriter
	code int
	keep bool
	body bytes.Buffer
}

func (c *captureWriter) WriteHeader(code int) {
	c.code = code
	c.ResponseWriter.WriteHeader(code)
}

func (c *captureWriter) Write(p []byte) (int, error) {
	if c.keep {
		c.body.Write(p)
	}
	return c.ResponseWriter.Write(p)
}

func (wl *wireLog) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		path := r.URL.Path
		leaseID := int64(-1)
		if wl.rec != nil && path == dist.PathComplete {
			body, err := io.ReadAll(r.Body)
			if err == nil {
				var req struct {
					LeaseID int64 `json:"lease_id"`
				}
				if json.Unmarshal(body, &req) == nil {
					leaseID = req.LeaseID
				}
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		cw := &captureWriter{ResponseWriter: w, code: http.StatusOK, keep: path == dist.PathLease}
		_, end := wl.rec.begin("dist", path, 0, "", 0)
		h.ServeHTTP(cw, r)
		end()
		d := time.Since(start)
		at := time.Since(wl.t0)
		wl.mu.Lock()
		defer wl.mu.Unlock()
		wl.requests++
		if cw.code >= 300 {
			wl.failed++
		}
		if path == dist.PathLease {
			var rep dist.LeaseReply
			if json.Unmarshal(cw.body.Bytes(), &rep) == nil && rep.Lease != nil {
				if wl.rec != nil {
					wl.leaseAt[rep.Lease.ID] = at
				}
			} else if !rep.Done {
				wl.idle++
			}
		}
		if wl.rec != nil {
			wl.byPath[path] = append(wl.byPath[path], d)
			if t, ok := wl.leaseAt[leaseID]; ok {
				wl.shards = append(wl.shards, at-d-t)
				delete(wl.leaseAt, leaseID)
			}
		}
	})
}

// queueSession is one open queue with its two workers.
type queueSession struct {
	seg     *campaign.SegmentedStore
	journal *dist.Journal
	coord   *dist.Coordinator
	puts    *putLog
	wire    *wireLog
	handler http.Handler
	workers []*dist.Worker
	wg      sync.WaitGroup
	errs    []error
}

// openQueue opens a fresh data directory: the fsynced segmented store, the
// journal and the queue.
func openQueue(dir string, rec *recorder, t0 time.Time) (*queueSession, error) {
	seg, err := campaign.OpenSegmentedStore(filepath.Join(dir, "store"), campaign.SegmentSync(), campaign.SegmentBytes(segmentBytes))
	if err != nil {
		return nil, err
	}
	j, err := dist.OpenJournal(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		seg.Close()
		return nil, err
	}
	q := &queueSession{seg: seg, journal: j, puts: &putLog{t0: t0, rec: rec}, wire: newWireLog(rec, t0)}
	q.coord = dist.NewQueue(dist.WithStore(&timedStore{Store: seg, log: q.puts}), dist.ShardSize(shardSize))
	q.coord.AttachJournal(j)
	q.handler = q.wire.wrap(q.coord.Handler())
	return q, nil
}

// start starts the two workers. Each keeps the workload's four scenarios
// prepared (dist.MaxOpen), so which worker re-prepares which scenario is
// not a timing lottery.
func (q *queueSession) start(ctx context.Context) {
	q.errs = make([]error, workers)
	for i := 0; i < workers; i++ {
		w := dist.NewWorker(dist.NewLoopbackClient(q.handler), dist.Name(fmt.Sprintf("w%d", i)),
			dist.Parallel(1), dist.MaxOpen(len(bIDs)))
		q.workers = append(q.workers, w)
		q.wg.Add(1)
		go func(i int) {
			defer q.wg.Done()
			q.errs[i] = w.Run(ctx)
		}(i)
	}
}

// close drains the workers and closes the journal and the store.
func (q *queueSession) close() error {
	for _, w := range q.workers {
		w.Drain()
	}
	q.wg.Wait()
	err := q.journal.Close()
	if cerr := q.seg.Close(); err == nil {
		err = cerr
	}
	for _, werr := range q.errs {
		if err == nil && werr != nil {
			err = fmt.Errorf("worker: %w", werr)
		}
	}
	return err
}

// submission is one tenant submission and what came back for it.
type submission struct {
	tenant string
	jobs   []campaign.ScenarioJob
	faults int
	id     string
	db     string
	state  string
	err    error
	// turnaround is from when the submission was due until its rows
	// were fetched.
	turnaround time.Duration
}

// windowStats is one measured queue window.
type windowStats struct {
	wall       time.Duration
	injected   int
	first      time.Duration
	turnaround []time.Duration
	lags       []time.Duration
	bulk       *submission
	small      []*submission
	status     dist.StatusReply
	wire       *wireLog
	puts       *putLog
	storeBytes int64   // tenant B's segments
	peak       float64 // MiB
	dir        string
}

// queueWindow runs one measured window: A's bulk at t=0, B's schedule
// until the window closes, then A is cancelled and every B submission is
// waited for and fetched.
// schedule draws tenant B's due times within a window: one every
// bInterval, each after the first moved by up to a fifth of the interval
// either way. The first is fixed, so the window's first durable row does
// not move with the seed.
func schedule(seed int64, window time.Duration, n int) []time.Duration {
	r := rand.New(rand.NewSource(seed))
	due := []time.Duration{bInterval}
	for i := 2; i <= n; i++ {
		d := time.Duration(i)*bInterval + time.Duration((r.Float64()-0.5)*0.4*float64(bInterval))
		if d > window {
			break
		}
		due = append(due, d)
	}
	return due
}

func queueWindow(ctx context.Context, dir string, window time.Duration, aJobs, bJobs []campaign.ScenarioJob,
	dues []time.Duration, rec *recorder) (*windowStats, error) {
	cleanHeap()
	t0 := time.Now()
	q, err := openQueue(dir, rec, t0)
	if err != nil {
		return nil, err
	}
	ws := &windowStats{wire: q.wire, puts: q.puts, dir: dir}
	cl := dist.NewLoopbackClient(q.handler)
	ws.bulk = &submission{tenant: "a", jobs: aJobs, faults: aFaults}

	// A's bulk is queued before the workers start, so their first lease
	// finds work instead of an empty queue's poll back-off.
	rep, err := cl.Submit(ctx, dist.SubmitRequest{Tenant: "a", Jobs: dist.WireJobs(aJobs), Faults: aFaults})
	ws.bulk.id, ws.bulk.err = rep.ID, err
	q.start(ctx)
	var wg sync.WaitGroup
	for i, d := range dues {
		due := t0.Add(d)
		time.Sleep(time.Until(due))
		lag := time.Since(due)
		s := &submission{tenant: "b", jobs: bJobs[i : i+1], faults: bFaults}
		ws.small = append(ws.small, s)
		ws.lags = append(ws.lags, lag)
		rep, err := cl.Submit(ctx, dist.SubmitRequest{Tenant: "b", Jobs: dist.WireJobs(s.jobs), Faults: bFaults, RecordRuns: true})
		if err != nil {
			s.err = err
			continue
		}
		s.id = rep.ID
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := q.coord.WaitSubmission(s.id); err != nil {
				s.err = err
				return
			}
			fr, err := cl.Fetch(ctx, s.id)
			s.turnaround = time.Since(due)
			s.db, s.state, s.err = fr.DB, fr.State, err
		}()
	}
	time.Sleep(time.Until(t0.Add(window)))
	if ws.bulk.err == nil {
		_, ws.bulk.err = cl.CancelMatrix(ctx, ws.bulk.id)
	}
	wg.Wait()
	ws.wall = time.Since(t0)
	for _, s := range ws.small {
		if s.err == nil {
			ws.turnaround = append(ws.turnaround, s.turnaround)
		}
		fmt.Printf("  small %s %-24s turnaround %.3fs\n", s.id, s.jobs[0].Key(), s.turnaround.Seconds())
	}
	ws.peak = vmHWM()
	ws.status = q.coord.Status()
	ws.injected = ws.status.Injected
	if ws.bulk.err == nil {
		fr, err := cl.Fetch(ctx, ws.bulk.id)
		ws.bulk.db, ws.bulk.state, ws.bulk.err = fr.DB, fr.State, err
	}
	if len(q.puts.ends) > 0 {
		ws.first = q.puts.ends[0]
	}
	if err := q.close(); err != nil {
		return nil, err
	}
	ws.storeBytes, err = dirBytes(filepath.Join(dir, "store", "t-b"))
	return ws, err
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return err
	})
	return n, err
}

// refEntry is one campaign of a local Engine.RunMatrix: its database row
// and the work counters the row does not carry.
type refEntry struct {
	Row       string `json:"row"`
	Faults    int    `json:"faults"`
	Simulated uint64 `json:"simulated"`
	Pruned    int    `json:"pruned"`
	Traced    int    `json:"traced"`
}

// refCache holds local Engine.RunMatrix reference rows. Entries persist in
// dir, which is specific to the program binary, so a reference is computed
// once per build and per (campaign, seed, fault count, flags) — tenant A's
// fixed bulk matrix is computed by the first run only.
type refCache struct {
	dir     string
	entries map[string]refEntry
}

func newRefCache(dir string) (*refCache, error) {
	return &refCache{dir: dir, entries: make(map[string]refEntry)}, os.MkdirAll(dir, 0o755)
}

func refKey(job campaign.ScenarioJob, faults int, recordRuns bool) string {
	return fmt.Sprintf("%s/%d/%d/%v", job.Key(), job.Seed, faults, recordRuns)
}

func (rc *refCache) path(key string) string {
	h := sha256.Sum256([]byte(key))
	return filepath.Join(rc.dir, hex.EncodeToString(h[:16])+".json")
}

// reference makes sure every job has an entry: from memory, from dir, or
// from one local engine run over the jobs still missing.
func (rc *refCache) reference(ctx context.Context, jobs []campaign.ScenarioJob, faults int, recordRuns bool) error {
	var todo []campaign.ScenarioJob
	for _, j := range jobs {
		k := refKey(j, faults, recordRuns)
		if _, ok := rc.entries[k]; ok {
			continue
		}
		var ent refEntry
		if data, err := os.ReadFile(rc.path(k)); err == nil && json.Unmarshal(data, &ent) == nil {
			rc.entries[k] = ent
			continue
		}
		todo = append(todo, j)
	}
	if len(todo) == 0 {
		return nil
	}
	opts := []campaign.Option{campaign.Workers(workers), campaign.Faults(faults)}
	if recordRuns {
		opts = append(opts, campaign.RecordRuns())
	}
	results, err := campaign.New(opts...).RunMatrix(ctx, todo)
	if err != nil {
		return err
	}
	for i, r := range results {
		var b bytes.Buffer
		if err := campaign.WriteDB(&b, []*campaign.Result{r}); err != nil {
			return err
		}
		c := countsOf([]*campaign.Result{r}, nil)
		ent := refEntry{Row: b.String(), Faults: r.Faults, Simulated: c.simulated, Pruned: c.pruned, Traced: c.traced}
		k := refKey(todo[i], faults, recordRuns)
		rc.entries[k] = ent
		data, err := json.Marshal(ent)
		if err != nil {
			return err
		}
		if err := os.WriteFile(rc.path(k), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// verify checks one fetched submission: every campaign's outcome counts
// sum to its fault count, and the fetched JSONL is byte-identical to the
// local reference rows of the campaigns it holds, key-sorted. A cancelled
// submission holds only the campaigns it completed; a finished one holds
// them all. It returns the reference entries of the fetched campaigns.
func (rc *refCache) verify(ctx context.Context, o *outcome, s *submission, recordRuns bool) []refEntry {
	if s.err != nil {
		o.gate("submission %s (tenant %s): %v", s.id, s.tenant, s.err)
		return nil
	}
	got, err := campaign.ReadDB(strings.NewReader(s.db))
	if err != nil {
		o.gate("submission %s: fetched database: %v", s.id, err)
		return nil
	}
	var done []campaign.ScenarioJob
	for _, j := range s.jobs {
		if r, ok := got[j.Key()]; ok {
			done = append(done, j)
			checkResults(o, []*campaign.Result{r})
		}
	}
	if s.state != "cancelled" && len(done) != len(s.jobs) {
		o.gate("submission %s (%s) fetched %d of %d campaigns", s.id, s.state, len(done), len(s.jobs))
	}
	if len(got) != len(done) {
		o.gate("submission %s fetched campaigns it did not submit", s.id)
	}
	if err := rc.reference(ctx, done, s.faults, recordRuns); err != nil {
		o.gate("reference run: %v", err)
		return nil
	}
	sort.Slice(done, func(i, k int) bool { return done[i].Key() < done[k].Key() })
	var want strings.Builder
	var ents []refEntry
	for _, j := range done {
		ent := rc.entries[refKey(j, s.faults, recordRuns)]
		want.WriteString(ent.Row)
		ents = append(ents, ent)
	}
	if want.String() != s.db {
		o.gate("submission %s (tenant %s): fetched JSONL differs from a local Engine.RunMatrix of the same jobs", s.id, s.tenant)
	}
	return ents
}

// restartSetup reopens a closed queue data directory — segmented store,
// journal replay, queue and handler — until its first lease request is
// answered.
func restartSetup(ctx context.Context, dir string) error {
	seg, err := campaign.OpenSegmentedStore(filepath.Join(dir, "store"), campaign.SegmentSync(), campaign.SegmentBytes(segmentBytes))
	if err != nil {
		return err
	}
	defer seg.Close()
	coord, j, err := dist.RestoreQueue(filepath.Join(dir, "journal.jsonl"), dist.WithStore(seg), dist.ShardSize(shardSize))
	if err != nil {
		return err
	}
	defer j.Close()
	_, err = dist.NewLoopbackClient(coord.Handler()).Lease(ctx, "setup")
	return err
}

// queueReport reopens the queue's store and renders the paper report over
// tenant B's campaigns, which are the same at every run of a seed (how much
// of A's bulk completes depends on host speed).
func queueReport(dir string) error {
	seg, err := campaign.OpenSegmentedStore(filepath.Join(dir, "store"), campaign.SegmentBytes(segmentBytes))
	if err != nil {
		return err
	}
	defer seg.Close()
	m := exp.MatrixFromStore(seg.Tenant("b"), exp.DefaultConfig())
	if len(m.Order) == 0 || len(exp.Report(m, 0)) == 0 {
		return fmt.Errorf("empty report for tenant b")
	}
	return nil
}

func runQueue(e *env) (*outcome, error) {
	o := newOutcome()
	aJobs, bJobs, err := tenantJobs()
	if err != nil {
		return nil, err
	}
	refs, err := newRefCache(filepath.Join(e.outDir, "ref", e.bin))
	if err != nil {
		return nil, err
	}
	// Two windows, each on a fresh data directory, double the turnaround
	// samples B's 28 campaign keys allow. A traced run traces the last; the
	// throughputs give the tracing overhead.
	var windows []*windowStats
	var rec *recorder
	const nWindows = 2
	for k := 0; k < nWindows; k++ {
		if e.traced && k == nWindows-1 {
			rec = newRecorder()
		}
		window := e.seconds / nWindows
		dues := schedule(e.seed, window, len(bJobs))
		ws, err := queueWindow(e.ctx, filepath.Join(e.dir, fmt.Sprintf("window%d", k)), window, aJobs, bJobs, dues, rec)
		if err != nil {
			return nil, err
		}
		fmt.Printf("window %d: %.3fs, %d injections folded, %d small submissions, bulk %s\n",
			k, ws.wall.Seconds(), ws.injected, len(ws.small), ws.bulk.state)
		windows = append(windows, ws)
	}
	last := windows[len(windows)-1]

	// Correctness against local engine runs, outside the timed windows.
	var smallJobs []campaign.ScenarioJob
	var smallRefs []refEntry
	var smallLines []string
	for _, w := range windows {
		refs.verify(e.ctx, o, w.bulk, false)
		o.attempted++
		if w.bulk.err != nil {
			o.failed++
		}
		for _, s := range w.small {
			o.attempted++
			if s.err != nil || s.state != "done" {
				o.failed++
			}
			ents := refs.verify(e.ctx, o, s, true)
			if w == last && len(ents) == 1 {
				smallJobs = append(smallJobs, s.jobs[0])
				smallRefs = append(smallRefs, ents[0])
				smallLines = append(smallLines, strings.TrimSuffix(ents[0].Row, "\n"))
			}
		}
		o.attempted += w.wire.requests
		o.failed += w.wire.failed
	}

	// Tenant B's work repeats exactly at a seed; A's depends on how far
	// the window got.
	var c workCounts
	for _, ent := range smallRefs {
		c.rows++
		c.rowBytes += len(ent.Row)
		c.injections += ent.Faults
		c.simulated += ent.Simulated
		c.pruned += ent.Pruned
		c.traced += ent.Traced
	}
	c.record(o, "small.")
	sort.Strings(smallLines)
	o.digest = rowsDigest(smallLines)

	if e.traced {
		return tracedQueue(e, o, last, windows[:len(windows)-1], smallJobs, smallRefs, rec)
	}
	setup, err := timeMedian(15, time.Second, func() error { return restartSetup(e.ctx, last.dir) })
	if err != nil {
		return nil, fmt.Errorf("restart: %w", err)
	}
	report, err := timeMedian(5, time.Second, func() error { return queueReport(last.dir) })
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	var injected, wall float64
	var turns, firsts, peaks, lag []float64
	for _, w := range windows {
		injected += float64(w.injected)
		wall += w.wall.Seconds()
		turns = append(turns, secs(w.turnaround)...)
		firsts = append(firsts, w.first.Seconds())
		peaks = append(peaks, w.peak)
		lag = append(lag, secs(w.lags)...)
	}
	tv, tp, tn := tail(turns)
	o.metrics["inj_per_s"] = injected / wall
	o.metrics["setup_s"] = setup
	o.metrics["first_result_s"] = median(firsts)
	o.metrics["peak_rss_mb"] = median(peaks)
	o.metrics["db_B_per_fault"] = float64(last.storeBytes) / float64(c.injections)
	o.metrics["ok_frac"] = 1 - float64(o.failed)/float64(o.attempted)
	o.metrics["report_s"] = report
	o.metrics["small_turnaround_p50_s"] = median(turns)
	o.metrics["small_turnaround_tail_s"] = tv
	fmt.Printf("small turnaround tail p%.1f of n=%d; generator lag median %.6fs max %.6fs\n",
		tp, tn, median(lag), sorted(lag)[len(lag)-1])
	return o, nil
}

// tracedQueue fills the per-layer metrics of the queue workload: dist and
// campaign from the traced window's middleware and store, the rest from a
// replay of tenant B's campaigns and the probes.
func tracedQueue(e *env, o *outcome, ws *windowStats, plain []*windowStats, smallJobs []campaign.ScenarioJob,
	smallRefs []refEntry, rec *recorder) (*outcome, error) {
	distMetrics(o, ws.wire, ws.status, ws.wall, ws.lags)
	o.metrics["campaign.put_us"] = median(scaled(secs(ws.puts.durs), 1e6))
	var rates []float64
	for _, w := range plain {
		rates = append(rates, float64(w.injected)/w.wall.Seconds())
	}
	o.metrics["trace.overhead_frac"] = median(rates)/(float64(ws.injected)/ws.wall.Seconds()) - 1
	reparent(rec, "campaign.Store.Put", dist.PathComplete)

	w := &engineWorkload{name: "queue-2tenant/b", faults: bFaults, recordRuns: true}
	rp, err := replay(e.ctx, w, smallJobs, rec, filepath.Join(e.dir, "replay"))
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	for i, j := range smallJobs {
		if row, err := v4Row(rp.results[i]); err != nil || string(row) != smallRefs[i].Row {
			o.gate("%s: replayed per-fault outcomes differ from the engine run's", j.Key())
		}
	}
	layerMetrics(o, rec, rp)
	// The queue's campaign worker pool is its two dist workers.
	o.metrics["campaign.worker_idle_frac"] = o.metrics["dist.worker_idle_frac"]
	if err := probeLayers(e, o, w, rp, smallJobs[0]); err != nil {
		return nil, err
	}
	return o, finishTrace(e, o, rec)
}

// distMetrics fills the dist metrics from a traced window.
func distMetrics(o *outcome, wl *wireLog, st dist.StatusReply, wall time.Duration, lags []time.Duration) {
	pathMed := func(path string, scale float64) float64 {
		return median(scaled(secs(wl.byPath[path]), scale))
	}
	o.metrics["dist.lease_us"] = pathMed(dist.PathLease, 1e6)
	o.metrics["dist.complete_us"] = pathMed(dist.PathComplete, 1e6)
	o.metrics["dist.submit_us"] = pathMed(dist.PathSubmit, 1e6)
	o.metrics["dist.fetch_ms"] = pathMed(dist.PathFetch, 1e3)
	o.metrics["dist.shard_ms"] = median(scaled(secs(wl.shards), 1e3))
	var busy float64
	for _, d := range wl.shards {
		busy += d.Seconds()
	}
	o.metrics["dist.worker_idle_frac"] = 1 - busy/(workers*wall.Seconds())
	o.metrics["dist.reissued"] = float64(st.Reissued)
	o.metrics["dist.retries"] = float64(wl.idle)
	o.metrics["queue.gen_lag_s"] = median(secs(lags))
}

// reparent makes each child span (by name) a child of the latest-starting
// parent span (by name) whose interval contains it; the store's Put runs
// inside the coordinator's completion handler.
func reparent(rec *recorder, child, parent string) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for i := range rec.spans {
		c := &rec.spans[i]
		if c.Name != child || c.Parent != 0 {
			continue
		}
		var best *span
		for k := range rec.spans {
			p := &rec.spans[k]
			if p.Name == parent && p.Start <= c.Start && p.End >= c.End && (best == nil || p.Start > best.Start) {
				best = p
			}
		}
		if best != nil {
			c.Parent = best.ID
		}
	}
}

// queueProbe measures the dist layer for an engine workload: its first
// campaign submitted to a fresh queue and fetched over the wire, which must
// match the engine's row byte for byte.
func queueProbe(e *env, o *outcome, w *engineWorkload, job campaign.ScenarioJob, want *campaign.Result, rec *recorder) error {
	dir := filepath.Join(e.dir, "queue-probe")
	t0 := time.Now()
	q, err := openQueue(dir, rec, t0)
	if err != nil {
		return err
	}
	q.start(e.ctx)
	cl := dist.NewLoopbackClient(q.handler)
	lag := time.Since(t0)
	rep, err := cl.Submit(e.ctx, dist.SubmitRequest{Tenant: "probe", Jobs: dist.WireJobs([]campaign.ScenarioJob{job}),
		Faults: w.faults, TraceProp: w.traceProp, RecordRuns: w.recordRuns})
	if err == nil {
		err = q.coord.WaitSubmission(rep.ID)
	}
	var fr dist.FetchReply
	if err == nil {
		fr, err = cl.Fetch(e.ctx, rep.ID)
	}
	wall := time.Since(t0)
	st := q.coord.Status()
	if cerr := q.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	var b bytes.Buffer
	if err := campaign.WriteDB(&b, []*campaign.Result{want}); err != nil {
		return err
	}
	if fr.DB != b.String() {
		o.gate("%s: queue-fetched row differs from the engine run's", job.Key())
	}
	distMetrics(o, q.wire, st, wall, []time.Duration{lag})
	reparent(rec, "campaign.Store.Put", dist.PathComplete)
	o.attempted += q.wire.requests
	o.failed += q.wire.failed
	return nil
}
