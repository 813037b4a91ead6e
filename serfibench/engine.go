package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"serfi/internal/campaign"
	"serfi/internal/exp"
	"serfi/internal/fault"
	"serfi/internal/npb"
	"serfi/internal/sens"
)

// engineWorkload is a campaign matrix run through campaign.Engine.RunMatrix.
type engineWorkload struct {
	name       string
	ids        []string
	models     []fault.Model
	faults     int
	traceProp  bool
	recordRuns bool
	// report builds the workload's report from its database file.
	report func(path string) (reportCost, error)
	// reportShare is the time spent timing the report after each round,
	// as a share of the round's wall time.
	reportShare float64
	// warmReport times the report calls back to back rather than each from
	// a collected heap: a report that runs the collector several times
	// itself pays its own share, while a forced collection before each call
	// would hand its memory back to the kernel, and the page faults of
	// taking it again cost what the host's load makes them cost. A short
	// report runs the collector in one call of several, so its median is
	// steady only from a collected heap.
	warmReport bool
}

// workers is the host worker pool of every workload, sized for a 2-CPU host.
const workers = 2

// regMatrix is the paper's register-file campaign over a long-running slice
// of the matrix: the interpreter and the cache model dominate, and about
// half the runs are pruned before classify. One short campaign leads, so
// the first durable row comes early; the long armv7 campaigns follow, so
// the pool drains evenly.
var regMatrix = &engineWorkload{
	name: "reg-matrix",
	ids: []string{
		"armv8/FT/MPI-2",
		"armv7/IS/SER-1", "armv7/IS/OMP-2", "armv7/IS/MPI-2",
		"armv7/MG/SER-1", "armv7/MG/OMP-2", "armv7/MG/MPI-2",
		"armv7/FT/SER-1", "armv7/FT/OMP-2", "armv7/FT/MPI-2",
		"armv8/IS/SER-1", "armv8/IS/OMP-2", "armv8/IS/MPI-2",
		"armv8/MG/SER-1", "armv8/MG/OMP-2", "armv8/MG/MPI-2",
		"armv8/FT/SER-1", "armv8/FT/OMP-2",
	},
	models:      []fault.Model{fault.Reg},
	faults:      8,
	report:      paperReport,
	reportShare: 0.05,
}

// uncoreTraced covers the six non-register domains on short armv8
// scenarios, traced and recorded: pruning rarely fires, so nearly every
// injection pays classify, and the sens report reads the rows back.
var uncoreTraced = &engineWorkload{
	name:       "uncore-traced",
	ids:        []string{"armv8/EP/SER-1", "armv8/MG/OMP-2", "armv8/CG/OMP-4", "armv8/IS/SER-1"},
	models:     []fault.Model{fault.Mem, fault.IMem, fault.Burst, fault.CacheTag, fault.CacheDirty, fault.CacheRepl},
	faults:     8,
	traceProp:  true,
	recordRuns: true,
	report:     sensReport,
	// The sens report runs on one core for a tenth of a second and is
	// bound by memory, so it needs a large share of the run to average
	// over the host's bursts of contention.
	reportShare: 0.5,
	warmReport:  true,
}

// scenarios parses the workload's scenario IDs.
func parseScenarios(ids []string) ([]npb.Scenario, error) {
	scs := make([]npb.Scenario, len(ids))
	for i, id := range ids {
		sc, err := npb.ParseID(id)
		if err != nil {
			return nil, err
		}
		scs[i] = sc
	}
	return scs, nil
}

// engine builds the workload's Engine around an optional store and event
// stream.
func (w *engineWorkload) engine(st campaign.Store, events chan<- campaign.Event) *campaign.Engine {
	opts := []campaign.Option{campaign.Workers(workers), campaign.Faults(w.faults), campaign.Models(w.models...)}
	if st != nil {
		opts = append(opts, campaign.WithStore(st))
	}
	if events != nil {
		opts = append(opts, campaign.WithEvents(events))
	}
	if w.traceProp {
		opts = append(opts, campaign.TraceProp())
	}
	if w.recordRuns {
		opts = append(opts, campaign.RecordRuns())
	}
	return campaign.New(opts...)
}

// leadSeed draws the leading scenario's fault lists in every round of every
// run: the first durable row then times the system rather than which few
// faults a seed happened to draw for the one campaign it waits on.
const leadSeed = 0

// jobs expands the workload's matrix at a base seed.
func (w *engineWorkload) jobs(seed int64) ([]campaign.ScenarioJob, error) {
	scs, err := parseScenarios(w.ids)
	if err != nil {
		return nil, err
	}
	eng := w.engine(nil, nil)
	jobs := eng.JobsFor(scs, seed)
	copy(jobs, eng.JobsFor(scs[:1], leadSeed))
	return jobs, nil
}

// putLog records when each Put into a store returned and how long it took.
type putLog struct {
	mu   sync.Mutex
	t0   time.Time
	ends []time.Duration // since t0
	durs []time.Duration
	rec  *recorder
}

// timedStore wraps a Store to observe every Put returning: the first one
// is the workload's first durable result.
type timedStore struct {
	campaign.Store
	log *putLog
}

func (s *timedStore) Put(r *campaign.Result) error {
	t0 := time.Now()
	var end func()
	if s.log.rec != nil {
		_, end = s.log.rec.begin("campaign", "campaign.Store.Put", 0, r.Key(), 0)
	}
	err := s.Store.Put(r)
	if end != nil {
		end()
	}
	d := time.Since(t0)
	s.log.mu.Lock()
	s.log.ends = append(s.log.ends, time.Since(s.log.t0))
	s.log.durs = append(s.log.durs, d)
	s.log.mu.Unlock()
	return err
}

// Tenant scopes a tenant view of a TenantStore, keeping the shared log.
func (s *timedStore) Tenant(ns string) campaign.Store {
	return &timedStore{Store: s.Store.(campaign.TenantStore).Tenant(ns), log: s.log}
}

// roundStats is one RunMatrix of an engine workload.
type roundStats struct {
	wall, setup, first time.Duration
	turnaround         []time.Duration
	injections         int
	failed             int
	dbPath             string
	dbBytes            int
	rows               []string // sorted database rows
	results            []*campaign.Result
	jobWall            float64
	peak               float64 // MiB resident at most during the round
}

// round runs the whole matrix once into a fresh FileStore.
func (w *engineWorkload) round(ctx context.Context, jobs []campaign.ScenarioJob, dir string) (*roundStats, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	rs := &roundStats{dbPath: filepath.Join(dir, "db.jsonl")}
	fs, err := campaign.OpenFileStore(rs.dbPath)
	if err != nil {
		return nil, err
	}
	log := &putLog{}
	cleanHeap()
	events := make(chan campaign.Event)
	consumed := make(chan time.Duration)
	go func() {
		started := make(map[string]time.Time)
		var setup time.Duration
		for ev := range events {
			switch ev := ev.(type) {
			case campaign.ScenarioStarted:
				started[fmt.Sprintf("%s/%d", ev.Scenario.ID(), ev.Seed)] = time.Now()
			case campaign.GoldenDone:
				setup += time.Since(started[fmt.Sprintf("%s/%d", ev.Scenario.ID(), ev.Seed)])
			case campaign.MatrixDone:
				consumed <- setup
				return
			}
		}
	}()
	eng := w.engine(&timedStore{Store: fs, log: log}, events)
	log.t0 = time.Now()
	results, runErr := eng.RunMatrix(ctx, jobs)
	rs.wall = time.Since(log.t0)
	rs.peak = vmHWM()
	rs.setup = <-consumed
	close(events)
	if err := fs.Close(); err != nil {
		return nil, err
	}
	if runErr != nil {
		fmt.Printf("  matrix error: %v\n", runErr)
	}
	rs.results = results
	for _, r := range results {
		if r == nil {
			rs.failed++
			continue
		}
		rs.injections += r.Faults
		rs.jobWall += r.JobWallSec
	}
	rs.turnaround = log.ends
	if len(log.ends) > 0 {
		rs.first = log.ends[0]
	}
	data, err := os.ReadFile(rs.dbPath)
	if err != nil {
		return nil, err
	}
	rs.dbBytes = len(data)
	rs.rows = sortedRows(data)
	return rs, nil
}

// sortedRows splits a JSONL database into its rows, sorted.
func sortedRows(data []byte) []string {
	rows := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(rows) == 1 && rows[0] == "" {
		return nil
	}
	sort.Strings(rows)
	return rows
}

// workCounts are the deterministic work counters of a set of results.
type workCounts struct {
	injections, pruned, traced, rows int
	simulated                        uint64
	rowBytes                         int
}

func countsOf(results []*campaign.Result, rows []string) workCounts {
	var c workCounts
	for _, r := range results {
		if r == nil {
			continue
		}
		c.injections += r.Faults
		c.pruned += r.PrunedRuns
		c.simulated += r.SimulatedInstr
		for _, t := range r.Traces {
			if t != nil {
				c.traced++
			}
		}
	}
	c.rows = len(rows)
	for _, row := range rows {
		c.rowBytes += len(row) + 1
	}
	return c
}

// record prints the counters and adds them to the outcome.
func (c workCounts) record(o *outcome, prefix string) {
	o.count(prefix+"rows", float64(c.rows))
	o.count(prefix+"injections", float64(c.injections))
	o.count(prefix+"traced_runs", float64(c.traced))
	o.count(prefix+"fi.instrs_per_inject", ratio(float64(c.simulated), float64(c.injections)))
	o.count(prefix+"fi.prune_frac", ratio(float64(c.pruned), float64(c.injections)))
	o.count(prefix+"campaign.row_B", ratio(float64(c.rowBytes), float64(c.rows)))
	o.metrics["campaign.row_B"] = ratio(float64(c.rowBytes), float64(c.rows))
}

// checkResults gates every campaign: its outcome counts sum to its fault
// count.
func checkResults(o *outcome, results []*campaign.Result) {
	for _, r := range results {
		if r != nil && r.Counts.Total() != r.Faults {
			o.gate("%s: outcome counts sum to %d, want %d faults", r.Key(), r.Counts.Total(), r.Faults)
		}
	}
}

// subSeed is the base seed of round k of a run with the given seed: each
// round draws fresh fault lists, so a run averages over several, and the
// last round repeats round 0's.
func subSeed(seed int64, k int) int64 { return seed*1000 + int64(k) }

// runEngine runs an engine workload: rounds of the whole matrix, each from
// a clean heap, with fresh fault lists per round until the measured time is
// nearly spent, then one round repeating round 0, whose database rows and
// work counters must match it byte for byte. The report is timed over each
// round's database as soon as the round ends.
func runEngine(e *env, w *engineWorkload) (*outcome, error) {
	if e.traced {
		jobs, err := w.jobs(subSeed(e.seed, 0))
		if err != nil {
			return nil, err
		}
		return tracedEngine(e, w, jobs)
	}
	o := newOutcome()
	var rounds []*roundStats
	var walls, reports []float64
	start := time.Now()
	for k := 0; ; k++ {
		t0 := time.Now()
		repeat := k > 1 && time.Since(start).Seconds()+2*median(walls) > e.seconds.Seconds()
		seed := subSeed(e.seed, k)
		if repeat {
			seed = subSeed(e.seed, 0)
		}
		jobs, err := w.jobs(seed)
		if err != nil {
			return nil, err
		}
		rs, err := w.round(e.ctx, jobs, filepath.Join(e.dir, fmt.Sprintf("round%d", k)))
		if err != nil {
			return nil, err
		}
		fmt.Printf("round %d (seed %d): %.3fs wall, %.3fs setup, first row %.3fs, %d injections, %d failed campaigns, peak %.1f MiB\n",
			k, seed, rs.wall.Seconds(), rs.setup.Seconds(), rs.first.Seconds(), rs.injections, rs.failed, rs.peak)
		checkResults(o, rs.results)
		o.attempted += len(jobs)
		o.failed += rs.failed
		// Each round's database is read back right away, after one untimed
		// call, so the report's samples spread over the whole run and its
		// fault draws.
		report := func() error {
			_, err := w.report(rs.dbPath)
			return err
		}
		if err := report(); err != nil {
			return nil, fmt.Errorf("report: %w", err)
		}
		ds, err := timeCalls(3, time.Duration(w.reportShare*float64(rs.wall)), !w.warmReport, report)
		if err != nil {
			return nil, fmt.Errorf("report: %w", err)
		}
		reports = append(reports, ds...)
		os.RemoveAll(filepath.Dir(rs.dbPath))
		rounds = append(rounds, rs)
		walls = append(walls, time.Since(t0).Seconds())
		if repeat {
			if !equalRows(rounds[0].rows, rs.rows) {
				o.gate("repeated round's database rows differ from round 0's at the same seed")
			}
			if countsOf(rounds[0].results, rounds[0].rows) != countsOf(rs.results, rs.rows) {
				o.gate("repeated round's work counters differ from round 0's at the same seed")
			}
			break
		}
	}
	var inj, bytes float64
	var rates, setups, firsts, turns, peaks []float64
	for _, rs := range rounds {
		inj += float64(rs.injections)
		bytes += float64(rs.dbBytes)
		rates = append(rates, float64(rs.injections)/rs.wall.Seconds())
		setups = append(setups, rs.setup.Seconds())
		firsts = append(firsts, rs.first.Seconds())
		peaks = append(peaks, rs.peak)
		turns = append(turns, secs(rs.turnaround)...)
	}
	tv, tp, tn := tail(turns)
	o.metrics["inj_per_s"] = median(rates)
	o.metrics["setup_s"] = median(setups)
	o.metrics["first_result_s"] = median(firsts)
	o.metrics["peak_rss_mb"] = median(peaks)
	o.metrics["db_B_per_fault"] = bytes / inj
	o.metrics["ok_frac"] = 1 - float64(o.failed)/float64(o.attempted)
	o.metrics["report_s"] = median(reports)
	o.metrics["small_turnaround_p50_s"] = median(turns)
	o.metrics["small_turnaround_tail_s"] = tv
	fmt.Printf("rounds %d, campaign turnaround tail p%.1f of n=%d\n", len(rounds), tp, tn)
	countsOf(rounds[0].results, rounds[0].rows).record(o, "")
	o.digest = rowsDigest(rounds[0].rows)
	return o, nil
}

// rowsDigest identifies a set of database rows.
func rowsDigest(rows []string) string {
	h := sha256.New()
	for _, r := range rows {
		h.Write([]byte(r))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func equalRows(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// reportCost splits a report build into its sens phases (zero for the
// paper report).
type reportCost struct {
	context []time.Duration
	analyze time.Duration
	rows    int
}

// paperReport reopens a register-campaign database and renders the
// paper's report (tables, figures, mining) from it.
func paperReport(path string) (reportCost, error) {
	st, err := campaign.OpenFileStore(path)
	if err != nil {
		return reportCost{}, err
	}
	defer st.Close()
	m := exp.MatrixFromStore(st, exp.DefaultConfig())
	if len(m.Order) == 0 {
		return reportCost{}, fmt.Errorf("%s holds no campaigns", path)
	}
	if txt := exp.Report(m, 0); len(txt) == 0 {
		return reportCost{}, fmt.Errorf("empty paper report")
	}
	return reportCost{}, nil
}

// sensReport reopens a recorded database and builds the sensitivity
// attribution report of every scenario in it.
func sensReport(path string) (reportCost, error) {
	st, err := campaign.OpenFileStore(path)
	if err != nil {
		return reportCost{}, err
	}
	defer st.Close()
	return sensOf(st.Query(campaign.Query{HasRuns: true}))
}

// sensOf builds one sens report per scenario over results with per-run
// records.
func sensOf(results []*campaign.Result) (reportCost, error) {
	var rc reportCost
	byScenario := make(map[string][]*campaign.Result)
	var order []string
	for _, r := range results {
		id := r.Scenario.ID()
		if byScenario[id] == nil {
			order = append(order, id)
		}
		byScenario[id] = append(byScenario[id], r)
	}
	if len(order) == 0 {
		return rc, fmt.Errorf("no recorded campaigns to analyze")
	}
	var text bytes.Buffer
	for _, id := range order {
		rs := byScenario[id]
		t0 := time.Now()
		ctx, err := sens.NewContext(rs[0].Scenario, rs[0].Golden, 0)
		if err != nil {
			return rc, err
		}
		rc.context = append(rc.context, time.Since(t0))
		t0 = time.Now()
		rep, err := sens.Analyze(ctx, rs)
		if err != nil {
			return rc, err
		}
		text.WriteString(rep.Text(10))
		rc.analyze += time.Since(t0)
		rc.rows += rep.Faults
	}
	if text.Len() == 0 {
		return rc, fmt.Errorf("empty sens report")
	}
	return rc, nil
}
