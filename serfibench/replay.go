package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"serfi/internal/campaign"
	"serfi/internal/cc"
	"serfi/internal/fault"
	"serfi/internal/fi"
	"serfi/internal/mach"
	"serfi/internal/npb"
	"serfi/internal/profile"
	"serfi/internal/prop"
)

// injectRec is one replayed injection.
type injectRec struct {
	dur     time.Duration
	instrs  uint64
	pruned  bool
	outcome fi.Outcome
}

// scenarioInfo is what the probes need of a replayed scenario after its
// golden machine and checkpoints are dropped.
type scenarioInfo struct {
	sc       npb.Scenario
	img      *cc.Image
	cfg      mach.Config
	golden   fi.Golden // Machine cleared
	accesses uint64    // cache accesses of the golden run, all levels
	ckptB    int
}

// replayOut is the traced replay of an engine workload.
type replayOut struct {
	results   []*campaign.Result
	wall      time.Duration
	injects   []injectRec
	scenarios []*scenarioInfo
	restores  []time.Duration
	traces    []time.Duration
	traced    int           // traces attached to campaign rows
	probe     time.Duration // probe work inside the replay, all goroutines
	dbPath    string
}

// tracerProbe is one unmasked run of an untraced workload, traced to
// measure the tracer.
type tracerProbe struct {
	dom fault.Domain
	p   fi.Fault
}

// replayGroup is the jobs of one scenario (one per fault domain).
type replayGroup struct {
	sc   npb.Scenario
	idx  []int
	jobs []campaign.ScenarioJob
}

// replay runs the workload's jobs through the layers' public phase
// functions on two goroutines — build, profiled golden, profile
// extraction, checkpoints, fault list, InjectPointContext per fault, the
// propagation tracer on unmasked runs, and Store.Put — timing each call as
// a span. It uses only the context-aware APIs, so deleting the legacy
// wrappers cannot break it.
func replay(ctx context.Context, w *engineWorkload, jobs []campaign.ScenarioJob, rec *recorder, dir string) (*replayOut, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	out := &replayOut{results: make([]*campaign.Result, len(jobs)), dbPath: filepath.Join(dir, "replay.jsonl")}
	st, err := campaign.OpenFileStore(out.dbPath)
	if err != nil {
		return nil, err
	}
	var groups []*replayGroup
	byKey := make(map[string]*replayGroup)
	for i, job := range jobs {
		k := fmt.Sprintf("%s/%d", job.Scenario.ID(), job.Seed)
		g := byKey[k]
		if g == nil {
			g = &replayGroup{sc: job.Scenario}
			byKey[k] = g
			groups = append(groups, g)
		}
		g.idx = append(g.idx, i)
		g.jobs = append(g.jobs, job)
	}
	ch := make(chan *replayGroup)
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	t0 := time.Now()
	for tid := 1; tid <= workers; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for g := range ch {
				if err := replayScenario(ctx, w, g, tid, rec, st, out, &mu); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}(tid)
	}
	for _, g := range groups {
		ch <- g
	}
	close(ch)
	wg.Wait()
	out.wall = time.Since(t0)
	if err := st.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return out, firstErr
}

func replayScenario(ctx context.Context, w *engineWorkload, grp *replayGroup, tid int, rec *recorder,
	st campaign.Store, out *replayOut, mu *sync.Mutex) error {
	id := grp.sc.ID()
	root, endRoot := rec.begin("bench", "scenario "+id, 0, "", tid)
	defer endRoot()
	call := func(layer, name, key string, parent int64, f func()) {
		_, end := rec.begin(layer, name, parent, key, tid)
		f()
		end()
	}
	var (
		img *cc.Image
		cfg mach.Config
		err error
	)
	call("npb", "npb.BuildScenario", "", root, func() { img, cfg, err = npb.BuildScenario(grp.sc) })
	if err != nil {
		return err
	}
	gcfg := cfg
	gcfg.Profile = true
	gcfg.SamplePeriod = campaign.DefaultSamplePeriod
	var g *fi.Golden
	call("fi", "fi.RunGoldenContext", "", root, func() { g, err = fi.RunGoldenContext(ctx, img, gcfg, 0) })
	if err != nil {
		return err
	}
	var features profile.Features
	var apiCalls uint64
	call("profile", "profile.Extract", "", root, func() {
		features = profile.Extract(img, g.Machine)
		apiCalls = profile.Build(img, g.Machine).CallsTo(profile.RuntimePrefixes...)
	})
	var cs *fi.CheckpointSet
	call("fi", "fi.BuildCheckpointsOpt", "", root, func() {
		cs, err = fi.BuildCheckpointsOpt(ctx, img, cfg, g, fi.CheckpointOptions{N: fi.DefaultCheckpoints})
	})
	if err != nil {
		return err
	}
	defer cs.Close()
	tracer := prop.NewTracer(img, cfg, g, cs)

	info := &scenarioInfo{sc: grp.sc, img: img, cfg: cfg, golden: *g, ckptB: cs.MemBytes()}
	info.golden.Machine = nil
	h := g.Machine.Hier
	for c := 0; c < cfg.Cores; c++ {
		info.accesses += h.L1IStats(c).Accesses() + h.L1DStats(c).Accesses()
	}
	info.accesses += h.L2Stats().Accesses()

	var injects []injectRec
	var traceDurs []time.Duration
	traced := 0
	probes := make(map[string]*tracerProbe)
	var probeOrder []string
	for j, job := range grp.jobs {
		key := job.Key()
		cid, endC := rec.begin("bench", "campaign "+key, root, key, tid)
		dom, err := fi.NewDomain(job.Domain, img, cfg, g)
		if err != nil {
			endC()
			return err
		}
		var faults []fi.Fault
		call("fault", "fi.List", key, cid, func() { faults = fi.List(job.Seed, w.faults, dom) })
		clone := cs.Clone()
		runs := make([]fi.Result, len(faults))
		var traces []*prop.Trace
		if w.traceProp {
			traces = make([]*prop.Trace, len(faults))
		}
		for i, p := range faults {
			sim0, _ := clone.SimulatedInstructions()
			pr0, _ := clone.PruneStats()
			_, end := rec.begin("fi", "fi.InjectPointContext", cid, key, tid)
			t0 := time.Now()
			r, err := clone.InjectPointContext(ctx, dom, g, p)
			d := time.Since(t0)
			end()
			if err != nil {
				endC()
				return err
			}
			sim1, _ := clone.SimulatedInstructions()
			pr1, _ := clone.PruneStats()
			runs[i] = r
			injects = append(injects, injectRec{dur: d, instrs: sim1 - sim0, pruned: pr1 > pr0, outcome: r.Outcome})
			if !fi.IsUnmasked(r.Outcome) {
				continue
			}
			if !w.traceProp {
				// An untraced workload has its first unmasked run per
				// campaign traced after the replay, as a probe of the
				// tracer's cost that never reaches its rows.
				if probes[key] == nil {
					probes[key] = &tracerProbe{dom: dom, p: p}
					probeOrder = append(probeOrder, key)
				}
				continue
			}
			var tr prop.Trace
			_, end = rec.begin("prop", "prop.Tracer.Trace", cid, key, tid)
			t0 = time.Now()
			tr, _, err = tracer.Trace(dom, p)
			traceDurs = append(traceDurs, time.Since(t0))
			end()
			if err != nil {
				endC()
				return err
			}
			traces[i] = &tr
			traced++
		}
		sim, _ := clone.SimulatedInstructions()
		pruned, _ := clone.PruneStats()
		res := &campaign.Result{
			Scenario: job.Scenario,
			Domain:   job.Domain,
			Faults:   w.faults,
			Seed:     job.Seed,
			Golden: campaign.GoldenSummary{
				AppStart: g.AppStart, AppEnd: g.AppEnd, Retired: g.Retired, Cycles: g.Cycles,
			},
			Features:       features,
			APICalls:       apiCalls,
			Runs:           runs,
			Traces:         traces,
			Prop:           prop.Summarize(traces),
			RecordRuns:     w.recordRuns,
			SimulatedInstr: sim,
			PrunedRuns:     int(pruned),
		}
		for _, r := range runs {
			res.Counts.Add(r.Outcome)
		}
		call("campaign", "campaign.Store.Put", key, cid, func() { err = st.Put(res) })
		endC()
		if err != nil {
			return err
		}
		mu.Lock()
		out.results[grp.idx[j]] = res
		mu.Unlock()
	}

	// Probes after the group's campaigns; their time is excluded from the
	// tracing overhead.
	probeStart := time.Now()
	for _, key := range probeOrder {
		pr := probes[key]
		_, end := rec.begin("prop", "prop.Tracer.Trace", root, key, tid)
		t0 := time.Now()
		_, _, err := tracer.Trace(pr.dom, pr.p)
		traceDurs = append(traceDurs, time.Since(t0))
		end()
		if err != nil {
			return err
		}
	}
	// Restore probe: alternate between an early and a late checkpoint on
	// one machine, as the injection pool recycles machines.
	var restores []time.Duration
	span := g.AppEnd - g.AppStart
	m := mach.New(cfg)
	for k := 0; k < 16; k++ {
		at := g.AppStart + span/4
		if k%2 == 1 {
			at = g.AppStart + span*3/4
		}
		_, end := rec.begin("mach", "fi.CheckpointSet.RestoreNearest", root, "", tid)
		t0 := time.Now()
		ok := cs.RestoreNearest(m, at)
		d := time.Since(t0)
		end()
		if ok && k >= 2 {
			restores = append(restores, d)
		}
	}

	probeTime := time.Since(probeStart)
	mu.Lock()
	out.probe += probeTime
	out.injects = append(out.injects, injects...)
	out.traces = append(out.traces, traceDurs...)
	out.traced += traced
	out.restores = append(out.restores, restores...)
	out.scenarios = append(out.scenarios, info)
	mu.Unlock()
	return nil
}

// v4Row renders a result as a per-fault (v4) database row, whatever the
// workload recorded, so the replay's per-fault outcomes compare with the
// engine's byte for byte.
func v4Row(r *campaign.Result) ([]byte, error) {
	c := *r
	c.RecordRuns = true
	var b bytes.Buffer
	err := campaign.WriteDB(&b, []*campaign.Result{&c})
	return b.Bytes(), err
}
