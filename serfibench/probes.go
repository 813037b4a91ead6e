package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"serfi/internal/cache"
	"serfi/internal/campaign"
	"serfi/internal/fi"
	"serfi/internal/mach"
	"serfi/internal/npb"
)

// machProbe runs each scenario from reset with profiling off, timing
// Machine.Run per retired instruction, then probes fi.Classify on the
// terminal machine against the scenario's golden reference (the classify
// cost every unpruned, cleanly exiting injection pays). The terminal state
// must classify Vanished: a profiling-off run reproduces the golden run.
func machProbe(o *outcome, infos []*scenarioInfo) (nsPerInstr float64, classify []time.Duration) {
	var mu sync.Mutex
	var runNs, instrs float64
	ch := make(chan *scenarioInfo)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range ch {
				m := mach.New(s.cfg)
				s.img.InstallTo(m)
				t0 := time.Now()
				stop := m.Run(s.golden.Cycles*fi.HangFactor + fi.HangSlack)
				d := time.Since(t0)
				var cl []time.Duration
				var verdict fi.Outcome
				for k := 0; k < 3; k++ {
					t0 := time.Now()
					verdict = fi.Classify(m, &s.golden, stop)
					cl = append(cl, time.Since(t0))
				}
				mu.Lock()
				if verdict != fi.Vanished {
					o.gate("%s: a from-reset run without profiling classifies %v against its golden run", s.sc.ID(), verdict)
				}
				runNs += float64(d.Nanoseconds())
				instrs += float64(m.TotalRetired)
				classify = append(classify, cl...)
				mu.Unlock()
			}
		}()
	}
	for _, s := range infos {
		ch <- s
	}
	close(ch)
	wg.Wait()
	return runNs / instrs, classify
}

// cacheProbe times Hierarchy.Data over a seeded address stream sized
// against the modelled caches: most accesses fall in a set that fits L1D,
// some in one that fits L2, the rest miss both; a quarter are stores, and
// accesses alternate between two cores when the configuration has them,
// so write-invalidate coherence is exercised. Caches start cold.
func cacheProbe(cfg mach.Config, seed int64) float64 {
	hc := cfg.Cache
	cores := cfg.Cores
	if cores > 2 {
		cores = 2
	}
	r := rand.New(rand.NewSource(seed))
	const n = 1 << 18
	l1 := hc.L1D.SizeBytes * 3 / 4
	l2 := hc.L2.SizeBytes * 3 / 4
	far := cfg.RAMBytes / 2
	addrs := make([]uint32, n)
	writes := make([]bool, n)
	for i := range addrs {
		var a uint32
		switch x := r.Intn(100); {
		case x < 80:
			a = uint32(r.Intn(int(l1)))
		case x < 95:
			a = uint32(r.Intn(int(l2)))
		default:
			a = uint32(r.Intn(int(far)))
		}
		addrs[i] = 0x100000 + a&^3
		writes[i] = r.Intn(4) == 0
	}
	var per []float64
	for rep := 0; rep < 5; rep++ {
		h := cache.NewHierarchy(hc, cfg.Cores, cfg.RAMBytes)
		t0 := time.Now()
		for i, a := range addrs {
			h.Data(i%cores, a, writes[i])
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/n)
	}
	return median(per)
}

// allocProbe re-injects the first faults of one campaign serially and
// reports the heap bytes allocated per injection (runtime.MemStats
// TotalAlloc delta).
func allocProbe(ctx context.Context, w *engineWorkload, job campaign.ScenarioJob) (float64, error) {
	img, cfg, err := npb.BuildScenario(job.Scenario)
	if err != nil {
		return 0, err
	}
	gcfg := cfg
	gcfg.Profile = true
	gcfg.SamplePeriod = campaign.DefaultSamplePeriod
	g, err := fi.RunGoldenContext(ctx, img, gcfg, 0)
	if err != nil {
		return 0, err
	}
	cs, err := fi.BuildCheckpointsOpt(ctx, img, cfg, g, fi.CheckpointOptions{N: fi.DefaultCheckpoints})
	if err != nil {
		return 0, err
	}
	defer cs.Close()
	dom, err := fi.NewDomain(job.Domain, img, cfg, g)
	if err != nil {
		return 0, err
	}
	faults := fi.List(job.Seed, w.faults, dom)
	// One warm-up injection fills the set's machine pool.
	if _, err := cs.InjectPointContext(ctx, dom, g, faults[0]); err != nil {
		return 0, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, p := range faults {
		if _, err := cs.InjectPointContext(ctx, dom, g, p); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(faults)), nil
}

// tracedEngine is the traced run of an engine workload: one untraced
// round (the overhead baseline and the reference rows), the traced replay,
// then the probes.
func tracedEngine(e *env, w *engineWorkload, jobs []campaign.ScenarioJob) (*outcome, error) {
	o := newOutcome()
	r0, err := w.round(e.ctx, jobs, e.dir+"/round0")
	if err != nil {
		return nil, err
	}
	checkResults(o, r0.results)
	o.attempted += len(jobs)
	o.failed += r0.failed
	fmt.Printf("untraced round: %.3fs wall, %d injections\n", r0.wall.Seconds(), r0.injections)

	rec := newRecorder()
	rp, err := replay(e.ctx, w, jobs, rec, e.dir+"/replay")
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	fmt.Printf("traced replay: %.3fs wall (%.3fs of it probes over %d goroutines)\n", rp.wall.Seconds(), rp.probe.Seconds(), workers)
	checkResults(o, rp.results)
	for i, job := range jobs {
		a, b := r0.results[i], rp.results[i]
		if a == nil || b == nil {
			o.gate("%s: missing from the engine run or the replay", job.Key())
			continue
		}
		ra, err1 := v4Row(a)
		rb, err2 := v4Row(b)
		if err1 != nil || err2 != nil || string(ra) != string(rb) {
			o.gate("%s: replayed per-fault outcomes differ from the engine run's", job.Key())
		}
		if a.SimulatedInstr != b.SimulatedInstr || a.PrunedRuns != b.PrunedRuns {
			o.gate("%s: replay simulated %d instrs / pruned %d, engine %d / %d", job.Key(),
				b.SimulatedInstr, b.PrunedRuns, a.SimulatedInstr, a.PrunedRuns)
		}
	}
	if err := engineRowsMatch(rp.dbPath, r0.rows); err != nil {
		o.gate("%v", err)
	}
	countsOf(r0.results, r0.rows).record(o, "")

	layerMetrics(o, rec, rp)
	o.metrics["campaign.worker_idle_frac"] = 1 - (r0.jobWall+r0.setup.Seconds())/(workers*r0.wall.Seconds())
	o.metrics["campaign.put_us"] = median(scaled(secs(rec.durations("campaign.Store.Put")), 1e6))
	o.metrics["trace.overhead_frac"] = (rp.wall.Seconds()-rp.probe.Seconds()/workers)/r0.wall.Seconds() - 1

	if err := probeLayers(e, o, w, rp, jobs[0]); err != nil {
		return nil, err
	}
	if err := queueProbe(e, o, w, jobs[0], r0.results[0], rec); err != nil {
		return nil, fmt.Errorf("queue probe: %w", err)
	}
	return o, finishTrace(e, o, rec)
}

// probeLayers runs the probes every traced run shares over a replay: the
// machine and classify probes on its scenarios, the cache probe, the
// allocation probe on one campaign, and the sens report over its rows.
func probeLayers(e *env, o *outcome, w *engineWorkload, rp *replayOut, job campaign.ScenarioJob) error {
	nsPerInstr, classify := machProbe(o, rp.scenarios)
	o.metrics["mach.ns_per_instr"] = nsPerInstr
	classifyProbe(o, classify, rp)
	o.metrics["cache.data_ns"] = cacheProbe(rp.scenarios[0].cfg, e.seed)
	alloc, err := allocProbe(e.ctx, w, job)
	if err != nil {
		return fmt.Errorf("alloc probe: %w", err)
	}
	o.metrics["mach.alloc_B_per_inject"] = alloc
	var rc reportCost
	if w.recordRuns {
		rc, err = sensReport(rp.dbPath)
	} else {
		rc, err = sensOf(rp.results)
	}
	if err != nil {
		return fmt.Errorf("sens: %w", err)
	}
	o.metrics["sens.context_ms"] = median(scaled(secs(rc.context), 1e3))
	o.metrics["sens.analyze_us_per_row"] = rc.analyze.Seconds() * 1e6 / float64(rc.rows)
	return nil
}

// finishTrace reports the self time per layer and writes the Chrome trace.
func finishTrace(e *env, o *outcome, rec *recorder) error {
	selfTimes(o, rec)
	path := fmt.Sprintf("%s/trace-%s-%d.json", e.outDir, e.workload, e.seed)
	if err := rec.writeChrome(path); err != nil {
		return err
	}
	fmt.Printf("chrome trace: %s\n", path)
	return nil
}

// engineRowsMatch checks a replay database against the engine's rows.
func engineRowsMatch(path string, rows []string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if !equalRows(sortedRows(data), rows) {
		return fmt.Errorf("replay database rows differ from the engine run's")
	}
	return nil
}

// layerMetrics derives the fi, npb, profile, fault, cache, prop and mach
// metrics of a replay from its spans and records.
func layerMetrics(o *outcome, rec *recorder, rp *replayOut) {
	ms := func(name string) float64 { return median(scaled(secs(rec.durations(name)), 1e3)) }
	o.metrics["npb.build_ms"] = ms("npb.BuildScenario")
	o.metrics["fi.golden_ms"] = ms("fi.RunGoldenContext")
	o.metrics["fi.checkpoint_ms"] = ms("fi.BuildCheckpointsOpt")
	o.metrics["profile.extract_ms"] = ms("profile.Extract")
	o.metrics["fault.list_us"] = ms("fi.List") * 1e3
	var goldenNs float64
	for _, d := range rec.durations("fi.RunGoldenContext") {
		goldenNs += float64(d.Nanoseconds())
	}
	var retired, accesses uint64
	ckpt := 0
	for _, s := range rp.scenarios {
		retired += s.golden.Retired
		accesses += s.accesses
		ckpt += s.ckptB
	}
	o.metrics["fi.golden_ns_per_instr"] = goldenNs / float64(retired)
	o.metrics["fi.ckpt_resident_B"] = float64(ckpt)
	o.metrics["cache.accesses_per_instr"] = float64(accesses) / float64(retired)

	var durs []float64
	var instrs uint64
	pruned, classified := 0, 0
	for _, in := range rp.injects {
		durs = append(durs, in.dur.Seconds()*1e3)
		instrs += in.instrs
		if in.pruned {
			pruned++
		} else if in.outcome == fi.Vanished || in.outcome == fi.ONA {
			classified++ // reached the memory and register comparison
		}
	}
	n := float64(len(rp.injects))
	tv, tp, tn := tail(durs)
	o.metrics["fi.inject_ms_p50"] = median(durs)
	o.metrics["fi.inject_ms_tail"] = tv
	fmt.Printf("inject tail p%.1f of n=%d\n", tp, tn)
	o.metrics["fi.instrs_per_inject"] = float64(instrs) / n
	o.metrics["fi.prune_frac"] = float64(pruned) / n
	o.metrics["fi.classified_frac"] = float64(classified) / n
	o.metrics["prop.trace_ms"] = median(scaled(secs(rp.traces), 1e3))
	o.metrics["prop.traced_frac"] = float64(rp.traced) / n
	o.metrics["mach.restore_us"] = median(scaled(secs(rp.restores), 1e6))
	o.count("layer.cache.accesses_per_instr", o.metrics["cache.accesses_per_instr"])
	o.count("layer.fi.ckpt_resident_B", o.metrics["fi.ckpt_resident_B"])
	o.count("layer.fi.classified_frac", o.metrics["fi.classified_frac"])
	o.count("layer.prop.traced_runs", float64(rp.traced))
}

// classifyProbe records the classify probe and its share of the mean
// injection time.
func classifyProbe(o *outcome, classify []time.Duration, rp *replayOut) {
	us := median(scaled(secs(classify), 1e6))
	o.metrics["fi.classify_us"] = us
	var total float64
	for _, in := range rp.injects {
		total += in.dur.Seconds() * 1e6
	}
	mean := total / float64(len(rp.injects))
	o.metrics["fi.classify_share"] = us * o.metrics["fi.classified_frac"] / mean
}

// selfTimes reports each layer's self time over the traced run.
func selfTimes(o *outcome, rec *recorder) {
	self := rec.selfTime()
	fmt.Println("self time per layer:")
	for _, l := range []string{"bench", "npb", "fi", "profile", "fault", "mach", "prop", "campaign", "dist"} {
		v := float64(self[l].Nanoseconds()) / 1e6
		o.metrics["self."+l+"_ms"] = v
		fmt.Printf("  %-9s %12.3f ms\n", l, v)
	}
}
