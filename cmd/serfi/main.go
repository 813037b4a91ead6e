// Command serfi is the umbrella CLI of the soft-error reliability framework:
//
//	serfi scenarios                        list the 130 fault-injection scenarios
//	serfi golden   -s armv7/IS/MPI-4       faultless run + gem5-style stats dump
//	serfi stats    -s armv7/IS/MPI-4       gem5-style counter dump only (machine-readable)
//	serfi inject   -s ... -n 100 -seed 7   one scenario campaign, print outcomes
//	serfi campaign -n 100 -db results.jsonl all scenarios, write the database
//	serfi campaign -resume -db results.jsonl finish an interrupted matrix
//	serfi serve    -addr :8340 -n 100 -db results.jsonl   distributed coordinator
//	serfi worker   -join host:8340         pull and execute shards for a coordinator
//	serfi sens     -db results.jsonl       sensitivity attribution report from recorded rows
//	serfi profile  -s ...                  golden flat profile (calls/samples)
//	serfi disasm   -s ... -f main          disassemble a guest function
//	serfi trace    -s ... -o trace.json    campaign phase trace (Chrome trace_event JSON)
//	serfi trends                           print the Figure 1 dataset
//
// serve/worker are the distributed campaign fabric (internal/dist): serve
// shards the same matrix `serfi campaign` runs locally and hands lease-based
// shards to any number of `serfi worker -join` processes over a versioned
// HTTP+JSON protocol; results fold into the same JSONL store, bit-identical
// to a local run at the same seed. The coordinator serves a status page at
// http://addr/ (JSON at /v1/status), cluster-wide Prometheus metrics at
// /metrics, a live dashboard at /dash and pprof under /debug/pprof/.
//
// Campaign-shaped subcommands share the scheduler flags -workers (host
// worker pool), -jobsize (faults per injection job), -snapshots (pre-fault
// checkpoints per scenario; 0 disables snapshot acceleration) and
// -faultmodel (fault domain: reg|mem|imem|burst|cachetag|cachedirty|
// cacherepl, the uncore alias for the cache trio, or all). inject also takes
// -trace-prop, which re-runs every unmasked injection against a golden twin
// and reports how far the corruption propagated. inject, campaign
// and worker also take -cpuprofile/-memprofile, written on clean exit and
// on graceful SIGINT shutdown.
//
// A SIGINT (Ctrl-C) cancels the campaign engine gracefully: in-flight
// injection jobs stop at the next run slice, every completed campaign is
// already durable in the -db JSONL store, and the CLI prints the -resume
// command that finishes the matrix. A second SIGINT kills the process.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"runtime"

	"serfi/internal/campaign"
	"serfi/internal/cc"
	"serfi/internal/dist"
	"serfi/internal/exp"
	"serfi/internal/fault"
	"serfi/internal/fi"
	"serfi/internal/isa"
	"serfi/internal/mach"
	"serfi/internal/npb"
	"serfi/internal/obs"
	"serfi/internal/profile"
	"serfi/internal/prop"
	"serfi/internal/stats"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "scenarios":
		err = cmdScenarios(args)
	case "golden":
		err = cmdGolden(args)
	case "inject":
		err = cmdInject(args)
	case "campaign":
		err = cmdCampaign(args)
	case "serve":
		err = cmdServe(args)
	case "submit":
		err = cmdSubmit(args)
	case "ls":
		err = cmdLs(args)
	case "cancel":
		err = cmdCancel(args)
	case "worker":
		err = cmdWorker(args)
	case "stats":
		err = cmdStats(args)
	case "profile":
		err = cmdProfile(args)
	case "disasm":
		err = cmdDisasm(args)
	case "trace":
		err = cmdTrace(args)
	case "sens":
		err = cmdSens(args)
	case "trends":
		fmt.Print(exp.Figure1())
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "serfi:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: serfi {scenarios|golden|stats|inject|campaign|serve|submit|ls|cancel|worker|sens|profile|disasm|trace|trends} [flags]")
}

// parseScenario accepts "armv7/IS/MPI-4".
func parseScenario(s string) (npb.Scenario, error) { return npb.ParseID(s) }

// slowPathFlag registers the -slowpath escape hatch: it selects the
// retained per-instruction reference interpreter instead of the
// block-cached fast path for every machine this process builds. Both
// engines are bit-identical (the lockstep differential tests pin it); the
// flag exists for debugging and for the CI differential jobs.
func slowPathFlag(fs *flag.FlagSet) *bool {
	return fs.Bool("slowpath", false, "use the reference interpreter instead of the block-cached fast path (bit-identical, slower)")
}

// snapshotCount maps the CLI convention (0 disables) onto the campaign
// convention (0 = default, negative disables).
func snapshotCount(flagVal int) int {
	if flagVal <= 0 {
		return -1
	}
	return flagVal
}

// savingsLine summarizes the snapshot engine's work for one campaign:
// simulated-instruction savings versus from-reset execution and the
// convergence-prune rate.
func savingsLine(r *campaign.Result) string {
	save, prune, ok := r.SnapshotSavings()
	if !ok {
		return "snapshots: off (every fault ran from reset)"
	}
	return fmt.Sprintf("snapshots: simulated %.3gM of %.3gM from-reset instructions (%.1fx saved), pruned %d/%d runs (%.1f%%)",
		float64(r.SimulatedInstr)/1e6, float64(r.FromResetInstr)/1e6, save,
		r.PrunedRuns, r.Faults, 100*prune)
}

// propLine summarizes the propagation fold for one campaign: traced count,
// escape-class histogram in severity order, cross-core escape rate and the
// median latency from injection to first architectural corruption.
func propLine(r *campaign.Result) string {
	s := r.Prop
	var b strings.Builder
	fmt.Fprintf(&b, "prop: traced=%d", s.Traced)
	for c := prop.Class(0); c < prop.NumClasses; c++ {
		if n := s.EscapeCount(c); n > 0 {
			fmt.Fprintf(&b, " %s=%d", c, n)
		}
	}
	fmt.Fprintf(&b, " xcore=%.1f%%", 100*s.XCoreRate())
	if mi, ok := s.MedianInstr(); ok {
		mc, _ := s.MedianCyc()
		fmt.Fprintf(&b, " med-latency=%d instr / %d cyc", mi, mc)
	}
	return b.String()
}

// interruptContext returns a context cancelled by the first SIGINT; a
// second SIGINT kills the process the default way (the handler is
// uninstalled the moment the context fires, restoring the default
// disposition for the graceful-shutdown window).
func interruptContext() (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	go func() {
		<-ctx.Done()
		stop()
	}()
	return ctx, stop
}

func cmdScenarios(args []string) error {
	for _, sc := range npb.Scenarios() {
		fmt.Println(sc.ID())
	}
	return nil
}

func cmdGolden(args []string) error {
	fs := flag.NewFlagSet("golden", flag.ExitOnError)
	scid := fs.String("s", "armv8/IS/SER-1", "scenario id")
	slow := slowPathFlag(fs)
	fs.Parse(args)
	mach.ForceSlowPath = *slow
	sc, err := parseScenario(*scid)
	if err != nil {
		return err
	}
	img, cfg, err := npb.BuildScenario(sc)
	if err != nil {
		return err
	}
	g, err := fi.RunGoldenContext(context.Background(), img, cfg, 0)
	if err != nil {
		return err
	}
	fmt.Printf("scenario        %s\n", sc.ID())
	fmt.Printf("lifespan        [%d, %d] retired instructions\n", g.AppStart, g.AppEnd)
	fmt.Printf("total retired   %d\n", g.Retired)
	fmt.Printf("machine cycles  %d\n", g.Cycles)
	fmt.Printf("console:\n%s\n", g.Console)
	stats.Dump(os.Stdout, stats.Collect(g.Machine))
	return nil
}

func cmdInject(args []string) error {
	fs := flag.NewFlagSet("inject", flag.ExitOnError)
	scid := fs.String("s", "armv8/IS/SER-1", "scenario id")
	n := fs.Int("n", 50, "faults")
	seed := fs.Int64("seed", 1, "fault-list seed")
	model := fs.String("faultmodel", "reg", "fault domain: reg|mem|imem|burst|cachetag|cachedirty|cacherepl, uncore, or all")
	verbose := fs.Bool("v", false, "print each run")
	workers := fs.Int("workers", 0, "host worker pool size (0 = all cores)")
	jobSize := fs.Int("jobsize", 0, "faults per injection job (0 = default)")
	snapshots := fs.Int("snapshots", fi.DefaultCheckpoints, "pre-fault checkpoints (0 = run every fault from reset)")
	ckptspill := fs.Bool("ckptspill", false, "spill checkpoint RAM to an unlinked temp file, reloading pages lazily")
	traceProp := fs.Bool("trace-prop", false, "propagation-trace every unmasked run against a golden twin")
	slow := slowPathFlag(fs)
	prof := addProfFlags(fs)
	fs.Parse(args)
	mach.ForceSlowPath = *slow
	defer prof.start()()
	sc, err := parseScenario(*scid)
	if err != nil {
		return err
	}
	domains, err := fault.ParseModels(*model)
	if err != nil {
		return err
	}
	ctx, stop := interruptContext()
	defer stop()
	// One engine run: jobs sharing the scenario+seed form one scheduler
	// group, so the golden run and checkpoints are built once even with
	// -faultmodel all.
	jobs := make([]campaign.ScenarioJob, len(domains))
	for i, d := range domains {
		jobs[i] = campaign.ScenarioJob{Scenario: sc, Domain: d, Seed: *seed}
	}
	// The event stream carries the per-scenario checkpoint telemetry
	// (count, delta-chain bytes, spill bytes) that has no column in the
	// campaign record; fold it into one line per golden phase.
	events := make(chan campaign.Event, 64)
	var ckptLines []string
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		for ev := range events {
			switch ev := ev.(type) {
			case campaign.GoldenDone:
				ckptLines = append(ckptLines, fmt.Sprintf("%s %s", ev.Scenario.ID(), ev.CheckpointTag()))
			case campaign.MatrixDone:
				return
			}
		}
	}()
	opts := []campaign.Option{
		campaign.Faults(*n),
		campaign.Workers(*workers),
		campaign.JobSize(*jobSize),
		campaign.Snapshots(snapshotCount(*snapshots)),
		campaign.WithEvents(events),
		campaign.WithMetrics(obs.Default),
	}
	if *ckptspill {
		opts = append(opts, campaign.CheckpointSpill(os.TempDir()))
	}
	if *traceProp {
		opts = append(opts, campaign.TraceProp())
	}
	eng := campaign.New(opts...)
	results, err := eng.RunMatrix(ctx, jobs)
	<-consumed
	if err != nil {
		return err
	}
	for _, l := range ckptLines {
		fmt.Println(l)
	}
	// Verbose runs print domain-aware fault coordinates: register names,
	// region-annotated addresses, cache arrays. The naming environment comes
	// from the scenario image; formatting falls back to the bare tuple form
	// if the rebuild fails (the campaign itself already ran).
	var env fault.Env
	if *verbose {
		if img, cfg, err := npb.BuildScenario(sc); err == nil {
			env = fault.Env{Feat: cfg.ISA.Feat(), Regions: img.Regions}
		}
	}
	for _, r := range results {
		if *verbose {
			for i, run := range r.Runs {
				fmt.Printf("%-32s -> %s", run.Fault.Format(env), run.Outcome)
				if r.Traces != nil && r.Traces[i] != nil {
					fmt.Printf(" escape=%s", r.Traces[i].Escape)
				}
				fmt.Println()
			}
		}
		fmt.Printf("%s faults=%d %s masking=%.1f%%\n", r.Key(), r.Faults, r.Counts, 100*r.Counts.Masking())
		fmt.Printf("%s\n", savingsLine(r))
		if r.Prop != nil {
			fmt.Printf("%s\n", propLine(r))
		}
	}
	return nil
}

func cmdCampaign(args []string) error {
	fs := flag.NewFlagSet("campaign", flag.ExitOnError)
	n := fs.Int("n", 50, "faults per scenario")
	seed := fs.Int64("seed", 2018, "base seed")
	db := fs.String("db", "results.jsonl", "output database path")
	only := fs.String("only", "", "substring filter on scenario ids")
	model := fs.String("faultmodel", "reg", "fault domain: reg|mem|imem|burst|cachetag|cachedirty|cacherepl, uncore, or all")
	workers := fs.Int("workers", 0, "host worker pool size (0 = all cores)")
	jobSize := fs.Int("jobsize", 0, "faults per injection job (0 = default)")
	snapshots := fs.Int("snapshots", fi.DefaultCheckpoints, "pre-fault checkpoints per scenario (0 = run every fault from reset)")
	ckptspill := fs.Bool("ckptspill", false, "spill checkpoint RAM to an unlinked temp file, reloading pages lazily")
	recordRuns := fs.Bool("record-runs", false, "persist per-fault rows (v4 records) for `serfi sens` attribution")
	resume := fs.Bool("resume", false, "skip campaigns already recorded in -db and append the rest")
	slow := slowPathFlag(fs)
	prof := addProfFlags(fs)
	fs.Parse(args)
	mach.ForceSlowPath = *slow
	defer prof.start()()
	domains, err := fault.ParseModels(*model)
	if err != nil {
		return err
	}
	ctx, stop := interruptContext()
	defer stop()

	// The results database is a campaign.Store: a fresh run starts from an
	// empty file, a -resume run loads the recorded campaigns and the
	// engine skips them.
	if !*resume {
		if err := os.Remove(*db); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	st, err := campaign.OpenFileStore(*db)
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	defer st.Close()

	events := make(chan campaign.Event, 64)
	opts := []campaign.Option{
		campaign.Faults(*n),
		campaign.Workers(*workers),
		campaign.JobSize(*jobSize),
		campaign.Snapshots(snapshotCount(*snapshots)),
		campaign.Models(domains...),
		campaign.WithStore(st),
		campaign.WithEvents(events),
		campaign.WithMetrics(obs.Default),
	}
	if *ckptspill {
		opts = append(opts, campaign.CheckpointSpill(os.TempDir()))
	}
	if *recordRuns {
		opts = append(opts, campaign.RecordRuns())
	}
	eng := campaign.New(opts...)

	// The full scenario list fixes per-scenario seeds (seed + index,
	// shared across domains; Engine.JobsFor), so a filtered or resumed
	// campaign reproduces the full matrix's results.
	var scs []npb.Scenario
	for _, sc := range npb.Scenarios() {
		if *only == "" || strings.Contains(sc.ID(), *only) {
			scs = append(scs, sc)
		}
	}
	jobs := eng.JobsFor(scs, *seed)

	if err := campaign.ValidateResume(st, jobs, *n); err != nil {
		return fmt.Errorf("resume %s: %w", *db, err)
	}

	col := campaign.NewCollector(os.Stdout, len(jobs))
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		col.Consume(events)
	}()
	_, err = eng.RunMatrix(ctx, jobs)
	<-consumed
	if errors.Is(err, context.Canceled) {
		// Graceful shutdown: every completed campaign already streamed to
		// the store; close it and hand the user the resume command.
		if cerr := st.Close(); cerr != nil {
			return cerr
		}
		fmt.Printf("interrupted: %d of %d campaigns recorded in %s (%d finished this run)\n",
			len(st.Keys()), len(jobs), *db, col.Completed())
		fmt.Printf("resume with: serfi campaign -resume -db %s -n %d -seed %d%s%s%s\n",
			*db, *n, *seed, flagIf("-only", *only), flagIf("-faultmodel", *model), boolFlagIf("-record-runs", *recordRuns))
		return nil
	}
	if err != nil {
		return err
	}
	if *resume {
		fmt.Printf("resumed: %d campaigns already in %s, %d added\n", col.Skipped(), *db, col.Completed())
	} else {
		fmt.Printf("wrote %d campaign records to %s\n", col.Completed(), *db)
	}
	return st.Close()
}

// flagIf renders an optional flag for the printed resume command.
func flagIf(flag, val string) string {
	if val == "" {
		return ""
	}
	return fmt.Sprintf(" %s %s", flag, val)
}

// boolFlagIf renders an optional boolean flag for the printed resume command.
func boolFlagIf(flag string, on bool) string {
	if !on {
		return ""
	}
	return " " + flag
}

// cmdServe runs the distributed campaign coordinator in one of two modes.
//
// With -db (the default) it is the classic one-shot coordinator: the same
// matrix `serfi campaign` executes locally, sharded into leases and served
// to `serfi worker -join` processes, exiting when the matrix completes.
// The JSONL store is opened with fsync so a coordinator host crash never
// loses an acknowledged campaign.
//
// With -data DIR it is the persistent multi-tenant campaign queue: an
// empty service over a segmented store (DIR/store) and a submission
// journal (DIR/queue.jsonl), fed by `serfi submit` and drained by the same
// worker fleet, restoring its queue from the journal on restart. It serves
// until SIGINT/SIGTERM.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8340", "listen address for workers and the status page")
	n := fs.Int("n", 50, "faults per scenario")
	seed := fs.Int64("seed", 2018, "base seed")
	db := fs.String("db", "results.jsonl", "output database path (one-shot mode)")
	data := fs.String("data", "", "queue mode: serve a persistent multi-tenant campaign queue from this directory")
	only := fs.String("only", "", "substring filter on scenario ids")
	model := fs.String("faultmodel", "reg", "fault domain: reg|mem|imem|burst|cachetag|cachedirty|cacherepl, uncore, or all")
	shardSize := fs.Int("shardsize", dist.DefaultShardSize, "faults per lease shard")
	leaseTTL := fs.Duration("lease", dist.DefaultLeaseTTL, "lease TTL before a shard is re-issued")
	compact := fs.Int("compact", 8, "queue mode: background-compact a tenant at this many store segments")
	recordRuns := fs.Bool("record-runs", false, "persist per-fault rows (v4 records) for `serfi sens` attribution")
	resume := fs.Bool("resume", false, "skip campaigns already recorded in -db and serve the rest")
	fs.Parse(args)
	if *data != "" {
		return serveQueue(*addr, *data, *shardSize, *leaseTTL, *compact)
	}
	jobs, err := submitJobs(*only, *model, *seed)
	if err != nil {
		return err
	}
	ctx, stop := interruptContext()
	defer stop()

	if !*resume {
		if err := os.Remove(*db); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	st, err := campaign.OpenFileStore(*db, campaign.Fsync())
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	defer st.Close()

	if err := campaign.ValidateResume(st, jobs, *n); err != nil {
		return fmt.Errorf("resume %s: %w", *db, err)
	}

	events := make(chan campaign.Event, 64)
	coordOpts := []dist.CoordOption{
		dist.ShardSize(*shardSize),
		dist.LeaseTTL(*leaseTTL),
		dist.WithStore(st),
		dist.WithEvents(events),
	}
	if *recordRuns {
		coordOpts = append(coordOpts, dist.RecordRuns())
	}
	coord, err := dist.NewCoordinator(jobs, *n, coordOpts...)
	if err != nil {
		return err
	}
	status := coord.Status()
	fmt.Printf("serving %d campaigns (%d shards of <=%d faults, %d already recorded) at %s\n",
		status.Campaigns-status.Skipped, status.Shards, *shardSize, status.Skipped, *addr)
	fmt.Printf("join workers with: serfi worker -join <host>%s\n", portSuffix(*addr))

	col := campaign.NewCollector(os.Stdout, len(jobs))
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		col.Consume(events)
	}()
	_, err = coord.Serve(ctx, *addr)
	<-consumed
	if errors.Is(err, context.Canceled) {
		// Make the store durable before advertising it as resumable: fsync
		// whatever the final shards appended, then close, then print the
		// hint — a crash after the hint can no longer lose acknowledged
		// campaigns.
		if serr := st.Sync(); serr != nil {
			return serr
		}
		if cerr := st.Close(); cerr != nil {
			return cerr
		}
		fmt.Printf("interrupted: %d of %d campaigns recorded in %s\n", len(st.Keys()), len(jobs), *db)
		fmt.Printf("resume with: serfi serve -resume -addr %s -db %s -n %d -seed %d%s%s%s\n",
			*addr, *db, *n, *seed, flagIf("-only", *only), flagIf("-faultmodel", *model), boolFlagIf("-record-runs", *recordRuns))
		return nil
	}
	if err != nil {
		return err
	}
	fmt.Printf("matrix complete: %d campaigns in %s (%d served fresh, %d resumed)\n",
		len(st.Keys()), *db, col.Completed(), col.Skipped())
	return st.Close()
}

// portSuffix extracts the ":port" part of a listen address for the printed
// join hint ("" when addr carries none).
func portSuffix(addr string) string {
	if i := strings.LastIndexByte(addr, ':'); i >= 0 {
		return addr[i:]
	}
	return ""
}

// serveQueue is `serfi serve -data DIR`: the persistent multi-tenant
// campaign queue. Results live in a segmented tenant-scoped store under
// DIR/store, the submission queue in DIR/queue.jsonl; both survive a
// restart, so the daemon resumes exactly where it stopped (completed
// campaigns answered from the store, unfinished submissions re-sharded).
func serveQueue(addr, dataDir string, shardSize int, leaseTTL time.Duration, compact int) error {
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return err
	}
	st, err := campaign.OpenSegmentedStore(filepath.Join(dataDir, "store"),
		campaign.SegmentSync(), campaign.CompactAfter(compact))
	if err != nil {
		return err
	}
	journalPath := filepath.Join(dataDir, "queue.jsonl")
	coord, journal, err := dist.RestoreQueue(journalPath,
		dist.ShardSize(shardSize), dist.LeaseTTL(leaseTTL), dist.WithStore(st))
	if err != nil {
		st.Close()
		return err
	}
	restored := coord.MatrixList()
	running := 0
	for _, ms := range restored {
		if ms.State == "running" {
			running++
		}
	}
	fmt.Printf("campaign queue at %s (data %s): %d submissions restored, %d still running\n",
		addr, dataDir, len(restored), running)
	fmt.Printf("submit matrices with: serfi submit -join <host>%s [-tenant NAME] ...\n", portSuffix(addr))
	fmt.Printf("join workers with:    serfi worker -join <host>%s\n", portSuffix(addr))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := &http.Server{Addr: addr, Handler: coord.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()
	select {
	case err := <-serveErr:
		journal.Close()
		st.Close()
		return err
	case <-ctx.Done():
	}
	stop() // second signal kills the process the default way

	// Graceful shutdown, durability first: stop accepting wire traffic,
	// seal the journal, fsync and close the store — only then advertise the
	// directory as resumable.
	shctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shctx); err != nil {
		srv.Close()
	}
	if err := journal.Close(); err != nil {
		return err
	}
	if err := st.Sync(); err != nil {
		return err
	}
	if err := st.Close(); err != nil {
		return err
	}
	fmt.Printf("queue stopped; resume with: serfi serve -data %s -addr %s\n", dataDir, addr)
	return nil
}

// submitJobs builds the scenario matrix shared by `serfi submit` and the
// one-shot serve path: the full scenario list fixes per-scenario seeds, so
// a filtered submission reproduces the full matrix's rows.
func submitJobs(only, model string, seed int64) ([]campaign.ScenarioJob, error) {
	domains, err := fault.ParseModels(model)
	if err != nil {
		return nil, err
	}
	var scs []npb.Scenario
	for _, sc := range npb.Scenarios() {
		if only == "" || strings.Contains(sc.ID(), only) {
			scs = append(scs, sc)
		}
	}
	return campaign.New(campaign.Models(domains...)).JobsFor(scs, seed), nil
}

// cmdSubmit enqueues one campaign matrix on a queue coordinator (`serfi
// serve -data`) and optionally watches it to completion.
func cmdSubmit(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	join := fs.String("join", "", "queue coordinator address (host:port), required")
	tenant := fs.String("tenant", "", "tenant namespace for the matrix's rows (default: the shared namespace)")
	id := fs.String("id", "", "submission ID for idempotent resubmission (default: coordinator-assigned)")
	n := fs.Int("n", 50, "faults per scenario")
	seed := fs.Int64("seed", 2018, "base seed")
	only := fs.String("only", "", "substring filter on scenario ids")
	model := fs.String("faultmodel", "reg", "fault domain: reg|mem|imem|burst|cachetag|cachedirty|cacherepl, uncore, or all")
	traceProp := fs.Bool("trace-prop", false, "propagation-trace every unmasked injection")
	recordRuns := fs.Bool("record-runs", false, "persist per-fault rows (v4 records)")
	watch := fs.Bool("watch", false, "poll the queue until this submission is terminal")
	fs.Parse(args)
	if *join == "" {
		return fmt.Errorf("submit: -join <host:port> is required")
	}
	jobs, err := submitJobs(*only, *model, *seed)
	if err != nil {
		return err
	}
	ctx, stop := interruptContext()
	defer stop()
	cl := dist.NewClient(*join)
	reply, err := cl.Submit(ctx, dist.SubmitRequest{
		ID:         *id,
		Tenant:     *tenant,
		Jobs:       dist.WireJobs(jobs),
		Faults:     *n,
		TraceProp:  *traceProp,
		RecordRuns: *recordRuns,
	})
	if err != nil {
		return err
	}
	fmt.Printf("submitted %s: %d campaigns (%d already recorded), %d shards\n",
		reply.ID, reply.Campaigns, reply.Skipped, reply.Shards)
	if !*watch {
		fmt.Printf("watch with: serfi ls -join %s\n", *join)
		return nil
	}
	ms, err := watchSubmission(ctx, cl, reply.ID)
	if err != nil {
		return err
	}
	if ms.State != "done" {
		return fmt.Errorf("submission %s finished %s", ms.ID, ms.State)
	}
	return nil
}

// watchSubmission polls the queue until the submission goes terminal,
// printing progress lines.
func watchSubmission(ctx context.Context, cl *dist.Client, id string) (dist.MatrixStatus, error) {
	last := ""
	for {
		mr, err := cl.Matrices(ctx)
		if err != nil {
			return dist.MatrixStatus{}, err
		}
		var ms *dist.MatrixStatus
		for i := range mr.Matrices {
			if mr.Matrices[i].ID == id {
				ms = &mr.Matrices[i]
				break
			}
		}
		if ms == nil {
			return dist.MatrixStatus{}, fmt.Errorf("submission %s vanished from the queue", id)
		}
		line := fmt.Sprintf("%s %s: campaigns %d/%d, injections %d/%d",
			ms.ID, ms.State, ms.CampaignsDone, ms.Campaigns, ms.Injected, ms.Injections)
		if line != last {
			fmt.Println(line)
			last = line
		}
		if ms.State != "running" {
			return *ms, nil
		}
		select {
		case <-ctx.Done():
			return *ms, ctx.Err()
		case <-time.After(2 * time.Second):
		}
	}
}

// cmdLs lists a queue coordinator's submissions.
func cmdLs(args []string) error {
	fs := flag.NewFlagSet("ls", flag.ExitOnError)
	join := fs.String("join", "", "queue coordinator address (host:port), required")
	fs.Parse(args)
	if *join == "" {
		return fmt.Errorf("ls: -join <host:port> is required")
	}
	ctx, stop := interruptContext()
	defer stop()
	mr, err := dist.NewClient(*join).Matrices(ctx)
	if err != nil {
		return err
	}
	if len(mr.Matrices) == 0 {
		fmt.Println("queue is empty")
		return nil
	}
	fmt.Printf("%-10s %-12s %-10s %10s %14s %9s\n", "matrix", "tenant", "state", "campaigns", "injections", "elapsed")
	for _, ms := range mr.Matrices {
		tenant := ms.Tenant
		if tenant == "" {
			tenant = "default"
		}
		fmt.Printf("%-10s %-12s %-10s %6d/%-3d %7d/%-6d %8.0fs\n",
			ms.ID, tenant, ms.State, ms.CampaignsDone, ms.Campaigns, ms.Injected, ms.Injections, ms.ElapsedSec)
	}
	return nil
}

// cmdCancel withdraws one submission from a queue coordinator.
func cmdCancel(args []string) error {
	fs := flag.NewFlagSet("cancel", flag.ExitOnError)
	join := fs.String("join", "", "queue coordinator address (host:port), required")
	id := fs.String("id", "", "submission ID to cancel, required")
	fs.Parse(args)
	if *join == "" || *id == "" {
		return fmt.Errorf("cancel: -join <host:port> and -id <matrix> are required")
	}
	ctx, stop := interruptContext()
	defer stop()
	reply, err := dist.NewClient(*join).CancelMatrix(ctx, *id)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %s\n", *id, reply.State)
	return nil
}

// cmdWorker joins a coordinator and executes shards until the matrix is
// done (the worker exits 0) or the process is interrupted.
func cmdWorker(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	join := fs.String("join", "", "coordinator address (host:port), required")
	workers := fs.Int("workers", 0, "concurrent shard executions (0 = all cores)")
	snapshots := fs.Int("snapshots", fi.DefaultCheckpoints, "pre-fault checkpoints per scenario (0 = run every fault from reset)")
	ckptspill := fs.Bool("ckptspill", false, "spill checkpoint RAM to an unlinked temp file, reloading pages lazily")
	name := fs.String("name", "", "worker name on the coordinator status page (default host-pid)")
	slow := slowPathFlag(fs)
	prof := addProfFlags(fs)
	fs.Parse(args)
	mach.ForceSlowPath = *slow
	defer prof.start()()
	if *join == "" {
		return fmt.Errorf("worker: -join <host:port> is required")
	}
	parallel := *workers
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	ctx, stop := interruptContext()
	defer stop()
	opts := []dist.WorkerOption{
		dist.Parallel(parallel),
		dist.Snapshots(snapshotCount(*snapshots)),
	}
	if *ckptspill {
		opts = append(opts, dist.CheckpointSpill(os.TempDir()))
	}
	if *name != "" {
		opts = append(opts, dist.Name(*name))
	}
	w := dist.NewWorker(dist.NewClient(*join), opts...)
	fmt.Printf("worker joined %s (%d slots)\n", *join, parallel)
	// SIGTERM is the fleet's graceful-drain signal: finish the shards
	// already leased, stop leasing, exit 0 — no shard is abandoned to a
	// lease expiry. SIGINT stays the hard path (cancel in-flight work).
	drain := make(chan os.Signal, 1)
	signal.Notify(drain, syscall.SIGTERM)
	defer signal.Stop(drain)
	go func() {
		select {
		case <-drain:
			fmt.Println("draining: finishing leased shards, taking no new leases")
			w.Drain()
		case <-ctx.Done():
		}
	}()
	if err := w.Run(ctx); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Println("interrupted: in-flight leases will expire and be re-issued")
			return nil
		}
		return err
	}
	fmt.Println("worker exiting: matrix complete or drained")
	return nil
}

// cmdStats dumps the gem5-style counter file for a golden run of one
// scenario — the machine-readable slice of `serfi golden`.
func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	scid := fs.String("s", "armv8/IS/SER-1", "scenario id")
	out := fs.String("o", "", "write the dump here (default stdout)")
	slow := slowPathFlag(fs)
	fs.Parse(args)
	mach.ForceSlowPath = *slow
	sc, err := parseScenario(*scid)
	if err != nil {
		return err
	}
	img, cfg, err := npb.BuildScenario(sc)
	if err != nil {
		return err
	}
	g, err := fi.RunGoldenContext(context.Background(), img, cfg, 0)
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	stats.Dump(w, stats.Collect(g.Machine))
	return nil
}

func cmdProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	scid := fs.String("s", "armv8/IS/SER-1", "scenario id")
	top := fs.Int("top", 20, "functions to print")
	fs.Parse(args)
	sc, err := parseScenario(*scid)
	if err != nil {
		return err
	}
	img, cfg, err := npb.BuildScenario(sc)
	if err != nil {
		return err
	}
	cfg.Profile = true
	cfg.SamplePeriod = campaign.DefaultSamplePeriod
	g, err := fi.RunGoldenContext(context.Background(), img, cfg, 0)
	if err != nil {
		return err
	}
	p := profile.Build(img, g.Machine)
	fmt.Printf("%-28s %12s %12s %8s\n", "function", "samples", "calls", "time%")
	for i, fn := range p.Funcs {
		if i >= *top {
			break
		}
		share := 0.0
		if p.TotalSamples > 0 {
			share = 100 * float64(fn.Samples) / float64(p.TotalSamples)
		}
		fmt.Printf("%-28s %12d %12d %7.2f%%\n", fn.Name, fn.Samples, fn.Calls, share)
	}
	fmt.Printf("parallelization-API window: %.2f%%\n", 100*p.SampleShare(profile.RuntimePrefixes...))
	return nil
}

func cmdDisasm(args []string) error {
	fs := flag.NewFlagSet("disasm", flag.ExitOnError)
	scid := fs.String("s", "armv8/IS/SER-1", "scenario id")
	fn := fs.String("f", "main", "function symbol")
	fs.Parse(args)
	sc, err := parseScenario(*scid)
	if err != nil {
		return err
	}
	img, cfg, err := npb.BuildScenario(sc)
	if err != nil {
		return err
	}
	sym, ok := img.Symbols[*fn]
	if !ok {
		return fmt.Errorf("no symbol %q", *fn)
	}
	// Install into a scratch machine to read the encoded words back.
	m := mustMachine(cfg, img)
	for pc := sym.Addr; pc < sym.Addr+sym.Size; pc += 4 {
		w := m.Mem.ReadU32(pc)
		ins := cfg.ISA.Decode(w)
		fmt.Printf("%08x: %08x  %s\n", pc, w, isa.Disasm(cfg.ISA.Feat(), ins))
	}
	return nil
}

// mustMachine builds and installs a machine for inspection commands.
func mustMachine(cfg mach.Config, img *cc.Image) *mach.Machine {
	m := mach.New(cfg)
	img.InstallTo(m)
	return m
}
