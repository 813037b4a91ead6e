// Package campaign drives fault-injection campaigns over NPB scenarios: the
// distributed/parallel phase-3 execution of the paper (§3.2.4), with faults
// batched into jobs that run on a host worker pool (standing in for the
// 5000-core HPC cluster), and phase-4 report assembly into a results
// database.
//
// The public orchestration API has three pillars. The Engine (engine.go)
// is a constructed, reusable orchestrator: New(opts...) fixes the tuning,
// RunMatrix(ctx, jobs) interleaves golden runs, checkpoint fast-forwards
// and injection jobs across scenarios on one shared worker pool, cancels
// promptly at job granularity and returns partial results plus ctx.Err().
// Progress is a typed event stream (events.go) consumed live by CLIs or
// folded into summaries by a Collector. Completed campaigns land in a
// Store (store.go) — a queryable results database whose pre-loaded keys
// double as the resume set; the JSONL file is the first backend. Both the
// Engine and the distributed worker (internal/dist) prepare scenarios and
// inject fault ranges through Prepare (prepare.go).
package campaign

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"serfi/internal/fault"
	"serfi/internal/fi"
	"serfi/internal/npb"
	"serfi/internal/profile"
	"serfi/internal/prop"
)

// Result is the scenario-level record: outcome distribution + golden
// profile features, i.e. one row of the paper's cross-layer database.
type Result struct {
	Scenario npb.Scenario
	Domain   fault.Model // fault model the runs were drawn from
	Faults   int
	Seed     int64 // fault-list seed the runs were drawn from
	Counts   fi.Counts
	Golden   GoldenSummary
	Features profile.Features
	APICalls uint64 // calls into the parallelization runtime
	Runs     []fi.Result
	// Traces are per-run propagation records when the campaign ran with
	// propagation tracing: Traces[i] belongs to Runs[i], nil for masked or
	// untraced runs. Nil entirely when tracing was off. Results reloaded
	// from a v2/v3 database carry neither Runs nor Traces (only the Prop
	// fold is stored); v4 rows (RecordRuns) reload Runs exactly and Traces
	// as minimal escape/latency records (Escape + ArchInstr, every other
	// latency axis -1).
	Traces []*prop.Trace
	// Prop is the campaign-level fold of Traces (escape-class histogram and
	// latency samples); nil when no run was traced.
	Prop *prop.Summary
	// RecordRuns marks a campaign whose per-fault rows persist in the
	// database (v4 records): the fault.Point tuple and outcome of every
	// run, plus escape class and divergence latency for traced runs. Off
	// by default — untouched campaigns keep writing v2/v3 rows byte for
	// byte.
	RecordRuns bool
	// Host wall-clock costs (the paper's Table 1 simulation-time axis).
	// Campaigns overlap on the shared worker pool, so GoldenWallSec and
	// CampaignWallSec measure start-to-finish spans, not exclusive
	// compute: summing CampaignWallSec across rows overcounts, sometimes
	// wildly — use ExclusiveCompute for anything additive. Domain
	// campaigns of one scenario share the fault-free phases — their
	// GoldenWallSec is the same measurement and their CampaignWallSec
	// spans open from the shared scenario start. JobWallSec sums the
	// per-job spans emitted as JobDone events: each injection job runs on
	// one worker, so these spans nest within worker occupancy and stay
	// additive across campaigns.
	GoldenWallSec   float64
	CampaignWallSec float64
	JobWallSec      float64
	// JobSpans are the per-job spans behind JobWallSec, tagged with the
	// fault-index range each job covered. ExclusiveCompute merges them by
	// range so that duplicated work — a re-issued distributed shard, a
	// job re-executed across a cancel/resume — is counted once. Sorted by
	// (Lo, Hi); empty on results reloaded from a database.
	JobSpans []JobSpan
	// Snapshot-engine observability: instructions actually simulated by the
	// injection runs versus their from-reset cost, and how many runs were
	// scored by convergence pruning (zero-valued when snapshots are off).
	SimulatedInstr uint64
	FromResetInstr uint64
	PrunedRuns     int
}

// Key is the database identity of one (scenario, fault domain) campaign.
// Register-domain keys are the bare scenario ID so that databases written
// before the domain axis existed keep matching their scenarios.
func Key(sc npb.Scenario, d fault.Model) string {
	if d == fault.Reg {
		return sc.ID()
	}
	return sc.ID() + "#" + d.String()
}

// ParseKey is the inverse of Key.
func ParseKey(key string) (npb.Scenario, fault.Model, error) {
	id, domain := key, fault.Reg
	if i := strings.IndexByte(key, '#'); i >= 0 {
		var err error
		if domain, err = fault.ParseModel(key[i+1:]); err != nil {
			return npb.Scenario{}, 0, err
		}
		id = key[:i]
	}
	sc, err := npb.ParseID(id)
	return sc, domain, err
}

// Key returns the result's database identity.
func (r *Result) Key() string { return Key(r.Scenario, r.Domain) }

// JobSpan is one injection job's host wall-clock span, tagged with the
// fault-index range [Lo, Hi) the job executed.
type JobSpan struct {
	Lo, Hi  int
	WallSec float64
}

// ExclusiveCompute returns the host compute attributable to this campaign
// alone: the golden-phase span plus the merged spans of its injection
// jobs. The merge is by fault-index interval: when two spans overlap —
// the same faults executed twice by a re-issued distributed shard or a
// cancelled-then-resumed matrix — only the first execution's share
// counts, and zero-length spans (the empty shard of a zero-fault
// campaign) count nothing, so summing ExclusiveCompute across campaigns
// approximates total pool busy time without double-counting duplicated
// work. Unlike CampaignWallSec — an open-to-close span over the shared
// worker pool — every counted span occupies one worker. Domain campaigns
// of one scenario share a single golden phase, so a cross-domain sum
// counts that phase once per domain. Results without span records fall
// back to the raw JobWallSec sum; results reloaded from a database store
// no wall-clock columns and report zero.
func (r *Result) ExclusiveCompute() float64 {
	if len(r.JobSpans) == 0 {
		return r.GoldenWallSec + r.JobWallSec
	}
	return r.GoldenWallSec + MergeJobSpans(r.JobSpans)
}

// SortJobSpans orders spans by fault-index range — the Result.JobSpans
// contract, shared by the engine and the distributed coordinator.
func SortJobSpans(spans []JobSpan) {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Lo != spans[j].Lo {
			return spans[i].Lo < spans[j].Lo
		}
		return spans[i].Hi < spans[j].Hi
	})
}

// CoverageCount returns how many distinct fault indices a span set covers
// (overlaps counted once) — the unit behind every "injections classified"
// surface. The input need not be sorted and is not modified.
func CoverageCount(spans []JobSpan) int {
	ss := append([]JobSpan(nil), spans...)
	SortJobSpans(ss)
	total, maxHi := 0, 0
	first := true
	for _, s := range ss {
		if s.Hi <= s.Lo {
			continue
		}
		if first || s.Lo > maxHi {
			total += s.Hi - s.Lo
		} else if s.Hi > maxHi {
			total += s.Hi - maxHi
		}
		if first || s.Hi > maxHi {
			maxHi = s.Hi
		}
		first = false
	}
	return total
}

// MergeJobSpans returns the total seconds of a span set with overlapping
// fault-index ranges counted once: each span contributes the fraction of
// its range not already covered by an earlier span. The input need not be
// sorted and is not modified.
func MergeJobSpans(spans []JobSpan) float64 {
	ss := append([]JobSpan(nil), spans...)
	SortJobSpans(ss)
	total := 0.0
	maxHi := 0
	for _, s := range ss {
		if s.Hi <= s.Lo {
			continue // zero-length span: no compute to attribute
		}
		// Sorted by Lo, so coverage at or above s.Lo is exactly [s.Lo, maxHi).
		uncovered := 0
		switch {
		case maxHi <= s.Lo:
			uncovered = s.Hi - s.Lo
		case maxHi < s.Hi:
			uncovered = s.Hi - maxHi
		}
		total += s.WallSec * float64(uncovered) / float64(s.Hi-s.Lo)
		if s.Hi > maxHi {
			maxHi = s.Hi
		}
	}
	return total
}

// SnapshotSavings returns the snapshot engine's amortization factor
// (from-reset instructions per simulated instruction) and the
// convergence-prune rate; ok is false when the campaign ran without
// snapshot acceleration (or was reloaded from a database, which stores no
// engine telemetry).
func (r *Result) SnapshotSavings() (save, pruneRate float64, ok bool) {
	if r.SimulatedInstr == 0 || r.FromResetInstr == 0 {
		return 0, 0, false
	}
	runs := r.Faults
	if runs < 1 {
		runs = 1
	}
	return float64(r.FromResetInstr) / float64(r.SimulatedInstr),
		float64(r.PrunedRuns) / float64(runs), true
}

// GoldenSummary carries the reference-run headline numbers.
type GoldenSummary struct {
	AppStart uint64
	AppEnd   uint64
	Retired  uint64
	Cycles   uint64
}

// recordVersion is the current database row format. Rows written before
// the fault-domain axis carry no "v" field and parse as the implicit
// version 1: a register-domain campaign. recordVersionProp marks rows that
// additionally carry a propagation-trace fold; campaigns without tracing
// keep writing v2 rows, so existing databases and byte-diff suites see no
// change unless -trace-prop is on.
const (
	recordVersion     = 2
	recordVersionProp = 3
	recordVersionRuns = 4
)

// Version returns the database row version this result would be written
// as: v4 when per-run records are kept (RecordRuns), v3 when a propagation
// fold is attached, v2 otherwise. Store predicates (Query.MinVersion)
// select on this.
func (r *Result) Version() int {
	switch {
	case r.RecordRuns:
		return recordVersionRuns
	case r.Prop != nil:
		return recordVersionProp
	default:
		return recordVersion
	}
}

// record is the JSON row stored in the database file.
type record struct {
	Version  int                `json:"v,omitempty"` // 0 = legacy register row
	Scenario string             `json:"scenario"`
	Domain   string             `json:"domain,omitempty"`
	Faults   int                `json:"faults"`
	Seed     int64              `json:"seed"`
	Counts   map[string]int     `json:"counts"`
	Golden   GoldenSummary      `json:"golden"`
	Features map[string]float64 `json:"features"`
	APICalls uint64             `json:"api_calls"`
	Prop     *prop.Summary      `json:"prop,omitempty"` // v3+ rows, traced campaigns only
	Runs     []runRow           `json:"runs,omitempty"` // v4 rows only
}

// runRow is one compact per-fault row of a v4 record: the fault.Point
// tuple, the outcome code, and the escape class + first-divergence latency
// when the run was traced. The point's Domain is omitted — it always
// equals the record's domain column (fault.Domain.Sample stamps it) — and
// the keys are single letters because a campaign writes one row per fault.
type runRow struct {
	I  uint64 `json:"i"`            // fault.Point.Index (retired instrs past AppStart)
	C  int    `json:"c,omitempty"`  // Core
	R  int    `json:"r,omitempty"`  // Reg (register index; cache way)
	A  uint32 `json:"a,omitempty"`  // Addr (byte address; cache set)
	B  int    `json:"b,omitempty"`  // Bit
	W  int    `json:"w,omitempty"`  // Width (burst length)
	L  int    `json:"l,omitempty"`  // Level (cache level)
	O  int    `json:"o"`            // fi.Outcome code
	E  string `json:"e,omitempty"`  // escape class name, traced runs only
	EI *int64 `json:"ei,omitempty"` // instrs to first arch divergence, traced runs only (-1 = never)
}

// recordOf flattens a scenario result into its database row.
func recordOf(r *Result) record {
	rec := record{
		Version:  r.Version(),
		Prop:     r.Prop,
		Scenario: r.Scenario.ID(),
		Domain:   r.Domain.String(),
		Faults:   r.Faults,
		Seed:     r.Seed,
		Counts: map[string]int{
			"vanished": r.Counts[fi.Vanished],
			"ona":      r.Counts[fi.ONA],
			"omm":      r.Counts[fi.OMM],
			"ut":       r.Counts[fi.UT],
			"hang":     r.Counts[fi.Hang],
		},
		Golden:   r.Golden,
		Features: r.Features.Map(),
		APICalls: r.APICalls,
	}
	if r.RecordRuns {
		rec.Runs = make([]runRow, len(r.Runs))
		for i, run := range r.Runs {
			p := run.Fault
			row := runRow{I: p.Index, C: p.Core, R: p.Reg, A: p.Addr,
				B: p.Bit, W: p.Width, L: p.Level, O: int(run.Outcome)}
			if i < len(r.Traces) && r.Traces[i] != nil {
				row.E = r.Traces[i].Escape.String()
				ei := r.Traces[i].ArchInstr
				row.EI = &ei
			}
			rec.Runs[i] = row
		}
	}
	return rec
}

// restoreRuns inflates a v4 record's compact rows back into fi.Result
// records, plus minimal prop.Trace records (escape class and
// arch-divergence latency; every unstored latency axis -1) for the rows
// that were traced. Only the persisted columns are recovered — host-side
// run telemetry (retired/cycles/exit) reads zero on reloaded runs. The
// point's Domain is the campaign's domain column (the register domain is
// the zero value, matching RegDomain.Sample).
func restoreRuns(res *Result, rows []runRow, domain fault.Model) error {
	res.RecordRuns = true
	res.Runs = make([]fi.Result, len(rows))
	for i, row := range rows {
		if row.O < 0 || row.O >= int(fi.NumOutcomes) {
			return fmt.Errorf("run %d: unknown outcome code %d", i, row.O)
		}
		res.Runs[i] = fi.Result{
			Fault: fault.Point{Domain: domain, Index: row.I, Core: row.C,
				Reg: row.R, Addr: row.A, Bit: row.B, Width: row.W, Level: row.L},
			Outcome: fi.Outcome(row.O),
		}
		if row.E == "" {
			continue
		}
		class, err := prop.ParseClass(row.E)
		if err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
		tr := &prop.Trace{Escape: class, ArchInstr: -1, ArchCyc: -1,
			TimingInstr: -1, MemInstr: -1, XCoreInstr: -1, KernelInstr: -1}
		if row.EI != nil {
			tr.ArchInstr = *row.EI
		}
		if res.Traces == nil {
			res.Traces = make([]*prop.Trace, len(rows))
		}
		res.Traces[i] = tr
	}
	return nil
}

// writeRecord appends one scenario's JSONL row (the streaming-write path of
// the matrix scheduler).
func writeRecord(w io.Writer, r *Result) error {
	rec := recordOf(r)
	return json.NewEncoder(w).Encode(&rec)
}

// WriteDB streams scenario records as JSON lines (the single database of
// workflow phase 4).
func WriteDB(w io.Writer, results []*Result) error {
	for _, r := range results {
		if err := writeRecord(w, r); err != nil {
			return err
		}
	}
	return nil
}

// maxRowBytes bounds one database row on read. v4 rows carry one compact
// run row per fault (about 130 bytes each), so the bound must sit far
// above the paper's 8000 faults per campaign.
const maxRowBytes = 64 << 20

// ReadDB parses a JSONL database back into per-campaign results, keyed by
// Key (scenario ID, domain-qualified for non-register domains). Legacy rows
// without a version field are accepted as register-domain campaigns;
// unknown record versions and duplicate keys are rejected with a clear
// error rather than silently last-write-wins. Counts, golden summary and
// features round-trip on every version. v2/v3 rows store no per-run
// records, so Runs is empty on their reloaded results; v4 rows (written
// under RecordRuns) reload Runs exactly — fault tuple and outcome per run
// — plus minimal Traces (escape class and arch-divergence latency) for
// runs that were traced, and re-writing such a result reproduces its row
// byte for byte.
func ReadDB(r io.Reader) (map[string]*Result, error) {
	out := make(map[string]*Result)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxRowBytes)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		res, err := decodeRecordLine(sc.Bytes())
		if err != nil {
			return nil, fmt.Errorf("campaign db line %d: %w", line, err)
		}
		key := res.Key()
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("campaign db line %d: duplicate record for %q", line, key)
		}
		out[key] = res
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// decodeRecordLine parses one JSONL database row into a Result — the
// single-row slice of ReadDB, shared with the segmented store's lazy row
// loads (which read individual rows by segment offset instead of scanning
// the whole database).
func decodeRecordLine(b []byte) (*Result, error) {
	var rec record
	if err := json.Unmarshal(b, &rec); err != nil {
		return nil, err
	}
	scen, err := npb.ParseID(rec.Scenario)
	if err != nil {
		return nil, err
	}
	var domain fault.Model
	switch rec.Version {
	case 0:
		// Legacy pre-domain row: implicitly a register campaign.
		if rec.Domain != "" {
			return nil, fmt.Errorf("unversioned row carries domain %q (corrupt or hand-edited)", rec.Domain)
		}
	case recordVersion, recordVersionProp, recordVersionRuns:
		if domain, err = fault.ParseModel(rec.Domain); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown record version %d (this build reads legacy rows, v%d, v%d and v%d)",
			rec.Version, recordVersion, recordVersionProp, recordVersionRuns)
	}
	res := &Result{
		Scenario: scen,
		Domain:   domain,
		Faults:   rec.Faults,
		Seed:     rec.Seed,
		Golden:   rec.Golden,
		Features: profile.FeaturesFromMap(rec.Features),
		APICalls: rec.APICalls,
		Prop:     rec.Prop,
	}
	if rec.Version == recordVersionRuns {
		if err := restoreRuns(res, rec.Runs, domain); err != nil {
			return nil, err
		}
	}
	res.Counts[fi.Vanished] = rec.Counts["vanished"]
	res.Counts[fi.ONA] = rec.Counts["ona"]
	res.Counts[fi.OMM] = rec.Counts["omm"]
	res.Counts[fi.UT] = rec.Counts["ut"]
	res.Counts[fi.Hang] = rec.Counts["hang"]
	return res, nil
}

// LoadDB reads a database file for -resume; a missing file is not an error
// and yields an empty map.
func LoadDB(path string) (map[string]*Result, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return map[string]*Result{}, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadDB(f)
}
