package campaign_test

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"serfi/internal/campaign"
	"serfi/internal/fault"
	"serfi/internal/fi"
	"serfi/internal/npb"
)

// TestTracePropCampaign pins the engine-level propagation-tracing contract:
// tracing is a pure observer (outcome counts and per-run records identical
// with tracing on or off), traces align one-to-one with unmasked runs, and
// the summary folds exactly the traced set.
func TestTracePropCampaign(t *testing.T) {
	sc := npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}
	jobs := []campaign.ScenarioJob{{Scenario: sc, Domain: fault.Reg, Seed: 99}}

	plain, err := campaign.New(campaign.Faults(16)).RunMatrix(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := campaign.New(campaign.Faults(16), campaign.TraceProp()).RunMatrix(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	p, r := plain[0], traced[0]
	if r.Counts != p.Counts {
		t.Fatalf("tracing perturbed the campaign: counts %v != %v", r.Counts, p.Counts)
	}
	for i := range p.Runs {
		if r.Runs[i] != p.Runs[i] {
			t.Fatalf("tracing perturbed run %d: %+v != %+v", i, r.Runs[i], p.Runs[i])
		}
	}
	if p.Prop != nil || p.Traces != nil {
		t.Error("untraced campaign carries propagation data")
	}

	unmasked := 0
	for i, run := range r.Runs {
		masked := run.Outcome == fi.Vanished || run.Outcome == fi.ONA
		if masked != (r.Traces[i] == nil) {
			t.Errorf("run %d (%v): trace presence mismatches masking", i, run.Outcome)
		}
		if !masked {
			unmasked++
		}
	}
	if unmasked == 0 {
		t.Fatal("pinned seed produced no unmasked runs — tracer untested")
	}
	if r.Prop == nil || r.Prop.Traced != unmasked {
		t.Fatalf("Prop = %+v, want Traced = %d", r.Prop, unmasked)
	}

	// DB round trip: traced rows are v3 and preserve the summary; untraced
	// rows stay on the v2 record format byte-for-byte.
	var tracedDB, plainDB bytes.Buffer
	if err := campaign.WriteDB(&tracedDB, traced); err != nil {
		t.Fatal(err)
	}
	if err := campaign.WriteDB(&plainDB, plain); err != nil {
		t.Fatal(err)
	}
	if s := tracedDB.String(); !strings.Contains(s, `"v":3`) || !strings.Contains(s, `"prop"`) {
		t.Errorf("traced row not on v3 prop format: %s", s)
	}
	if s := plainDB.String(); strings.Contains(s, `"v":3`) || strings.Contains(s, `"prop"`) {
		t.Errorf("untraced row leaked onto v3 format: %s", s)
	}
	back, err := campaign.ReadDB(&tracedDB)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := back[r.Key()]
	if !ok {
		t.Fatalf("reloaded db missing key %q", r.Key())
	}
	if !reflect.DeepEqual(got.Prop, r.Prop) {
		t.Errorf("Prop summary did not round-trip: %+v != %+v", got.Prop, r.Prop)
	}
}

// TestCacheCampaignDeterministic extends the worker/snapshot determinism
// property to the uncore domains: a cachetag campaign yields identical
// per-fault results at any worker count with snapshots on or off, which
// requires HierState snapshot/restore to round-trip injected flips exactly.
func TestCacheCampaignDeterministic(t *testing.T) {
	sc := npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}
	run := func(workers, snapshots int) *campaign.Result {
		return runOne(t, campaign.ScenarioJob{Scenario: sc, Domain: fault.CacheTag, Seed: 31},
			campaign.Faults(6), campaign.Workers(workers), campaign.JobSize(2), campaign.Snapshots(snapshots))
	}
	ref := run(1, -1) // serial, from reset
	if ref.Counts.Total() != 6 {
		t.Fatalf("classified %d of 6", ref.Counts.Total())
	}
	for _, alt := range [][2]int{{3, -1}, {1, 5}, {3, 5}} {
		got := run(alt[0], alt[1])
		if got.Counts != ref.Counts {
			t.Errorf("workers=%d snapshots=%d: counts %v != %v", alt[0], alt[1], got.Counts, ref.Counts)
		}
		for i := range ref.Runs {
			if got.Runs[i] != ref.Runs[i] {
				t.Errorf("workers=%d snapshots=%d: run %d %+v != %+v",
					alt[0], alt[1], i, got.Runs[i], ref.Runs[i])
			}
		}
	}
	if ref.Key() != "armv8/IS/SER-1#cachetag" || ref.Domain != fault.CacheTag {
		t.Errorf("cachetag campaign key = %q domain = %v", ref.Key(), ref.Domain)
	}
}
