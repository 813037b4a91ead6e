package campaign_test

import (
	"bytes"
	"testing"

	"serfi/internal/campaign"
	"serfi/internal/fault"
	"serfi/internal/fi"
	"serfi/internal/npb"
)

// runCompat executes one single-scenario campaign through an Engine built
// with the given extra options and returns its Result plus the exact JSONL
// bytes WriteDB would persist for it.
func runCompat(t *testing.T, sc npb.Scenario, seed int64, faults int, opts ...campaign.Option) (*campaign.Result, []byte) {
	t.Helper()
	r := runOne(t, campaign.ScenarioJob{Scenario: sc, Domain: fault.Reg, Seed: seed},
		append([]campaign.Option{campaign.Faults(faults)}, opts...)...)
	var buf bytes.Buffer
	if err := campaign.WriteDB(&buf, []*campaign.Result{r}); err != nil {
		t.Fatal(err)
	}
	return r, buf.Bytes()
}

// TestCOWCheckpointsGoldenCompat is the PR's headline equivalence claim:
// campaigns at the PR 1/PR 2 pinned seeds run over copy-on-write delta
// checkpoints — in RAM and spilled to disk — produce byte-identical JSONL
// rows and identical prune/savings telemetry to the retained full-copy
// reference engine, and both still match the outcome distributions pinned
// before the fault-domain subsystem existed.
func TestCOWCheckpointsGoldenCompat(t *testing.T) {
	cases := []struct {
		name   string
		sc     npb.Scenario
		seed   int64
		faults int
		want   fi.Counts
	}{
		{"v8_seed99", npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}, 99, 16, fi.Counts{7, 7, 0, 2, 0}},
		{"v7_seed2018", npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv7", Cores: 1}, 2018, 12, fi.Counts{9, 0, 1, 2, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cow, cowDB := runCompat(t, tc.sc, tc.seed, tc.faults)
			full, fullDB := runCompat(t, tc.sc, tc.seed, tc.faults, campaign.FullCopySnapshots())
			spill, spillDB := runCompat(t, tc.sc, tc.seed, tc.faults, campaign.CheckpointSpill(t.TempDir()))

			if cow.Counts != tc.want {
				t.Errorf("COW counts %v drifted from pinned golden %v", cow.Counts, tc.want)
			}
			if !bytes.Equal(cowDB, fullDB) {
				t.Errorf("COW JSONL differs from full-copy JSONL:\ncow:  %s\nfull: %s", cowDB, fullDB)
			}
			if !bytes.Equal(cowDB, spillDB) {
				t.Errorf("spilled JSONL differs from in-RAM JSONL:\ncow:   %s\nspill: %s", cowDB, spillDB)
			}
			// PruneStats equivalence, surfaced through the Result fields the
			// checkpoint telemetry feeds: identical runs must prune the same
			// runs and simulate the same instruction counts.
			for _, alt := range []*campaign.Result{full, spill} {
				if alt.PrunedRuns != cow.PrunedRuns ||
					alt.SimulatedInstr != cow.SimulatedInstr ||
					alt.FromResetInstr != cow.FromResetInstr {
					t.Errorf("telemetry diverged: cow {pruned %d sim %d reset %d} vs alt {pruned %d sim %d reset %d}",
						cow.PrunedRuns, cow.SimulatedInstr, cow.FromResetInstr,
						alt.PrunedRuns, alt.SimulatedInstr, alt.FromResetInstr)
				}
			}
			if cow.PrunedRuns == 0 {
				t.Error("no convergence pruning happened; the equivalence case lost its teeth")
			}
		})
	}
}
