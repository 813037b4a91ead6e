package campaign_test

import (
	"bytes"
	"context"
	"os"
	"reflect"
	"strings"
	"testing"

	"serfi/internal/campaign"
	"serfi/internal/npb"
)

func matrixJobs() []campaign.ScenarioJob {
	return []campaign.ScenarioJob{
		{Scenario: npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}, Seed: 41},
		{Scenario: npb.Scenario{App: "EP", Mode: npb.OMP, ISA: "armv8", Cores: 2}, Seed: 42},
	}
}

// TestMatrixDeterministicAcrossModes is the PR's acceptance property: the
// scheduler yields identical per-fault results whatever the worker count,
// job size or snapshot mode.
func TestMatrixDeterministicAcrossModes(t *testing.T) {
	run := func(workers, jobSize, snapshots int) []*campaign.Result {
		res, err := campaign.New(
			campaign.Faults(10),
			campaign.Workers(workers),
			campaign.JobSize(jobSize),
			campaign.Snapshots(snapshots),
		).RunMatrix(context.Background(), matrixJobs())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(1, 1, -1) // serial, from reset
	for _, alt := range [][3]int{
		{4, 3, -1}, // parallel, from reset
		{1, 1, 5},  // serial, snapshots
		{4, 3, 5},  // parallel, snapshots
	} {
		got := run(alt[0], alt[1], alt[2])
		for i := range ref {
			if ref[i].Counts != got[i].Counts {
				t.Errorf("workers=%d jobsize=%d snapshots=%d: %s counts %v != %v",
					alt[0], alt[1], alt[2], ref[i].Scenario.ID(), got[i].Counts, ref[i].Counts)
			}
			if !reflect.DeepEqual(ref[i].Runs, got[i].Runs) {
				t.Errorf("workers=%d jobsize=%d snapshots=%d: %s per-run records differ",
					alt[0], alt[1], alt[2], ref[i].Scenario.ID())
			}
		}
	}
}

// TestMatrixStreamsAndResumes runs a matrix streaming to a database file,
// reloads it, and checks a resumed matrix skips everything it already has.
func TestMatrixStreamsAndResumes(t *testing.T) {
	jobs := matrixJobs()
	path := t.TempDir() + "/db.jsonl"
	st, err := campaign.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	first, err := campaign.New(campaign.Faults(6), campaign.WithStore(st)).RunMatrix(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	db, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(db), "\n"); got != len(jobs) {
		t.Fatalf("streamed %d records, want %d", got, len(jobs))
	}

	loaded, err := campaign.ReadDB(bytes.NewReader(db))
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(jobs) {
		t.Fatalf("reloaded %d records, want %d", len(loaded), len(jobs))
	}
	for _, r := range first {
		l := loaded[r.Scenario.ID()]
		if l == nil {
			t.Fatalf("record %s missing after reload", r.Scenario.ID())
		}
		if l.Counts != r.Counts || l.Golden != r.Golden || l.APICalls != r.APICalls || l.Seed != r.Seed {
			t.Errorf("%s did not round-trip: %+v vs %+v", r.Scenario.ID(), l, r)
		}
	}

	// Resume: everything already in the database, nothing new streams.
	st2, err := campaign.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	events := make(chan campaign.Event, 16)
	resumed, err := campaign.New(campaign.Faults(6), campaign.WithStore(st2), campaign.WithEvents(events)).
		RunMatrix(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	close(events)
	for ev := range events {
		if _, ok := ev.(campaign.ScenarioDone); ok {
			t.Error("ScenarioDone fired for a skipped scenario")
		}
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, db) {
		t.Errorf("resume re-streamed records: %q", after)
	}
	for i, r := range resumed {
		if r == nil || r.Counts != first[i].Counts {
			t.Errorf("resumed result %d mismatch", i)
		}
	}
}

// TestMatrixReportsScenarioError checks a broken scenario fails the matrix
// without wedging the scheduler, and healthy scenarios still finish.
func TestMatrixReportsScenarioError(t *testing.T) {
	jobs := []campaign.ScenarioJob{
		{Scenario: npb.Scenario{App: "NOPE", Mode: npb.Serial, ISA: "armv8", Cores: 1}, Seed: 1},
		{Scenario: npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}, Seed: 2},
	}
	res, err := campaign.New(campaign.Faults(2)).RunMatrix(context.Background(), jobs)
	if err == nil || !strings.Contains(err.Error(), "NOPE") {
		t.Fatalf("err = %v, want unknown-app failure", err)
	}
	if res[1] == nil || res[1].Counts.Total() != 2 {
		t.Error("healthy scenario did not complete alongside the failure")
	}
}
