// Quickstart: run a small fault-injection campaign on the integer-sort
// benchmark through the campaign Engine — the smallest end-to-end tour of
// the orchestration API: a cancellable context, the typed event stream,
// and the classified outcome report.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"os/signal"

	"serfi/internal/campaign"
	"serfi/internal/fault"
	"serfi/internal/fi"
	"serfi/internal/npb"
)

func main() {
	sc := npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}

	// Ctrl-C cancels the engine: in-flight injection jobs stop at the next
	// run slice and RunMatrix returns the partial results plus ctx.Err().
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// The engine is constructed once and reusable; the event stream
	// publishes every phase transition as a typed value.
	events := make(chan campaign.Event, 16)
	eng := campaign.New(
		campaign.Faults(40),
		campaign.JobSize(8),
		campaign.WithEvents(events),
	)
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		for ev := range events {
			switch ev := ev.(type) {
			case campaign.GoldenDone:
				fmt.Printf("golden run done    [%d, %d] committed instructions, %d checkpoints (%.2fs host)\n",
					ev.Golden.AppStart, ev.Golden.AppEnd, ev.Checkpoints, ev.WallSec)
			case campaign.JobDone:
				fmt.Printf("injection job done %3d/%3d faults (%.3fs host)\n", ev.Done, ev.Total, ev.WallSec)
			case campaign.MatrixDone:
				return // always the last event of a run
			}
		}
	}()

	results, err := eng.RunMatrix(ctx, []campaign.ScenarioJob{{Scenario: sc, Seed: 7}})
	<-consumed
	if err != nil {
		log.Fatal(err) // context.Canceled here if Ctrl-C interrupted the run
	}
	res := results[0]

	fmt.Printf("\nscenario            %s\n", sc.ID())
	fmt.Printf("golden instructions %d\n", res.Golden.Retired)
	fmt.Printf("branch share        %.1f%%   memory share %.1f%%\n",
		res.Features.BranchPct, res.Features.MemInstrPct)
	fmt.Printf("exclusive compute   %.2fs host (golden + injection jobs)\n", res.ExclusiveCompute())
	fmt.Println()
	fmt.Printf("injected %d single-bit upsets into the register file:\n", res.Faults)
	for o := fi.Outcome(0); o < fi.NumOutcomes; o++ {
		fmt.Printf("  %-9s %3d  (%.1f%%)\n", o, res.Counts[o], 100*res.Counts.Rate(o))
	}
	fmt.Printf("masking rate: %.1f%%\n", 100*res.Counts.Masking())

	// Every run is replayable: prepare the scenario again the way the
	// engine does, redraw the fault list and re-inject the first fault.
	prep, err := campaign.Prepare(ctx, sc, fi.CheckpointOptions{}, nil, 0)
	if err != nil {
		log.Fatal(err)
	}
	defer prep.Close()
	d, faults, err := prep.Faults(fault.Reg, 7, res.Faults)
	if err != nil {
		log.Fatal(err)
	}
	again, err := prep.Inject(ctx, d, faults, 0, 1, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreplay %s -> %s (first campaign run said %s)\n",
		faults[0], again.Runs[0].Outcome, res.Runs[0].Outcome)
}
