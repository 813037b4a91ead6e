// Vulnerability window: §4.2.2's flat-profile argument. A profiled golden
// run of EP under the OpenMP-like runtime shows how little of the execution
// sits inside the parallelization API — which bounds how much the API can
// matter to the fault outcome distribution.
//
//	go run ./examples/vulnwindow
package main

import (
	"context"
	"fmt"
	"log"

	"serfi/internal/fi"
	"serfi/internal/npb"
	"serfi/internal/profile"
)

func main() {
	sc := npb.Scenario{App: "EP", Mode: npb.OMP, ISA: "armv8", Cores: 4}
	img, cfg, err := npb.BuildScenario(sc)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Profile = true
	cfg.SamplePeriod = 53
	g, err := fi.RunGoldenContext(context.Background(), img, cfg, 0)
	if err != nil {
		log.Fatal(err)
	}
	p := profile.Build(img, g.Machine)

	fmt.Printf("flat profile of %s (%d PC samples)\n\n", sc.ID(), p.TotalSamples)
	fmt.Printf("%-24s %10s %10s %8s\n", "function", "samples", "calls", "time%")
	for i, fn := range p.Funcs {
		if i >= 12 {
			break
		}
		fmt.Printf("%-24s %10d %10d %7.2f%%\n", fn.Name, fn.Samples, fn.Calls,
			100*float64(fn.Samples)/float64(p.TotalSamples))
	}
	fmt.Println()
	api := p.SampleShare(profile.RuntimePrefixes...)
	fmt.Printf("parallelization-API vulnerability window: %.2f%%\n", 100*api)
	fmt.Printf("(paper: < 23%% in the worst case, which is why the API's direct\n")
	fmt.Printf(" effect on the outcome mix stays limited)\n")
}
