// Parallel sweep: the scenario engine on a miniature landscape study.
// Enumerates (network x matrix x scheme) scenarios over a few synthetic
// topologies, fans them out across the CPUs through lowlat.RunScenarios,
// and aggregates per-scheme congestion and stretch — the same machinery
// every figure driver in internal/experiments runs on. Results come back
// in submission order, so this program prints identical output whatever
// the worker count.
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"
	"time"

	"lowlat"
)

func main() {
	networks := []*lowlat.Graph{
		lowlat.Grid("grid-4x4", 4, 4, 300, 10e9),
		lowlat.Ring("ring-12", 12, 900, 10e9),
		lowlat.Tree("tree-2x3", 2, 3, 400, 10e9),
	}
	schemes := []lowlat.Scheme{
		lowlat.NewShortestPath(),
		lowlat.NewB4(0),
		lowlat.NewMinMax(),
		lowlat.NewLatencyOptimal(0),
	}

	// Enumerate the full scenario cube in deterministic nested order.
	var scenarios []lowlat.Scenario
	for _, g := range networks {
		ms, err := lowlat.GenerateTrafficSet(g, lowlat.TrafficConfig{Seed: 7}, 3)
		if err != nil {
			log.Fatal(err)
		}
		for _, scheme := range schemes {
			for _, m := range ms {
				scenarios = append(scenarios, lowlat.Scenario{
					Tag:    g.Name() + "/" + scheme.Name(),
					Graph:  g,
					Matrix: m,
					Scheme: scheme,
				})
			}
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	start := time.Now()
	results, err := lowlat.RunScenarios(ctx, 0, scenarios) // 0 = one worker per CPU
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d scenarios on %d workers in %v\n\n",
		len(scenarios), runtime.NumCPU(), time.Since(start).Round(time.Millisecond))

	type agg struct {
		congested float64
		stretch   float64
		n         int
	}
	perScheme := make(map[string]*agg)
	for _, r := range results {
		name := r.Scenario.Scheme.Name()
		a := perScheme[name]
		if a == nil {
			a = &agg{}
			perScheme[name] = a
		}
		a.congested += r.Placement.CongestedPairFraction()
		a.stretch += r.Placement.LatencyStretch()
		a.n++
	}
	fmt.Printf("%-8s %14s %12s\n", "scheme", "mean congested", "mean stretch")
	for _, s := range schemes {
		a := perScheme[s.Name()]
		fmt.Printf("%-8s %14.3f %12.3f\n",
			s.Name(), a.congested/float64(a.n), a.stretch/float64(a.n))
	}
}
