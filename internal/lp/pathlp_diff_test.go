package lp_test

import (
	"context"
	"testing"

	"lowlat/internal/dynamics"
	"lowlat/internal/engine"
	"lowlat/internal/lp"
	"lowlat/internal/routing"
	"lowlat/internal/tmgen"
	"lowlat/internal/topo"
)

// TestPathLPTableauMatchesReference taps every LP the real callers solve —
// tmgen's locality and calibration LPs, then each path-LP scheme variant
// on the intact graph and over a six-epoch random-failure timeline under
// diurnal churn (the reopt_loop shape; the walk of
// routing.TestPathLPBuilderMatchesReference) — and requires the
// single-copy tableau and its solve to equal the reference constructor's
// bit for bit, all in one workspace that the LPs grow and shrink.
func TestPathLPTableauMatchesReference(t *testing.T) {
	var ws lp.Workspace
	seen := 0
	lp.SetSolveHook(func(p *lp.Problem) {
		seen++
		if err := lp.DiffAgainstRef(p, &ws); err != nil {
			t.Errorf("LP %d (%d vars, %d rows): %v", seen, p.NumVars(), p.NumRows(), err)
		}
	})
	defer lp.SetSolveHook(nil)

	schemes := []routing.Scheme{
		routing.LatencyOpt{},
		routing.LatencyOpt{Exact: true},
		routing.MinMax{},
		routing.MinMax{K: 10},
		routing.MinMax{StretchBound: 1.5},
	}
	cfg := dynamics.Config{Seed: 1, Epochs: 6, Failures: dynamics.FailRandom, Churn: dynamics.ChurnDiurnal}
	for _, name := range []string{"ring-16", "grid-4x4", "wheel-16", "tree-2x4"} {
		e, ok := topo.ByName(name)
		if !ok {
			t.Fatalf("no zoo net %q", name)
		}
		g := e.Build()
		res, err := tmgen.Generate(g, tmgen.Config{Seed: 7, TargetMaxUtil: 0.7})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, s := range schemes {
			if _, err := s.Place(g, res.Matrix); err != nil {
				t.Fatalf("%s/%s: %v", name, s.Name(), err)
			}
			if _, err := dynamics.Run(context.Background(), engine.NewRunner(1), g, res.Matrix, s, cfg); err != nil {
				t.Fatalf("%s/%s timeline: %v", name, s.Name(), err)
			}
		}
	}
	if seen < 1000 {
		t.Fatalf("tapped only %d LPs", seen)
	}
}
