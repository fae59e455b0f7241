package routing_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"lowlat/internal/graph"
	"lowlat/internal/routing"
	"lowlat/internal/tm"
	"lowlat/internal/tmgen"
	"lowlat/internal/topo"
)

// matrixBits flattens a matrix to the bits of every field.
func matrixBits(m *tm.Matrix) []uint64 {
	var out []uint64
	for _, a := range m.Aggregates {
		out = append(out, uint64(a.Src), uint64(a.Dst), math.Float64bits(a.Volume), uint64(a.Flows))
	}
	return out
}

// placementBits flattens a placement to the bits of every allocation:
// each path's links and delay, and its fraction.
func placementBits(p *routing.Placement) []uint64 {
	var out []uint64
	for i, allocs := range p.Allocs {
		out = append(out, uint64(i), uint64(len(allocs)))
		for _, a := range allocs {
			out = append(out, math.Float64bits(a.Fraction), math.Float64bits(a.Path.Delay))
			for _, lid := range a.Path.Links {
				out = append(out, uint64(lid))
			}
		}
	}
	return out
}

// TestPooledPlacements is TestPooledSolves one layer up, on the place_cold
// shapes: eight goroutines share one SolverCache and each, in its own
// order, calibrates the matrices of the place_cold nets and places every
// place_cold scheme on them. Every matrix and placement must equal bit for
// bit the one a single goroutine computed first, as returned, twenty
// operations later and at the end.
func TestPooledPlacements(t *testing.T) {
	nets := []string{"ring-16", "wheel-16", "tree-2x4"}
	schemes := []string{"sp", "b4", "minmax", "ldr"}
	seeds := []int64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	type op struct {
		g      *graph.Graph
		seed   int64
		scheme string // "" calibrates the matrix
	}
	var ops []op
	for _, name := range nets {
		e, ok := topo.ByName(name)
		if !ok {
			t.Fatalf("no zoo net %q", name)
		}
		g := e.Build()
		for _, seed := range seeds {
			ops = append(ops, op{g: g, seed: seed})
			for _, s := range schemes {
				ops = append(ops, op{g: g, seed: seed, scheme: s})
			}
		}
	}

	// run performs o on sc, placing on matrices[o's net and seed], which a
	// calibration stores; it returns what reads the result's bits, now or
	// later.
	run := func(sc *routing.SolverCache, matrices map[string]*tm.Matrix, o op) (func() []uint64, error) {
		key := fmt.Sprintf("%s/%d", o.g.Name(), o.seed)
		if o.scheme == "" {
			res, err := tmgen.Generate(o.g, tmgen.Config{Seed: o.seed, Cache: sc.ForGraph(o.g)})
			if err != nil {
				return nil, err
			}
			matrices[key] = res.Matrix
			return func() []uint64 { return matrixBits(res.Matrix) }, nil
		}
		s, err := routing.ByName(o.scheme, 0)
		if err != nil {
			return nil, err
		}
		p, err := sc.Place(s, o.g, matrices[key])
		if err != nil {
			return nil, err
		}
		return func() []uint64 { return placementBits(p) }, nil
	}

	want := make([][]uint64, len(ops))
	matrices := map[string]*tm.Matrix{}
	sc := routing.NewSolverCache()
	for i, o := range ops {
		bits, err := run(sc, matrices, o)
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		want[i] = bits()
	}

	// Each goroutine's order keeps every net's calibrations ahead of its
	// placements: a shuffle of the calibrations, then of the placements.
	var calibrations, placements []int
	for i, o := range ops {
		if o.scheme == "" {
			calibrations = append(calibrations, i)
		} else {
			placements = append(placements, i)
		}
	}
	const window = 20
	shared := routing.NewSolverCache()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			order := slices.Clone(calibrations)
			rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
			rest := slices.Clone(placements)
			rng.Shuffle(len(rest), func(a, b int) { rest[a], rest[b] = rest[b], rest[a] })
			order = append(order, rest...)

			mine := map[string]*tm.Matrix{}
			kept := make([]func() []uint64, len(order))
			check := func(k int, when string) {
				if i := order[k]; !slices.Equal(kept[k](), want[i]) {
					t.Errorf("goroutine %d, op %d (%s seed %d %q) %s: differs from the sequential run",
						g, k, ops[i].g.Name(), ops[i].seed, ops[i].scheme, when)
				}
			}
			for k, i := range order {
				bits, err := run(shared, mine, ops[i])
				if err != nil {
					t.Errorf("goroutine %d, op %d: %v", g, k, err)
					return
				}
				kept[k] = bits
				check(k, "as returned")
				if k >= window {
					check(k-window, "20 operations later")
				}
			}
			for k := range order {
				check(k, "at the end")
			}
		}(g)
	}
	wg.Wait()
}
