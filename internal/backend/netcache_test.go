package backend

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"lowlat/internal/graph"
	"lowlat/internal/store"
	"lowlat/internal/sweep"
)

// refusing is a backend that computes nothing: Predictive's fallbacks
// land here, so the test pays net resolution and nothing else.
type refusing struct{ Backend }

func (refusing) Place(context.Context, store.CellSpec) (store.Result, error) {
	return store.Result{}, ErrNotStored
}

// TestPredictiveNetCacheIsBounded pins the net-term cache's bound: net
// terms are client-supplied, so a daemon asked about ever-new
// "randomgeo:8:<seed>" topologies must not remember them all — and a
// zoo net those requests evicted must still answer, from one fresh
// ResolveNet, with the netInfo it had before.
func TestPredictiveNetCacheIsBounded(t *testing.T) {
	p := NewPredictive(refusing{NewLocal(readOnly(t, openStore(t)), LocalOptions{})}, PredictiveOptions{})
	t.Cleanup(func() { p.Close() })

	before, err := p.netFor("star-6")
	if err != nil {
		t.Fatal(err)
	}
	const extra = 16
	for seed := 0; seed < netCacheCapacity+extra; seed++ {
		spec := store.CellSpec{Net: fmt.Sprintf("randomgeo:8:%d", seed), Seed: 1, Scheme: "sp", Locality: 1}
		// An untrained index refuses every prediction: each of these is a
		// fallback that resolved (and cached) its net term first.
		p.Place(context.Background(), spec)
	}
	if n := p.nets.Len(); n > netCacheCapacity {
		t.Fatalf("net cache holds %d terms after %d distinct ones, want <= %d", n, netCacheCapacity+extra+1, netCacheCapacity)
	}
	if got := p.Stats().PredictFallbacks; got != netCacheCapacity+extra {
		t.Fatalf("fallbacks = %d, want %d", got, netCacheCapacity+extra)
	}
	if _, held := p.nets.Get("star-6"); held {
		t.Fatal("star-6 survived a flood of more distinct terms than the cache holds")
	}
	after, err := p.netFor("star-6")
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Fatalf("evicted net re-resolved to %+v, was %+v", after, before)
	}
	if _, held := p.nets.Get("star-6"); !held {
		t.Fatal("re-resolved net was not cached again")
	}
}

// storedStarLocal is a read-only Local over a store holding one swept
// cell, star-6/1/sp: Places of that cell are store hits, and every other
// Place resolves its net term, misses the memo and fails ErrNotStored
// without computing.
func storedStarLocal(t *testing.T) *Local {
	t.Helper()
	st := openStore(t)
	grid := sweep.Grid{Nets: []string{"star-6"}, Seeds: []int64{1}, Schemes: []string{"sp"}}
	if _, err := sweep.Run(context.Background(), st, grid, sweep.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	return NewLocal(readOnly(t, st), LocalOptions{})
}

// TestLocalNetCacheIsBounded pins Local's net-term cache the way
// TestPredictiveNetCacheIsBounded pins Predictive's: a flood of more
// distinct "randomgeo:8:<seed>" terms than netCacheCapacity leaves at
// most that many resolved, and the stored net they evicted re-resolves
// to a new graph with the same fingerprint, landing on the same cell.
func TestLocalNetCacheIsBounded(t *testing.T) {
	l := storedStarLocal(t)
	ctx := context.Background()
	star := spec("star-6", 1, "sp")
	first, src, err := l.PlaceSourced(ctx, star)
	if err != nil || src != SourceStore {
		t.Fatalf("stored place: %v, source %q", err, src)
	}
	before, _ := l.nets.Get("star-6")

	const extra = 16
	for seed := 0; seed < netCacheCapacity+extra; seed++ {
		if _, err := l.Place(ctx, spec(fmt.Sprintf("randomgeo:8:%d", seed), 1, "sp")); !errors.Is(err, ErrNotStored) {
			t.Fatalf("seed %d: %v, want ErrNotStored", seed, err)
		}
	}
	if n := l.nets.Len(); n > netCacheCapacity {
		t.Fatalf("net cache holds %d terms after %d distinct ones, want <= %d", n, netCacheCapacity+extra+1, netCacheCapacity)
	}
	if _, held := l.nets.Get("star-6"); held {
		t.Fatal("star-6 survived a flood of more distinct terms than the cache holds")
	}

	again, src, err := l.PlaceSourced(ctx, star)
	if err != nil || src != SourceStore {
		t.Fatalf("place after eviction: %v, source %q", err, src)
	}
	if again.Key != first.Key {
		t.Fatalf("evicted net placed to key %v, was %v", again.Key, first.Key)
	}
	after, held := l.nets.Get("star-6")
	if !held {
		t.Fatal("re-resolved net was not cached again")
	}
	if after.Graph == before.Graph {
		t.Fatal("evicted net answered from the graph it was evicted with")
	}
	if after.Graph.Fingerprint() != before.Graph.Fingerprint() || after.Name != before.Name || after.Class != before.Class {
		t.Fatalf("evicted net re-resolved to %s %s %x, was %s %s %x",
			after.Name, after.Class, after.Graph.Fingerprint(), before.Name, before.Class, before.Graph.Fingerprint())
	}
}

// TestLocalSharesOneGraphPerTerm runs concurrent Places of one term on
// a Local that has not resolved it yet: callers that race to build it
// all leave with the graph that was cached first, so a net term has one
// graph per process however its first requests interleave.
func TestLocalSharesOneGraphPerTerm(t *testing.T) {
	l := storedStarLocal(t)
	ctx := context.Background()
	const callers = 8
	graphs := make([]*graph.Graph, callers)
	var wg sync.WaitGroup
	for i := range graphs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, src, err := l.PlaceSourced(ctx, spec("star-6", 1, "sp")); err != nil || src != SourceStore {
				t.Errorf("caller %d: %v, source %q", i, err, src)
			}
			net, err := l.resolveNet("star-6")
			if err != nil {
				t.Error(err)
				return
			}
			graphs[i] = net.Graph
		}()
	}
	wg.Wait()
	for i, g := range graphs {
		if g != graphs[0] {
			t.Fatalf("caller %d resolved star-6 to graph %p, caller 0 to %p", i, g, graphs[0])
		}
	}
	if n := l.nets.Len(); n != 1 {
		t.Fatalf("net cache holds %d terms, want 1", n)
	}
}
