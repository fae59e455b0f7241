package backend

import (
	"context"
	"fmt"
	"testing"

	"lowlat/internal/store"
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
	if n := p.nets.len(); n > netCacheCapacity {
		t.Fatalf("net cache holds %d terms after %d distinct ones, want <= %d", n, netCacheCapacity+extra+1, netCacheCapacity)
	}
	if got := p.Stats().PredictFallbacks; got != netCacheCapacity+extra {
		t.Fatalf("fallbacks = %d, want %d", got, netCacheCapacity+extra)
	}
	if _, held := p.nets.get("star-6"); held {
		t.Fatal("star-6 survived a flood of more distinct terms than the cache holds")
	}
	after, err := p.netFor("star-6")
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Fatalf("evicted net re-resolved to %+v, was %+v", after, before)
	}
	if _, held := p.nets.get("star-6"); !held {
		t.Fatal("re-resolved net was not cached again")
	}
}
