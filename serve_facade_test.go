package lowlat

import (
	"context"
	"net"
	"testing"
	"time"

	"lowlat/internal/serve"
	"lowlat/internal/sweep"
)

// TestServeFacade drives the serving facade end to end: sweep a cell into
// a store, serve it on an ephemeral port, query and place through the
// typed client (one stored hit, one on-demand computation), summarize,
// read the stats, and shut down cleanly.
func TestServeFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("runs placements")
	}
	st, err := OpenResultStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	grid, err := ParseSweepGrid("nets=star-6;seeds=1;schemes=sp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSweep(context.Background(), st, grid, SweepOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	bound := make(chan net.Addr, 1)
	served := make(chan error, 1)
	go func() {
		served <- Serve(ctx, st, "127.0.0.1:0", ServeOptions{}, func(a net.Addr) { bound <- a })
	}()
	var addr net.Addr
	select {
	case addr = <-bound:
	case err := <-served:
		t.Fatalf("Serve exited early: %v", err)
	}
	c := NewServeClient("http://" + addr.String())

	results, err := c.Query(ctx, SweepFilter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("query returned %d cells, want 1", len(results))
	}

	hit, err := c.Place(ctx, PlaceRequest{Net: "star-6", Seed: 1, Scheme: "sp"})
	if err != nil {
		t.Fatal(err)
	}
	if hit.Source != "store" {
		t.Fatalf("swept cell source = %q, want store", hit.Source)
	}
	computed, err := c.Place(ctx, PlaceRequest{Net: "star-6", Seed: 1, Scheme: "minmax"})
	if err != nil {
		t.Fatal(err)
	}
	if computed.Source != "computed" {
		t.Fatalf("new cell source = %q, want computed", computed.Source)
	}

	sum, err := c.Summary(ctx, SweepFilter{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Cells != 2 || len(sum.Classes) != 1 {
		t.Fatalf("summary = %+v, want 2 cells in 1 class", sum)
	}
	if local := serve.Summarize(sweep.Query(st, sweep.Filter{}), 3); local.Cells != sum.Cells {
		t.Fatalf("local summary (%d cells) != served summary (%d cells)", local.Cells, sum.Cells)
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.StoreCells != 2 || stats.Computed != 1 || stats.MemoHits < 1 {
		t.Fatalf("stats = %+v, want 2 cells, 1 computed, >=1 memo hits", stats)
	}

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve = %v after clean shutdown, want nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Serve did not return after cancel")
	}
}
