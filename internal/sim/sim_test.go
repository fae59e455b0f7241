package sim

import (
	"math"
	"testing"

	"lowlat/internal/geo"
	"lowlat/internal/graph"
	"lowlat/internal/routing"
	"lowlat/internal/tm"
)

// line builds a -> b -> c with the given capacities (bits/sec) and 1 ms
// per-hop delay.
func line(capAB, capBC float64) (*graph.Graph, []graph.NodeID) {
	b := graph.NewBuilder("line")
	a := b.AddNode("a", geo.Point{})
	mid := b.AddNode("b", geo.Point{})
	c := b.AddNode("c", geo.Point{})
	b.AddBiLink(a, mid, capAB, 0.001)
	b.AddBiLink(mid, c, capBC, 0.001)
	return b.MustBuild(), []graph.NodeID{a, mid, c}
}

// spPlacement places every aggregate fully on its shortest path.
func spPlacement(t testing.TB, g *graph.Graph, m *tm.Matrix) *routing.Placement {
	t.Helper()
	p, err := routing.SP{}.Place(g, m)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func constSeries(rate float64, bins int) []float64 {
	s := make([]float64, bins)
	for i := range s {
		s[i] = rate
	}
	return s
}

func TestRunSteadyUnderloadNoQueue(t *testing.T) {
	g, ids := line(10e9, 10e9)
	m := tm.New([]tm.Aggregate{{Src: ids[0], Dst: ids[2], Volume: 5e9, Flows: 100}})
	p := spPlacement(t, g, m)

	res, err := Run(p, [][]float64{constSeries(5e9, 100)}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxQueueSec != 0 {
		t.Fatalf("steady 50%% load must not queue, got %v", res.MaxQueueSec)
	}
	if res.WorstLink != -1 {
		t.Fatalf("worst link = %v, want -1", res.WorstLink)
	}
	// Mean utilization on the two traversed links must be 0.5.
	seen := 0
	for _, ls := range res.Links {
		if ls.MeanUtil > 0 {
			seen++
			if math.Abs(ls.MeanUtil-0.5) > 1e-9 {
				t.Fatalf("mean util = %v, want 0.5", ls.MeanUtil)
			}
		}
	}
	if seen != 2 {
		t.Fatalf("traffic crossed %d links, want 2", seen)
	}
}

func TestRunPersistentOverloadQueueGrows(t *testing.T) {
	g, ids := line(10e9, 10e9)
	m := tm.New([]tm.Aggregate{{Src: ids[0], Dst: ids[2], Volume: 12e9, Flows: 100}})
	p := spPlacement(t, g, m)

	bins := 50
	res, err := Run(p, [][]float64{constSeries(12e9, bins)}, Config{BinSec: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	// 2 Gb/s of excess accumulates each second on the first link:
	// after 5 s the queue drains in (12-10)*5/10 = 1 s.
	want := (12e9 - 10e9) * 0.1 * float64(bins) / 10e9
	if math.Abs(res.MaxQueueSec-want) > 1e-6 {
		t.Fatalf("max queue = %v s, want %v s", res.MaxQueueSec, want)
	}
	if res.Links[res.WorstLink].QueuedBins != bins {
		t.Fatal("overloaded link must queue in every bin")
	}
	// Offered-rate semantics: both path links see the full 12 Gb/s, so
	// both queue identically (the conservative upper bound the package
	// documents).
	queued := 0
	for _, ls := range res.Links {
		if ls.QueuedBins > 0 {
			queued++
			if math.Abs(ls.MaxQueueSec-want) > 1e-6 {
				t.Fatalf("queued link max = %v, want %v", ls.MaxQueueSec, want)
			}
		}
	}
	if queued != 2 {
		t.Fatalf("%d links queued, want 2 (offered-rate model)", queued)
	}
}

func TestRunPerLinkQueuesAreIndependent(t *testing.T) {
	// 9 Gb/s offered over a 10G then an 8G hop: only the 8G hop queues.
	// The offered-rate model applies each link's own capacity to the
	// same offered series.
	g, ids := line(10e9, 8e9)
	m := tm.New([]tm.Aggregate{{Src: ids[0], Dst: ids[2], Volume: 9e9, Flows: 100}})
	p := spPlacement(t, g, m)

	res, err := Run(p, [][]float64{constSeries(9e9, 100)}, Config{BinSec: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	first, _ := g.FindLink(ids[0], ids[1])
	second, _ := g.FindLink(ids[1], ids[2])
	if res.Links[first.ID].MaxQueueSec != 0 {
		t.Fatalf("10G hop under 9G must not queue, got %v", res.Links[first.ID].MaxQueueSec)
	}
	if res.Links[second.ID].MaxQueueSec <= 0 {
		t.Fatal("8G hop under 9G must queue")
	}
}

func TestRunBurstQueuesThenDrains(t *testing.T) {
	g, ids := line(10e9, 10e9)
	m := tm.New([]tm.Aggregate{{Src: ids[0], Dst: ids[2], Volume: 5e9, Flows: 100}})
	p := spPlacement(t, g, m)

	// A single 15 Gb/s bin against 10G: 0.5 Gb of excess, draining in
	// 50 ms; afterwards the queue must empty.
	series := constSeries(5e9, 20)
	series[5] = 15e9
	res, err := Run(p, [][]float64{series}, Config{BinSec: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	want := (15e9 - 10e9) * 0.1 / 10e9 // 50 ms
	if math.Abs(res.MaxQueueSec-want) > 1e-9 {
		t.Fatalf("max queue = %v, want %v", res.MaxQueueSec, want)
	}
	if ls := res.Links[res.WorstLink]; ls.QueuedBins != 1 {
		t.Fatalf("queue must clear immediately at 50%% load, queued bins = %d", ls.QueuedBins)
	}
}

func TestRunFiniteBufferDrops(t *testing.T) {
	g, ids := line(10e9, 10e9)
	m := tm.New([]tm.Aggregate{{Src: ids[0], Dst: ids[2], Volume: 20e9, Flows: 100}})
	p := spPlacement(t, g, m)

	res, err := Run(p, [][]float64{constSeries(20e9, 100)}, Config{BinSec: 0.1, BufferSec: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if res.DroppedBits == 0 {
		t.Fatal("sustained 2x overload with a 50 ms buffer must drop")
	}
	if res.MaxQueueSec > 0.05+0.1+1e-9 {
		t.Fatalf("queue bounded by buffer+bin, got %v", res.MaxQueueSec)
	}
	if df := res.DropFraction(); df <= 0 || df >= 1 {
		t.Fatalf("drop fraction = %v", df)
	}
}

func TestRunSplitPlacementBalances(t *testing.T) {
	// Two disjoint 10G routes; a placement splitting 12G evenly must
	// not queue anywhere.
	b := graph.NewBuilder("split")
	a := b.AddNode("a", geo.Point{})
	u := b.AddNode("u", geo.Point{})
	v := b.AddNode("v", geo.Point{})
	z := b.AddNode("z", geo.Point{})
	b.AddBiLink(a, u, 10e9, 0.001)
	b.AddBiLink(u, z, 10e9, 0.001)
	b.AddBiLink(a, v, 10e9, 0.002)
	b.AddBiLink(v, z, 10e9, 0.002)
	g := b.MustBuild()

	m := tm.New([]tm.Aggregate{{Src: a, Dst: z, Volume: 12e9, Flows: 100}})
	p, err := routing.LatencyOpt{}.Place(g, m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, [][]float64{constSeries(12e9, 50)}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxQueueSec != 0 {
		t.Fatalf("balanced split must not queue, got %v on link %v", res.MaxQueueSec, res.WorstLink)
	}
}

func TestRunAggregateQueueDelayAccumulates(t *testing.T) {
	// Both links slightly over capacity: the aggregate's path queue
	// delay must be the sum of both links' delays.
	g, ids := line(10e9, 10e9)
	m := tm.New([]tm.Aggregate{{Src: ids[0], Dst: ids[2], Volume: 11e9, Flows: 100}})
	p := spPlacement(t, g, m)

	res, err := Run(p, [][]float64{constSeries(11e9, 10)}, Config{BinSec: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	// Both equally-overloaded hops queue identically, so the path's
	// accumulated queueing delay is twice the per-link maximum.
	if math.Abs(res.AggregateQueueSec[0]-2*res.MaxQueueSec) > 1e-9 {
		t.Fatalf("aggregate queue %v != 2x link max %v", res.AggregateQueueSec[0], res.MaxQueueSec)
	}
	if res.AggregateQueueSec[0] <= 0 {
		t.Fatal("aggregate must see queueing")
	}
}

func TestRunInputValidation(t *testing.T) {
	g, ids := line(10e9, 10e9)
	m := tm.New([]tm.Aggregate{{Src: ids[0], Dst: ids[2], Volume: 1e9, Flows: 1}})
	p := spPlacement(t, g, m)

	if _, err := Run(nil, nil, Config{}); err == nil {
		t.Fatal("nil placement must error")
	}
	if _, err := Run(p, [][]float64{}, Config{}); err == nil {
		t.Fatal("missing series must error")
	}
	if _, err := Run(p, [][]float64{{}}, Config{}); err == nil {
		t.Fatal("empty series must error")
	}
	if _, err := Run(p, [][]float64{{1, 2}, {1}}, Config{}); err == nil {
		t.Fatal("ragged series must error")
	}
}
