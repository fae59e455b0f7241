package lowlat_test

import (
	"math"
	"sort"
	"testing"

	"lowlat"
	"lowlat/internal/mux"
	"lowlat/internal/sim"
)

// Cross-module integration tests: the consistency contracts between the
// controller's multiplexing appraisal, the fluid simulator, and the
// routing schemes, exercised end to end through the public API and, for
// the simulator and multiplexing checks, their owning packages.

// sortedInputs builds controller inputs ordered the way the controller
// orders aggregates, so input index i lines up with Placement.Allocs[i].
func sortedInputs(m *lowlat.Matrix, series func(i int, volume float64) []float64) []lowlat.AggregateInput {
	inputs := make([]lowlat.AggregateInput, m.Len())
	for i, a := range m.Aggregates {
		inputs[i] = lowlat.AggregateInput{
			Src: a.Src, Dst: a.Dst, Flows: a.Flows, Series: series(i, a.Volume),
		}
	}
	sort.Slice(inputs, func(a, b int) bool {
		if inputs[a].Src != inputs[b].Src {
			return inputs[a].Src < inputs[b].Src
		}
		return inputs[a].Dst < inputs[b].Dst
	})
	return inputs
}

// TestAppraisalMatchesSimulator pins the semantic contract between the §5
// temporal multiplexing test and the fluid simulator: when the controller
// converges (every link passes the appraisal on the measured series),
// simulating those same series over the chosen placement must respect the
// queue bound on every link. Both sides model offered-rate FIFO queues, so
// this holds exactly, not statistically.
func TestAppraisalMatchesSimulator(t *testing.T) {
	g := lowlat.Grid("itest-grid", 4, 4, 300, lowlat.Cap10G)
	res, err := lowlat.GenerateTraffic(g, lowlat.TrafficConfig{Seed: 9, TargetMaxUtil: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Matrix

	inputs := sortedInputs(m, func(i int, volume float64) []float64 {
		return lowlat.AggregateSeries(int64(i)+1, 600, volume, 0.2, 0.9)
	})

	ctl := lowlat.NewController(g, lowlat.ControllerConfig{})
	out, err := ctl.Optimize(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.UnresolvedLinks) != 0 {
		t.Skipf("appraisal did not converge (%d unresolved); contract only applies on convergence",
			len(out.UnresolvedLinks))
	}

	traffic := make([][]float64, len(inputs))
	for i := range inputs {
		traffic[i] = inputs[i].Series
	}
	simRes, err := sim.Run(out.Placement, traffic, sim.Config{BinSec: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if simRes.MaxQueueSec > 0.010+1e-9 {
		t.Fatalf("appraised placement queued %.4fs on link %d under the certified series",
			simRes.MaxQueueSec, simRes.WorstLink)
	}
}

// TestSchemesDegradeCoherentlyWhenInfeasible drives every scheme with
// demand beyond the network's cut and checks each fails the way it
// documents: placements stay structurally valid, traffic is conserved,
// and congestion is reported rather than hidden.
func TestSchemesDegradeCoherentlyWhenInfeasible(t *testing.T) {
	g := lowlat.Ring("itest-ring", 6, 400, lowlat.Cap10G)
	res, err := lowlat.GenerateTraffic(g, lowlat.TrafficConfig{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Matrix.Scale(3) // 3x the calibrated load: far beyond the cut

	for _, s := range append(lowlat.Schemes(), lowlat.NewMPLSTE()) {
		p, err := s.Place(g, m)
		if err != nil {
			t.Fatalf("%s: schemes must degrade, not error: %v", s.Name(), err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: invalid placement under overload: %v", s.Name(), err)
		}
		if p.Fits() {
			t.Fatalf("%s: 3x load cannot fit a ring", s.Name())
		}
		if p.CongestedPairFraction() == 0 {
			t.Fatalf("%s: overload must surface as congested pairs", s.Name())
		}
	}
}

// TestDisconnectedTopologyFailsCleanly checks the whole stack's behavior
// on a partitioned network: metrics treat unreachable pairs as absent,
// schemes return errors for unroutable aggregates, and the controller
// propagates them.
func TestDisconnectedTopologyFailsCleanly(t *testing.T) {
	b := lowlat.NewBuilder("split-brain")
	a1 := b.AddNode("a1", lowlat.Point{})
	a2 := b.AddNode("a2", lowlat.Point{Lat: 1})
	b1 := b.AddNode("b1", lowlat.Point{Lat: 50})
	b2 := b.AddNode("b2", lowlat.Point{Lat: 51})
	b.AddBiLink(a1, a2, lowlat.Cap10G, 0.001)
	b.AddBiLink(b1, b2, lowlat.Cap10G, 0.001)
	g := b.MustBuild()

	if g.Connected() {
		t.Fatal("test graph must be disconnected")
	}
	// LLPD only counts connected pairs.
	if llpd := lowlat.LLPD(g, lowlat.APAConfig{}); llpd != 0 {
		t.Fatalf("two-island LLPD = %v, want 0 (no alternates anywhere)", llpd)
	}

	m := lowlat.NewMatrix([]lowlat.Aggregate{
		{Src: a1, Dst: b1, Volume: 1e9, Flows: 10}, // crosses the partition
	})
	for _, s := range append(lowlat.Schemes(), lowlat.NewMPLSTE()) {
		if _, err := s.Place(g, m); err == nil {
			t.Fatalf("%s: unroutable aggregate must error", s.Name())
		}
	}

	ctl := lowlat.NewController(g, lowlat.ControllerConfig{})
	_, err := ctl.Optimize([]lowlat.AggregateInput{
		{Src: a1, Dst: b1, Flows: 10, Series: []float64{1e9}},
	})
	if err == nil {
		t.Fatal("controller must propagate unroutable-aggregate errors")
	}
}

// TestHeadroomDialContinuum pins the §4 claim on a real mid-LLPD network:
// as headroom grows the latency-optimal placement's stretch is
// non-decreasing, and at the MinMax headroom level the two placements'
// stretch essentially meet.
func TestHeadroomDialContinuum(t *testing.T) {
	g := lowlat.GTSLike()
	res, err := lowlat.GenerateTraffic(g, lowlat.TrafficConfig{Seed: 2, TargetMaxUtil: 1 / 1.65})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Matrix

	mm, err := lowlat.NewMinMax().Place(g, m)
	if err != nil {
		t.Fatal(err)
	}
	maxHeadroom := 1 - mm.MaxUtilization()

	prev := 0.0
	for _, h := range []float64{0, 0.1, 0.2, maxHeadroom * 0.999} {
		p, err := lowlat.NewLatencyOptimal(h).Place(g, m)
		if err != nil {
			t.Fatalf("headroom %v: %v", h, err)
		}
		st := p.LatencyStretch()
		if st < prev-1e-6 {
			t.Fatalf("stretch decreased from %v to %v as headroom grew to %v", prev, st, h)
		}
		prev = st
	}

	// At (just under) the MinMax headroom, the latency-optimal stretch
	// essentially meets MinMax's: MinMax is the extreme of the dial.
	// The Figure 13 termination tolerates a sub-0.1% optimality gap.
	if prev > mm.LatencyStretch()*(1+1e-3) {
		t.Fatalf("latopt at max headroom stretches %v > minmax %v", prev, mm.LatencyStretch())
	}
}

// TestPredictorHedgeCoversDrift pins Algorithm 1's contract at the system
// level: for traffic whose minute-to-minute growth stays under the 10%
// hedge, predictions are never exceeded by more than the paper's margin.
func TestPredictorHedgeCoversDrift(t *testing.T) {
	tr := lowlat.GenerateTrace(lowlat.TraceConfig{Seed: 33, Minutes: 30, BinsPerSecond: 20})
	means := lowlat.MinuteMeans(tr.Rates, tr.BinsPerMinute())
	ratios := lowlat.EvaluateTrace(means)
	exceed := 0
	for _, r := range ratios {
		if r > 1 {
			exceed++
		}
		if r > 1.1 {
			t.Fatalf("measured exceeded prediction by more than 10%%: ratio %v", r)
		}
	}
	if frac := float64(exceed) / float64(len(ratios)); frac > 0.05 {
		t.Fatalf("%.1f%% of minutes exceeded the prediction, want rare", frac*100)
	}
}

// TestFacadeSimMatchesMuxMaxQueue pins that sim.Run and mux.MaxQueueDelay
// agree when a single link carries all traffic: they implement the same
// carry-over computation.
func TestFacadeSimMatchesMuxMaxQueue(t *testing.T) {
	b := lowlat.NewBuilder("one-link")
	a := b.AddNode("a", lowlat.Point{})
	z := b.AddNode("z", lowlat.Point{Lat: 1})
	b.AddBiLink(a, z, lowlat.Cap10G, 0.001)
	g := b.MustBuild()

	m := lowlat.NewMatrix([]lowlat.Aggregate{
		{Src: a, Dst: z, Volume: 6e9, Flows: 10},
		{Src: a, Dst: z, Volume: 5e9, Flows: 10},
	})
	// Two aggregates share the same (src, dst): NewMatrix keeps both?
	// It sorts but does not merge; the placement routes each on the
	// single path.
	s1 := lowlat.AggregateSeries(1, 100, 6e9, 0.3, 0.9)
	s2 := lowlat.AggregateSeries(2, 100, 5e9, 0.3, 0.9)

	p, err := lowlat.NewShortestPath().Place(g, m)
	if err != nil {
		t.Fatal(err)
	}
	simRes, err := sim.Run(p, [][]float64{s1, s2}, sim.Config{BinSec: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	want := mux.MaxQueueDelay([][]float64{s1, s2}, lowlat.Cap10G, 0.1)
	if math.Abs(simRes.MaxQueueSec-want) > 1e-9 {
		t.Fatalf("sim max queue %v != mux computation %v", simRes.MaxQueueSec, want)
	}
}
