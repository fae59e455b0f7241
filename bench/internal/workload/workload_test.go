package workload

import (
	"reflect"
	"testing"
	"time"

	"lowlat/bench/internal/loadgen"
	"lowlat/internal/store"
)

func TestInputsArePureFunctionsOfSeed(t *testing.T) {
	if !reflect.DeepEqual(storeCellsFor(7)[:100], storeCellsFor(7)[:100]) {
		t.Error("storeCellsFor(7) differs between calls")
	}
	if reflect.DeepEqual(storeCellsFor(7)[:100], storeCellsFor(8)[:100]) {
		t.Error("storeCellsFor(7) and (8) generate the same cells")
	}
	seen := make(map[store.CellKey]bool)
	for _, c := range storeCellsFor(7) {
		if seen[c.Key] {
			t.Fatalf("duplicate synthetic key %s", c.Key)
		}
		seen[c.Key] = true
	}
	for k := 0; k < 3*placeClasses; k++ {
		a, b := placeSpec(42, k), placeSpec(42, k)
		if a != b {
			t.Fatalf("placeSpec(42, %d) differs between calls", k)
		}
		if k >= placeClasses {
			prev := placeSpec(42, k-placeClasses)
			if a.Net != prev.Net || a.Scheme != prev.Scheme || a.Seed == prev.Seed {
				t.Errorf("op %d: want the class of op %d with a fresh matrix seed; got %v after %v", k, k-placeClasses, a, prev)
			}
		}
	}
	if placeSpec(42, 0).Seed == placeSpec(43, 0).Seed {
		t.Error("run seeds 42 and 43 share a matrix seed")
	}
	if reflect.DeepEqual(clusterSpecs(1), clusterSpecs(2)) || !reflect.DeepEqual(clusterSpecs(1), clusterSpecs(1)) {
		t.Error("clusterSpecs is not a pure function of the seed")
	}
	if n := len(clusterSpecs(1)); n != 2*len(smallNets)*clusterSeeds*len(placeSchemes) {
		t.Errorf("%d seeded cluster specs", n)
	}
}

func TestQuietEstimatorIgnoresLoudRounds(t *testing.T) {
	calm := []float64{10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10, 10, 10.1}
	loud := append([]float64(nil), calm...)
	for i := 0; i < 5; i++ { // five of twelve rounds disturbed
		loud[2*i] *= 1.8
	}
	if q, l := quiet(calm), quiet(loud); l > q*1.02 {
		t.Errorf("quiet estimator moved from %v to %v with 5 of 12 rounds disturbed", q, l)
	}
	slow := make([]float64, len(calm))
	for i, v := range calm {
		slow[i] = v * 1.2 // a real regression slows every round
	}
	if q, s := quiet(calm), quiet(slow); s < q*1.19 {
		t.Errorf("quiet estimator shows %v -> %v for a 20%% regression", q, s)
	}
}

func TestSliceMedians(t *testing.T) {
	var ph loadgen.Phase
	add := func(doneMs int, latMs float64) {
		ph.Samples = append(ph.Samples, loadgen.Sample{DoneNs: int64(doneMs) * int64(time.Millisecond), LatNs: int64(latMs * 1e6)})
	}
	for _, v := range []float64{1, 2, 3} {
		add(100, v)
	}
	for _, v := range []float64{10, 20, 30, 40, 50} {
		add(700, v)
	}
	add(1900, 7) // the slice [1000,1500) is empty and is skipped
	if got, want := sliceMedians(ph), []float64{2, 30, 7}; !reflect.DeepEqual(got, want) {
		t.Errorf("sliceMedians = %v; want %v", got, want)
	}
}

func TestTraceIDRoundTrip(t *testing.T) {
	op, parent, ok := parseTraceID(traceID(123456, 789))
	if !ok || op != 123456 || parent != 789 {
		t.Errorf("parseTraceID(traceID(123456, 789)) = %d, %d, %v", op, parent, ok)
	}
	for _, bad := range []string{"", "req-abc", "b12", "b1.x", "12.3"} {
		if _, _, ok := parseTraceID(bad); ok {
			t.Errorf("parseTraceID(%q) accepted", bad)
		}
	}
}

func TestSameCellToleratesOnlyB4LastBits(t *testing.T) {
	cell := func(scheme string, stretch float64) store.Result {
		return store.Result{
			Key:     store.CellKey{Graph: 1, Matrix: 2, Scheme: scheme, Config: 3},
			Meta:    store.Meta{Net: "ring-16", Scheme: scheme},
			Metrics: store.Metrics{Stretch: stretch, MaxStretch: 12.4, MaxUtil: 0.99, Fits: true},
		}
	}
	if !sameCell(cell("b4", 1.2054717603503304), cell("b4", 1.2054717603503307)) {
		t.Error("b4 cells differing in the last bit of stretch reported different")
	}
	if sameCell(cell("b4", 1.2054717603503304), cell("b4", 1.2054719)) {
		t.Error("b4 cells differing in the seventh digit reported equal")
	}
	if sameCell(cell("ldr", 1.2054717603503304), cell("ldr", 1.2054717603503307)) {
		t.Error("non-b4 cells must match byte for byte")
	}
	if !sameCell(cell("ldr", 1.5), cell("ldr", 1.5)) {
		t.Error("identical cells reported different")
	}
}

func TestFinishReportsEveryName(t *testing.T) {
	r := newResult()
	r.Attempted, r.Failed = 200, 1
	r.set("tmgen.share", 0.75)
	names := r.Finish(true)
	if len(names) != len(PerLayer) {
		t.Fatalf("traced run lists %d names; want %d", len(names), len(PerLayer))
	}
	for _, d := range PerLayer {
		m, ok := r.Metrics[d.Name]
		if !ok || m.Unit != d.Unit {
			t.Errorf("%s: missing or unit %q, want %q", d.Name, m.Unit, d.Unit)
		}
	}
	if r.Metrics["fail_ratio"].Value != 0.005 || r.Metrics["tmgen.share"].Value != 0.75 || r.Metrics["cluster.rerouted"].Value != 0 {
		t.Errorf("fail_ratio %v, tmgen.share %v", r.Metrics["fail_ratio"], r.Metrics["tmgen.share"])
	}
	if got := newResult().Finish(false); !reflect.DeepEqual(got, EndToEnd) {
		t.Errorf("untraced run lists %v", got)
	}
	seen := make(map[string]bool)
	for _, d := range append(append([]Def(nil), EndToEnd...), PerLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is declared twice", d.Name)
		}
		seen[d.Name] = true
	}
}
