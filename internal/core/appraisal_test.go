package core

import (
	"math"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"

	"lowlat/internal/graph"
	"lowlat/internal/mux"
	"lowlat/internal/routing"
	"lowlat/internal/sweep"
	"lowlat/internal/tm"
	"lowlat/internal/trace"
)

// The control-cycle inputs of bench/'s reopt_loop workload: three nets,
// a base matrix calibrated to load 0.70 at a fixed seed, and per
// aggregate a minute of 100 ms bins with 10 % bursts.
var cycleNets = []string{"ring-16", "grid-4x4", "wheel-16"}

const (
	cycleBins     = 600
	cycleLoad     = 0.70
	cycleBurst    = 0.10
	cycleBaseSeed = 7
)

type cycleNet struct {
	g    *graph.Graph
	base *tm.Matrix
}

var cycleNetCache sync.Map // name -> *cycleNet; calibrating a matrix takes ~50 ms

func loadCycleNet(tb testing.TB, name string) *cycleNet {
	tb.Helper()
	if n, ok := cycleNetCache.Load(name); ok {
		return n.(*cycleNet)
	}
	spec, err := sweep.ResolveNet(name)
	if err != nil {
		tb.Fatal(err)
	}
	base, err := sweep.GenerateMatrix(spec.Graph, cycleBaseSeed, cycleLoad, 1, nil)
	if err != nil {
		tb.Fatal(err)
	}
	n := &cycleNet{g: spec.Graph, base: base}
	cycleNetCache.Store(name, n)
	return n
}

// measurements is measurement set `set` of net number ni, seeded the way
// reopt_loop seeds it.
func (n *cycleNet) measurements(seed int64, ni, set int) []AggregateInput {
	in := make([]AggregateInput, n.base.Len())
	for i, a := range n.base.Aggregates {
		in[i] = AggregateInput{
			Src: a.Src, Dst: a.Dst, Flows: a.Flows,
			Series: trace.AggregateSeries(seed*7919+int64(ni*1_000_000+set*10_000+i), cycleBins, a.Volume, cycleBurst, 0.8),
		}
	}
	return in
}

// refCheckLinks is the appraisal as it stood before it became copy-free
// and support-aware: a scaled copy of the series per allocation, links in
// a map, a peak scan per series per link, the column-major queue walk —
// and, for the convolution, the unrestricted direct product, the exact
// value the FFT and the support-restricted product both stand for.
func (c *Controller) refCheckLinks(p *routing.Placement, inputs []AggregateInput, _ []float64, visit func(graph.LinkID, mux.Verdict)) {
	perLink := make(map[graph.LinkID][][]float64)
	for i, allocs := range p.Allocs {
		for _, al := range allocs {
			if al.Fraction < 1e-7 {
				continue
			}
			scaled := make([]float64, len(inputs[i].Series))
			for t, v := range inputs[i].Series {
				scaled[t] = v * al.Fraction
			}
			for _, lid := range al.Path.Links {
				perLink[lid] = append(perLink[lid], scaled)
			}
		}
	}
	lids := make([]graph.LinkID, 0, len(perLink))
	for lid := range perLink {
		lids = append(lids, lid)
	}
	sort.Slice(lids, func(a, b int) bool { return lids[a] < lids[b] })
	for _, lid := range lids {
		visit(lid, refCheckLink(perLink[lid], c.g.Link(lid).Capacity, c.cfg.Mux))
	}
}

func refCheckLink(series [][]float64, capacity float64, cfg mux.CheckConfig) mux.Verdict {
	const maxQueueSec, binSec, levels = 0.010, 0.100, 1024 // the defaults; the tests here set none
	if !cfg.DisablePeakPrefilter {
		peakSum := 0.0
		for _, s := range series {
			peak := 0.0
			for _, v := range s {
				if v > peak {
					peak = v
				}
			}
			peakSum += peak
		}
		if peakSum <= capacity {
			return mux.Verdict{Pass: true, SkippedByPeakSum: true}
		}
	}
	v := mux.Verdict{}
	queueBits := 0.0
	for t := range series[0] {
		load := 0.0
		for _, s := range series {
			if t < len(s) {
				load += s[t]
			}
		}
		queueBits += (load - capacity) * binSec
		if queueBits < 0 {
			queueBits = 0
		}
		if d := queueBits / capacity; d > v.MaxQueueSec {
			v.MaxQueueSec = d
		}
	}
	if v.MaxQueueSec > maxQueueSec {
		v.FailedTemporal = true
		return v
	}
	pmfs := make([]mux.PMF, len(series))
	for i, s := range series {
		pmfs[i] = mux.FromSamples(s, capacity/levels, levels)
	}
	v.ExceedProb = mux.ConvolveAll(pmfs, levels, true).TailMass()
	if v.ExceedProb > cfg.Threshold() {
		v.FailedConvolution = true
		return v
	}
	v.Pass = true
	return v
}

// TestOptimizeMatchesReferenceAppraisal: on the reopt_loop cycles a
// controller makes the same decisions, round for round, as one wired to
// the reference appraisal — same verdicts, so same scale-ups, same LPs.
func TestOptimizeMatchesReferenceAppraisal(t *testing.T) {
	sets := 4
	if testing.Short() {
		sets = 2
	}
	convolved := 0
	for ni, name := range cycleNets {
		n := loadCycleNet(t, name)
		ctrl := NewController(n.g, Config{})
		ref := NewController(n.g, Config{})
		ref.checkLinks = ref.refCheckLinks
		for set := 0; set < sets; set++ {
			inputs := n.measurements(21, ni, set)
			got, err := ctrl.Optimize(inputs)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Optimize(inputs)
			if err != nil {
				t.Fatal(err)
			}
			if got.MuxRounds != want.MuxRounds || got.Stats != want.Stats || got.Appraisal != want.Appraisal ||
				!reflect.DeepEqual(got.Demands, want.Demands) || !reflect.DeepEqual(got.Multipliers, want.Multipliers) ||
				!reflect.DeepEqual(got.UnresolvedLinks, want.UnresolvedLinks) {
				t.Fatalf("%s set %d: rounds %d/%d stats %+v/%+v appraisal %+v/%+v unresolved %v/%v",
					name, set, got.MuxRounds, want.MuxRounds, got.Stats, want.Stats, got.Appraisal, want.Appraisal,
					got.UnresolvedLinks, want.UnresolvedLinks)
			}
			a := got.Appraisal
			if a.Links != a.SkippedByPeakSum+a.FailedTemporal+a.Convolved || a.FailedConvolution > a.Convolved || a.Links == 0 {
				t.Fatalf("%s set %d: appraisal counters do not add up: %+v", name, set, a)
			}
			convolved += a.Convolved
			t.Logf("%s set %d: %d rounds, %+v", name, set, got.MuxRounds, a)

			// The exported appraisal, on the cycle's final placement.
			gotV := ctrl.AppraisePlacement(got.Placement, inputs)
			wantV := ref.AppraisePlacement(got.Placement, inputs)
			if len(gotV) != len(wantV) {
				t.Fatalf("%s set %d: %d links appraised, reference %d", name, set, len(gotV), len(wantV))
			}
			for lid, w := range wantV {
				g := gotV[lid]
				if g.Pass != w.Pass || g.SkippedByPeakSum != w.SkippedByPeakSum || g.FailedTemporal != w.FailedTemporal ||
					g.FailedConvolution != w.FailedConvolution || g.MaxQueueSec != w.MaxQueueSec ||
					math.Abs(g.ExceedProb-w.ExceedProb) > 1e-9 {
					t.Fatalf("%s set %d link %d: %+v, reference %+v", name, set, lid, g, w)
				}
			}
		}
	}
	if convolved == 0 {
		t.Fatal("no link check reached the convolution; the comparison covered nothing")
	}
}

// TestOptimizeNeverWritesInputs: whole allocations alias the caller's
// series, so nothing downstream may write to one. Two controllers run on
// the same inputs at once (the race detector sees any write), and the
// inputs are compared with a deep copy afterwards.
func TestOptimizeNeverWritesInputs(t *testing.T) {
	n := loadCycleNet(t, "ring-16")
	inputs := n.measurements(3, 0, 0)
	before := make([]AggregateInput, len(inputs))
	for i, in := range inputs {
		before[i] = in
		before[i].Series = append([]float64(nil), in.Series...)
	}
	var wg sync.WaitGroup
	results := make([]*Result, 2)
	for w := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctrl := NewController(n.g, Config{})
			for cycle := 0; cycle < 2; cycle++ {
				r, err := ctrl.Optimize(inputs)
				if err != nil {
					t.Error(err)
					return
				}
				results[w] = r
				ctrl.AppraisePlacement(r.Placement, inputs)
			}
		}()
	}
	wg.Wait()
	if !reflect.DeepEqual(inputs, before) {
		t.Fatal("Optimize or AppraisePlacement wrote to its inputs")
	}
	if results[0] == nil || results[1] == nil || !reflect.DeepEqual(results[0].Demands, results[1].Demands) {
		t.Fatal("two controllers fed the same inputs disagree")
	}
}

// TestAppraisalCopiesNoSeries: appraising a placement whose allocations
// are all whole allocates less than one series' worth of bytes per link —
// the contributor lists, not the samples. (Shortest-path routing never
// splits; the links are roomy enough that every check stops at the
// prefilter, so the tests' own working buffers do not enter.)
func TestAppraisalCopiesNoSeries(t *testing.T) {
	n := loadCycleNet(t, "ring-16")
	inputs := n.measurements(3, 0, 0)
	for i := range inputs {
		s := append([]float64(nil), inputs[i].Series...)
		for k := range s {
			s[k] /= 100
		}
		inputs[i].Series = s
	}
	p, err := (routing.SP{}).Place(n.g, n.base)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := NewController(n.g, Config{})
	links := 0
	for _, v := range ctrl.AppraisePlacement(p, inputs) {
		if !v.SkippedByPeakSum {
			t.Fatalf("a link got past the prefilter: %+v", v)
		}
		links++
	}
	peaks := make([]float64, len(inputs))
	for i, in := range inputs {
		peaks[i] = mux.Peak(in.Series)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		var tally Appraisal
		ctrl.appraise(p, inputs, peaks, &tally)
	}
	runtime.ReadMemStats(&after)
	perLink := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(links)
	if seriesBytes := float64(8 * cycleBins); perLink >= seriesBytes {
		t.Fatalf("appraisal allocates %.0f B per link; a series is %.0f B", perLink, seriesBytes)
	}
	t.Logf("%.0f B per link over %d links and %d allocations", perLink, links, len(inputs))
}

// BenchmarkControlCycle is the ladder's rung for one control cycle
// (predict, LP, appraisal) on each reopt_loop net: one long-lived
// controller, the measurement sets cycled. Run it at a fixed -benchtime
// of at least 20x (scripts/bench_json.sh does).
func BenchmarkControlCycle(b *testing.B) {
	const sets = 6
	for ni, name := range cycleNets {
		b.Run(name, func(b *testing.B) {
			n := loadCycleNet(b, name)
			var inputs [sets][]AggregateInput
			for set := range inputs {
				inputs[set] = n.measurements(7, ni, set)
			}
			ctrl := NewController(n.g, Config{})
			if _, err := ctrl.Optimize(inputs[0]); err != nil { // warm the path cache
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var last *Result
			for i := 0; i < b.N; i++ {
				r, err := ctrl.Optimize(inputs[i%sets])
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			b.ReportMetric(float64(last.MuxRounds), "rounds")
			b.ReportMetric(float64(last.Appraisal.Convolved), "convolved")
		})
	}
}
