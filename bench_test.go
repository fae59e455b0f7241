package lowlat

// One benchmark per results figure in the paper, each running the
// corresponding experiment driver end to end on a class-balanced slice of
// the zoo, plus ablation benches for the repository's main design
// choices. Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// The full-zoo versions of the figures are produced by
// `go run ./cmd/lowlat exp -name all`.

import (
	"io"
	"testing"

	"lowlat/internal/core"
	"lowlat/internal/experiments"
	"lowlat/internal/graph"
	"lowlat/internal/metrics"
	"lowlat/internal/mux"
	"lowlat/internal/routing"
	"lowlat/internal/tmgen"
	"lowlat/internal/topo"
	"lowlat/internal/trace"
)

// benchSubset keeps figure benches bounded while spanning the LLPD
// spectrum (two low, two mid, four high).
var benchSubset = map[string]bool{
	"tree-2x4": true, "wheel-10": true, "ring-16": true, "chord-ring-16-4": true,
	"grid-4x4": true, "mesh-20-dense": true, "gts-like": true, "clique-8": true,
}

func benchConfig() experiments.Config {
	return experiments.Config{
		TMsPerTopology: 2,
		Seed:           1,
		// The per-figure benches stay sequential so their numbers remain
		// comparable across machines; the engine's speedup is measured by
		// BenchmarkLandscapeSequential / BenchmarkLandscapeParallel below.
		Workers:       1,
		NetworkFilter: func(n experiments.Network) bool { return benchSubset[n.Name] },
	}
}

func benchFig(b *testing.B, name string) {
	b.Helper()
	cfg := benchConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(name, cfg, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig01APACDF(b *testing.B)           { benchFig(b, "fig1") }
func BenchmarkFig03SPCongestion(b *testing.B)     { benchFig(b, "fig3") }
func BenchmarkFig04Schemes(b *testing.B)          { benchFig(b, "fig4") }
func BenchmarkFig07Utilization(b *testing.B)      { benchFig(b, "fig7") }
func BenchmarkFig08Headroom(b *testing.B)         { benchFig(b, "fig8") }
func BenchmarkFig09Prediction(b *testing.B)       { benchFig(b, "fig9") }
func BenchmarkFig10SigmaPersistence(b *testing.B) { benchFig(b, "fig10") }
func BenchmarkFig15Runtime(b *testing.B)          { benchFig(b, "fig15") }
func BenchmarkFig16MaxStretch(b *testing.B)       { benchFig(b, "fig16") }
func BenchmarkFig17Load(b *testing.B)             { benchFig(b, "fig17") }
func BenchmarkFig18Locality(b *testing.B)         { benchFig(b, "fig18") }
func BenchmarkFig19Google(b *testing.B)           { benchFig(b, "fig19") }
func BenchmarkFig20Growth(b *testing.B)           { benchFig(b, "fig20") }

// --- engine benches ------------------------------------------------------

// benchLandscape runs the Figure 4 landscape (four schemes x the bench
// subset x two matrices) through the engine at the given pool width. The
// Sequential/Parallel pair measures the scenario engine's speedup; matrix
// generation is pre-seeded outside the timer so the benches measure
// placement fan-out, not calibration caching.
func benchLandscape(b *testing.B, workers int) {
	b.Helper()
	cfg := benchConfig()
	cfg.Workers = workers
	// Warm the matrix cache so both variants place identical, pre-built
	// matrices.
	if err := experiments.Run("fig3", cfg, io.Discard); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := experiments.Run("fig4", cfg, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLandscapeSequential is the pre-engine baseline: one worker.
func BenchmarkLandscapeSequential(b *testing.B) { benchLandscape(b, 1) }

// BenchmarkLandscapeParallel fans the same landscape out across the CPUs.
func BenchmarkLandscapeParallel(b *testing.B) { benchLandscape(b, 0) }

// --- ablation benches ----------------------------------------------------

// gtsMatrix generates one calibrated GTS-like matrix for the ablations.
func gtsMatrix(b *testing.B) (*topoGraph, *tmMatrix) {
	b.Helper()
	g := topo.GTSLike()
	res, err := tmgen.Generate(g, tmgen.Config{Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	return &topoGraph{g}, &tmMatrix{res}
}

type topoGraph struct{ g *graph.Graph }
type tmMatrix struct{ r *tmgen.Result }

// BenchmarkAblationPathBasedLP measures the paper's preferred Figure 13
// path-based solver on GTS-like traffic.
func BenchmarkAblationPathBasedLP(b *testing.B) {
	tg, tm := gtsMatrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (routing.LatencyOpt{}).Place(tg.g, tm.r.Matrix); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationLinkBasedLP measures the multi-commodity alternative the
// paper rejects (Figure 15's "about two orders of magnitude slower").
func BenchmarkAblationLinkBasedLP(b *testing.B) {
	tg, tm := gtsMatrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := routing.LinkBasedLatencyOpt(tg.g, tm.r.Matrix, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationKSPCacheCold / Warm isolate the k-shortest-path caching
// that Figure 15's cold-cache curve measures.
func BenchmarkAblationKSPCacheCold(b *testing.B) {
	tg, tm := gtsMatrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache := routing.NewPathCache(tg.g)
		if _, err := (routing.LatencyOpt{Cache: cache}).Place(tg.g, tm.r.Matrix); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationKSPCacheWarm(b *testing.B) {
	tg, tm := gtsMatrix(b)
	cache := routing.NewPathCache(tg.g)
	if _, err := (routing.LatencyOpt{Cache: cache}).Place(tg.g, tm.r.Matrix); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (routing.LatencyOpt{Cache: cache}).Place(tg.g, tm.r.Matrix); err != nil {
			b.Fatal(err)
		}
	}
}

// muxSeries builds a busy link's worth of aggregate series.
func muxSeries(n, bins int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = trace.AggregateSeries(int64(i), bins, 0.5e9, 0.3, 0.8)
	}
	return out
}

// BenchmarkAblationPeakPrefilterOn / Off measure the paper's first
// optimization in §5: links whose peak sum fits skip both tests.
func BenchmarkAblationPeakPrefilterOn(b *testing.B) {
	series := muxSeries(10, 600) // 10 x ~0.65G peak << 10G: prefilter fires
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mux.CheckLink(series, 100e9, mux.CheckConfig{})
	}
}

func BenchmarkAblationPeakPrefilterOff(b *testing.B) {
	series := muxSeries(10, 600)
	cfg := mux.CheckConfig{DisablePeakPrefilter: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mux.CheckLink(series, 100e9, cfg)
	}
}

// ldrInputs builds controller inputs for the scale-direction ablation.
func ldrInputs() (*graph.Graph, []core.AggregateInput) {
	b := graph.NewBuilder("abl")
	s1 := b.AddNode("s1", struct{ Lat, Lon float64 }{})
	s2 := b.AddNode("s2", struct{ Lat, Lon float64 }{})
	h := b.AddNode("h", struct{ Lat, Lon float64 }{})
	x := b.AddNode("x", struct{ Lat, Lon float64 }{})
	z := b.AddNode("z", struct{ Lat, Lon float64 }{})
	b.AddBiLink(s1, h, 100e9, 0.001)
	b.AddBiLink(s2, h, 100e9, 0.001)
	b.AddBiLink(h, z, 10e9, 0.010)
	b.AddBiLink(h, x, 10e9, 0.007)
	b.AddBiLink(x, z, 10e9, 0.007)
	g := b.MustBuild()
	smooth := make([]float64, 600)
	bursty := make([]float64, 600)
	for i := range smooth {
		smooth[i] = 4.5e9
		bursty[i] = 3e9
		if i%10 < 3 {
			bursty[i] = 8e9
		}
	}
	return g, []core.AggregateInput{
		{Src: s1, Dst: z, Flows: 10, Series: smooth},
		{Src: s2, Dst: z, Flows: 10, Series: bursty},
	}
}

// BenchmarkAblationScaleUpAggregates / ScaleDownLinks compare the paper's
// headroom mechanism (scale up badly-multiplexing aggregates) against the
// alternative it rejects (shrink the failing link).
func BenchmarkAblationScaleUpAggregates(b *testing.B) {
	g, inputs := ldrInputs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := core.NewController(g, core.Config{})
		if _, err := c.Optimize(inputs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationScaleDownLinks(b *testing.B) {
	g, inputs := ldrInputs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := core.NewController(g, core.Config{ScaleLinksInstead: true})
		if _, err := c.Optimize(inputs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLDRFullCycleGTS times a complete LDR control cycle (predict +
// optimize + appraise) on the GTS-like network — the end-to-end number
// behind the feasibility claim in §5.
func BenchmarkLDRFullCycleGTS(b *testing.B) {
	g := topo.GTSLike()
	res, err := tmgen.Generate(g, tmgen.Config{Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	inputs := make([]core.AggregateInput, res.Matrix.Len())
	for i, a := range res.Matrix.Aggregates {
		inputs[i] = core.AggregateInput{
			Src: a.Src, Dst: a.Dst, Flows: a.Flows,
			Series: trace.AggregateSeries(int64(i), 600, a.Volume, 0.15, 0.7),
		}
	}
	ctrl := core.NewController(g, core.Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctrl.Optimize(inputs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkZooLLPD measures the LLPD metric across a zoo slice (the cost
// behind Figure 1).
func BenchmarkZooLLPD(b *testing.B) {
	nets := []*graph.Graph{
		topo.Grid("g55", 5, 5, 650, topo.Cap10G),
		topo.Ring("r16", 16, 1400, topo.Cap10G),
		topo.GTSLike(),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range nets {
			sinkLLPD += metrics.LLPD(g, metrics.APAConfig{})
		}
	}
}

var sinkLLPD float64
