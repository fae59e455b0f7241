package predict

import (
	"math"
	"testing"

	"lowlat/internal/stats"
	"lowlat/internal/trace"
)

func TestAlgorithm1Constant(t *testing.T) {
	// Constant traffic: prediction settles at 1.1x the level, so the
	// ratio measured/predicted is 1/1.1 = 0.91 (the paper's "if the
	// traffic were constant, all values would be 0.91").
	var p Predictor
	pred := 0.0
	for i := 0; i < 10; i++ {
		pred = p.Next(100)
	}
	if math.Abs(pred-110) > 1e-9 {
		t.Fatalf("steady prediction = %v, want 110", pred)
	}
	if r := 100 / pred; math.Abs(r-1/1.1) > 1e-9 {
		t.Fatalf("steady ratio = %v, want 0.909", r)
	}
}

func TestAlgorithm1TracksGrowthImmediately(t *testing.T) {
	var p Predictor
	p.Next(100)
	pred := p.Next(200) // jump: prediction follows at once
	if math.Abs(pred-220) > 1e-9 {
		t.Fatalf("prediction after jump = %v, want 220", pred)
	}
}

func TestAlgorithm1DecaysSlowly(t *testing.T) {
	var p Predictor
	p.Next(100) // prediction 110
	// Level halves; the prediction must decay at 2% per minute, not
	// follow the drop immediately.
	pred := p.Next(50)
	if math.Abs(pred-110*0.98) > 1e-9 {
		t.Fatalf("decayed prediction = %v, want %v", pred, 110*0.98)
	}
	// Decay continues until it meets the hedged estimate.
	for i := 0; i < 200; i++ {
		pred = p.Next(50)
	}
	if math.Abs(pred-55) > 1e-9 {
		t.Fatalf("long-run prediction = %v, want 55", pred)
	}
}

func TestAlgorithm1DecayFloor(t *testing.T) {
	// The prediction never decays below the hedged current estimate:
	// next = max(decayed, scaled).
	var p Predictor
	p.Next(100)            // 110
	pred := p.Next(109.99) // scaled = 120.989 > 110: grows
	if math.Abs(pred-120.989) > 1e-6 {
		t.Fatalf("prediction = %v, want 120.989", pred)
	}
}

func TestMinuteMeansAndStds(t *testing.T) {
	series := []float64{1, 3, 5, 7, 2, 2, 2, 2}
	means := MinuteMeans(series, 4)
	if len(means) != 2 || means[0] != 4 || means[1] != 2 {
		t.Fatalf("means = %v", means)
	}
	stds := MinuteStds(series, 4)
	if len(stds) != 2 || math.Abs(stds[0]-math.Sqrt(5)) > 1e-9 || stds[1] != 0 {
		t.Fatalf("stds = %v", stds)
	}
	if MinuteMeans(series, 0) != nil || MinuteStds(series, 0) != nil {
		t.Fatal("zero bins should return nil")
	}
}

func TestEvaluateTraceOnSyntheticTraffic(t *testing.T) {
	// The paper's Figure 9 headline: across traces, actual traffic
	// exceeds the predicted level only ~0.5% of the time, and never by
	// more than 10%.
	var ratios []float64
	for seed := int64(0); seed < 20; seed++ {
		tr := trace.Generate(trace.Config{Seed: seed, Minutes: 30, BinsPerSecond: 100})
		means := MinuteMeans(tr.Rates, tr.BinsPerMinute())
		ratios = append(ratios, EvaluateTrace(means)...)
	}
	if len(ratios) < 400 {
		t.Fatalf("too few samples: %d", len(ratios))
	}
	exceed := 0
	for _, r := range ratios {
		if r > 1 {
			exceed++
		}
		if r > 1.10 {
			t.Fatalf("actual exceeded prediction by more than 10%%: ratio %v", r)
		}
	}
	frac := float64(exceed) / float64(len(ratios))
	if frac > 0.02 {
		t.Fatalf("exceed fraction = %v, want under 2%% on CAIDA-like traces", frac)
	}
}

func TestEvaluateTraceDegradesOnWildTraffic(t *testing.T) {
	// Violating the predictability assumption (30% per-minute drift)
	// must visibly degrade Algorithm 1 — the knob exists precisely so
	// this failure mode is demonstrable.
	var ratios []float64
	for seed := int64(0); seed < 10; seed++ {
		tr := trace.Generate(trace.Config{
			Seed: seed, Minutes: 30, BinsPerSecond: 20, DriftPerMinute: 0.30,
		})
		means := MinuteMeans(tr.Rates, tr.BinsPerMinute())
		ratios = append(ratios, EvaluateTrace(means)...)
	}
	exceed := 0
	for _, r := range ratios {
		if r > 1 {
			exceed++
		}
	}
	if frac := float64(exceed) / float64(len(ratios)); frac < 0.05 {
		t.Fatalf("wild traffic should defeat the predictor, exceed fraction = %v", frac)
	}
}

func TestEvaluateTraceEdgeCases(t *testing.T) {
	if EvaluateTrace(nil) != nil || EvaluateTrace([]float64{1}) != nil {
		t.Fatal("short inputs should return nil")
	}
	rs := EvaluateTrace([]float64{100, 100, 100})
	if len(rs) != 2 {
		t.Fatalf("ratios = %v", rs)
	}
}

func TestSigmaPersistence(t *testing.T) {
	// Figure 10: sigma(t) vs sigma(t+1) clusters tightly around x=y,
	// i.e. strong positive correlation between consecutive minutes.
	var xs, ys []float64
	for seed := int64(0); seed < 8; seed++ {
		tr := trace.Generate(trace.Config{Seed: seed, Minutes: 20, BinsPerSecond: 50})
		stds := MinuteStds(tr.Rates, tr.BinsPerMinute())
		for i := 0; i+1 < len(stds); i++ {
			xs = append(xs, stds[i])
			ys = append(ys, stds[i+1])
		}
	}
	if corr := stats.Correlation(xs, ys); corr < 0.8 {
		t.Fatalf("sigma persistence correlation = %v, want > 0.8", corr)
	}
}
