package trace

import (
	"math"
	"testing"

	"lowlat/internal/stats"
)

func TestGenerateShape(t *testing.T) {
	tr := Generate(Config{Seed: 1, Minutes: 5, BinsPerSecond: 100})
	if len(tr.Rates) != 5*60*100 {
		t.Fatalf("len = %d", len(tr.Rates))
	}
	if tr.BinsPerMinute() != 6000 {
		t.Fatalf("bins per minute = %d", tr.BinsPerMinute())
	}
	for i, v := range tr.Rates {
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("rate[%d] = %v", i, v)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Seed: 9, Minutes: 2, BinsPerSecond: 50})
	b := Generate(Config{Seed: 9, Minutes: 2, BinsPerSecond: 50})
	for i := range a.Rates {
		if a.Rates[i] != b.Rates[i] {
			t.Fatal("same seed must reproduce the trace")
		}
	}
	c := Generate(Config{Seed: 10, Minutes: 2, BinsPerSecond: 50})
	if a.Rates[0] == c.Rates[0] && a.Rates[100] == c.Rates[100] {
		t.Fatal("different seeds should differ")
	}
}

func TestMeanLevelRespected(t *testing.T) {
	tr := Generate(Config{Seed: 3, Minutes: 10, BinsPerSecond: 100, MeanBps: 2e9})
	mean, _ := stats.MeanStd(tr.Rates)
	if mean < 0.5e9 || mean > 8e9 {
		t.Fatalf("overall mean = %v, want within the clamp band around 2G", mean)
	}
}

func TestMinuteDriftIsSmall(t *testing.T) {
	// Consecutive minute means should rarely move more than 10%
	// (Figure 9 / the Google WAN observation in [22]).
	tr := Generate(Config{Seed: 5, Minutes: 40, BinsPerSecond: 50})
	per := tr.BinsPerMinute()
	var means []float64
	for s := 0; s+per <= len(tr.Rates); s += per {
		sum := 0.0
		for _, v := range tr.Rates[s : s+per] {
			sum += v
		}
		means = append(means, sum/float64(per))
	}
	big := 0
	for i := 1; i < len(means); i++ {
		if change := math.Abs(means[i]-means[i-1]) / means[i-1]; change > 0.10 {
			big++
		}
	}
	if frac := float64(big) / float64(len(means)-1); frac > 0.05 {
		t.Fatalf("minute means jump >10%% too often: %v", frac)
	}
}

func TestAggregateSeries(t *testing.T) {
	s := AggregateSeries(42, 600, 1e9, 0.3, 0.9)
	if len(s) != 600 {
		t.Fatalf("len = %d", len(s))
	}
	mean, std := stats.MeanStd(s)
	if mean < 0.3e9 || mean > 3e9 {
		t.Fatalf("mean = %v", mean)
	}
	if std <= 0 {
		t.Fatal("series should be variable")
	}
	s2 := AggregateSeries(42, 600, 1e9, 0.3, 0.9)
	for i := range s {
		if s[i] != s2[i] {
			t.Fatal("AggregateSeries must be deterministic per seed")
		}
	}
}

func TestBurstCorrClumpsBursts(t *testing.T) {
	// Higher AR coefficient means neighboring bins are more correlated.
	corrOf := func(burstCorr float64) float64 {
		tr := Generate(Config{Seed: 7, Minutes: 4, BinsPerSecond: 100, BurstCorr: burstCorr})
		a := tr.Rates[:len(tr.Rates)-1]
		b := tr.Rates[1:]
		return stats.Correlation(a, b)
	}
	low := corrOf(0.2)
	high := corrOf(0.95)
	if high <= low {
		t.Fatalf("AR(1) knob broken: corr(0.95)=%v <= corr(0.2)=%v", high, low)
	}
	if high < 0.8 {
		t.Fatalf("high burst correlation should clump: %v", high)
	}
}
