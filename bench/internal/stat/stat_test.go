package stat

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileRule(t *testing.T) {
	if _, ok := Percentile(seq(999), 0.99); ok {
		t.Error("p99 reported from 999 samples: fewer than ten lie beyond it")
	}
	if v, ok := Percentile(seq(1000), 0.99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	if _, ok := Percentile(seq(99), 0.90); ok {
		t.Error("p90 reported from 99 samples")
	}
	if v, ok := Percentile(seq(100), 0.90); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	if Supported(150, 0.99) || !Supported(150, 0.90) || !Supported(20, 0.5) || Supported(19, 0.5) {
		t.Error("Supported: 150 samples carry a p90 and no p99; a median needs 20")
	}
	if m := Median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("Median = %v; want 3", m)
	}
}

// TestQuartilesMatchPython pins Quartiles to the values Python's
// statistics.quantiles(values, n=4) returns, since the acceptance driver
// computes spreads with it.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 9, 3}, 3, 9, 10},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{4, 8, 15, 16, 23, 42, 7}, 7, 15, 23},
	}
	for _, c := range cases {
		q1, q2, q3 := Quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("Quartiles(%v) = %v %v %v; want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if s := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("Spread(1..10) = %v; want 1", s)
	}
	if s := Spread([]float64{0, 0, 0}); s != 0 {
		t.Errorf("Spread of zeros = %v; want 0", s)
	}
}
