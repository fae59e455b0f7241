package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDistanceKnownPairs(t *testing.T) {
	london := Point{Lat: 51.5074, Lon: -0.1278}
	newYork := Point{Lat: 40.7128, Lon: -74.0060}
	paris := Point{Lat: 48.8566, Lon: 2.3522}

	cases := []struct {
		a, b   Point
		wantKm float64
		tolKm  float64
	}{
		{london, newYork, 5570, 30},
		{london, paris, 344, 10},
		{london, london, 0, 1e-9},
	}
	for _, c := range cases {
		got := DistanceKm(c.a, c.b)
		if math.Abs(got-c.wantKm) > c.tolKm {
			t.Errorf("DistanceKm(%v,%v) = %.1f, want %.1f±%.1f", c.a, c.b, got, c.wantKm, c.tolKm)
		}
	}
}

func TestDistanceSymmetric(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Point{Lat: math.Mod(lat1, 90), Lon: math.Mod(lon1, 180)}
		b := Point{Lat: math.Mod(lat2, 90), Lon: math.Mod(lon2, 180)}
		d1, d2 := DistanceKm(a, b), DistanceKm(b, a)
		return math.Abs(d1-d2) < 1e-6 && d1 >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceTriangleInequality(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2, lat3, lon3 float64) bool {
		a := Point{Lat: math.Mod(lat1, 90), Lon: math.Mod(lon1, 180)}
		b := Point{Lat: math.Mod(lat2, 90), Lon: math.Mod(lon2, 180)}
		c := Point{Lat: math.Mod(lat3, 90), Lon: math.Mod(lon3, 180)}
		return DistanceKm(a, c) <= DistanceKm(a, b)+DistanceKm(b, c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropagationDelay(t *testing.T) {
	a := Point{Lat: 0, Lon: 0}
	b := Point{Lat: 0, Lon: 10} // ~1113 km on the equator
	d := PropagationDelay(a, b, 1.0)
	wantMs := 1113.0 / FiberSpeedKmPerSec * 1000
	if math.Abs(d*1000-wantMs) > 0.1 {
		t.Fatalf("delay = %.3f ms, want %.3f ms", d*1000, wantMs)
	}
	// Slack scales linearly; slack<=0 falls back to the default.
	if got := PropagationDelay(a, b, 2.0); math.Abs(got-2*d) > 1e-12 {
		t.Fatalf("slack 2 delay = %v, want %v", got, 2*d)
	}
	if got := PropagationDelay(a, b, 0); math.Abs(got-d) > 1e-12 {
		t.Fatalf("slack 0 should use default: %v vs %v", got, d)
	}
}

// TestDelayForDistance pins the fiber speed behind every link delay:
// light in fiber covers 2000 km in 10 ms.
func TestDelayForDistance(t *testing.T) {
	a, b := Point{Lat: 0, Lon: 0}, Point{Lat: 0, Lon: 10}
	if got, want := PropagationDelay(a, b, 1), DistanceKm(a, b)*0.01/2000; math.Abs(got-want) > 1e-15 {
		t.Fatalf("delay = %v s, want %v s", got, want)
	}
}
