// Package geo provides great-circle geometry and fiber propagation-delay
// helpers used to derive realistic link latencies from PoP coordinates.
//
// The reproduction follows the paper's convention: link propagation delay is
// the great-circle distance between the endpoints divided by the speed of
// light in fiber (~2/3 c). Real fiber paths are longer than great circles,
// which is absorbed by the configurable SlackFactor.
package geo

import "math"

const (
	// EarthRadiusKm is the mean Earth radius in kilometers.
	EarthRadiusKm = 6371.0

	// FiberSpeedKmPerSec is the propagation speed of light in optical
	// fiber, roughly two thirds of c.
	FiberSpeedKmPerSec = 200000.0

	// DefaultSlack inflates great-circle distances to account for fiber
	// paths not following great circles exactly.
	DefaultSlack = 1.0
)

// Point is a geographic coordinate in degrees.
type Point struct {
	Lat float64
	Lon float64
}

// DistanceKm returns the great-circle (haversine) distance between two
// points in kilometers.
func DistanceKm(a, b Point) float64 {
	lat1 := a.Lat * math.Pi / 180
	lat2 := b.Lat * math.Pi / 180
	dLat := (b.Lat - a.Lat) * math.Pi / 180
	dLon := (b.Lon - a.Lon) * math.Pi / 180

	sinLat := math.Sin(dLat / 2)
	sinLon := math.Sin(dLon / 2)
	h := float64(sinLat*sinLat) + float64(math.Cos(lat1)*math.Cos(lat2)*sinLon*sinLon)
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusKm * math.Asin(math.Sqrt(h))
}

// PropagationDelay returns the one-way fiber propagation delay in seconds
// between two points, applying slack to the great-circle distance. A slack
// of zero is treated as DefaultSlack.
func PropagationDelay(a, b Point, slack float64) float64 {
	if slack <= 0 {
		slack = DefaultSlack
	}
	return DistanceKm(a, b) * slack / FiberSpeedKmPerSec
}

// DelayForDistanceKm converts a fiber path length in kilometers to a one-way
// propagation delay in seconds.
func DelayForDistanceKm(km float64) float64 {
	return km / FiberSpeedKmPerSec
}
