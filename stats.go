package lowlat

import "lowlat/internal/stats"

// Small statistical helpers exposed for consumers of experiment output:
// the CDFs the paper plots and the correlation behind Figure 10.

// CDF is an empirical cumulative distribution over float64 samples.
type CDF = stats.CDF

// NewCDF builds an empirical CDF from samples.
func NewCDF(samples []float64) *CDF { return stats.NewCDF(samples) }

// Correlation returns the Pearson correlation coefficient of two
// equal-length series.
func Correlation(xs, ys []float64) float64 { return stats.Correlation(xs, ys) }

// Link capacity tiers used throughout the synthetic zoo.
const (
	// Gbps is one gigabit per second in the library's bits/sec units.
	Gbps = 1e9
	// Cap10G is the 10 Gb/s backbone capacity tier of the synthetic zoo.
	Cap10G = 10 * Gbps
)
