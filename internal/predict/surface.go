// Landscape interpolation: the predictive fast path over the exact
// placement solver. The paper's latency-vs-load study is smooth in load
// and locality by construction — matrices are calibrated to a target
// utilization and metrics vary continuously with the operating point —
// so the swept landscape doubles as training data for a cheap local
// model. An Index holds one metric Surface per (topology fingerprint,
// scheme) pair, each surface a scatter of ground-truth samples at
// (headroom, load, locality) coordinates taken straight from stored
// results. Predict answers a query point by inverse-distance-weighted
// interpolation over its nearest samples — microseconds against the
// solver's seconds — and refuses (so the caller falls back to the exact
// solver) whenever the point is outside the trained region, too far
// from any sample, under-supported, or the local surface is too rough
// to trust.
package predict

import (
	"math"
	"sort"
	"sync"

	"lowlat/internal/store"
)

// Coord is one query or sample point in operating-point space. All
// three axes are the knobs a sweep varies around one (topology, scheme)
// pair: the headroom dial, the calibrated load target, and the traffic
// locality ℓ.
type Coord struct {
	Headroom float64
	Load     float64
	Locality float64
}

// localityScale compresses the locality axis relative to load and
// headroom when measuring distance: load and headroom live in (0, 1]
// while swept localities span roughly [0, 2], so without the scale one
// locality step would dominate the neighborhoods.
const localityScale = 0.5

// dist is the scaled Euclidean distance between two coordinates.
func dist(a, b Coord) float64 {
	dh := a.Headroom - b.Headroom
	dl := a.Load - b.Load
	dc := (a.Locality - b.Locality) * localityScale
	return math.Sqrt(float64(dh*dh) + float64(dl*dl) + float64(dc*dc))
}

// SurfaceKey names one metric surface: one topology (by graph
// fingerprint, the same digest cell keys carry) under one configured
// scheme name. Headroom is deliberately not part of the key — it is an
// interpolation axis, so one surface covers a scheme's whole headroom
// dial.
type SurfaceKey struct {
	Graph  store.Digest
	Scheme string
}

// Sample is one ground-truth observation: the stored metrics of an
// exact solve at a coordinate, tagged with its matrix seed so repeat
// observations of the same cell replace instead of accumulate.
type Sample struct {
	At      Coord
	Seed    int64
	Metrics store.Metrics
}

// sampleID deduplicates observations: one slot per (coordinate, seed).
type sampleID struct {
	at   Coord
	seed int64
}

// Surface is the trained scatter for one (topology, scheme) pair plus
// its axis-aligned bounding box, the cheap "trained region" test.
type Surface struct {
	samples []Sample
	slot    map[sampleID]int
	min     Coord
	max     Coord
}

// An Index's confidence bound — the line between "answer in
// microseconds" and "fall back to the exact solver" — is these constants
// plus Options.MaxRough.
const (
	// minSamples is the fewest in-range neighbors a prediction may rest
	// on. An exact hit — a sample at the query's own coordinate and
	// seed — always answers, regardless.
	minSamples = 3
	// neighbors caps how many nearest samples interpolate.
	neighbors = 8
	// maxRadius bounds the distance to the nearest usable sample, in
	// scaled coordinate units. Beyond it the local surface has no
	// support and the solver must answer.
	maxRadius = 0.25
	// boundsMargin expands the trained bounding box before the
	// outside-the-region test, absorbing float noise at the edges.
	boundsMargin = 1e-9
)

// Options tunes an Index's confidence bound. The zero value uses the
// default noted on the field.
type Options struct {
	// MaxRough bounds the local roughness gauge: the weighted
	// coefficient of variation of the neighbors' stretch and max-util
	// (and the absolute spread of their congested fraction). A rougher
	// neighborhood than this falls back (default 0.25).
	MaxRough float64
}

func (o Options) withDefaults() Options {
	if o.MaxRough <= 0 {
		o.MaxRough = 0.25
	}
	return o
}

// Estimate is one prediction with its support, so callers (and
// counters) can see how solid the answer was.
type Estimate struct {
	// Metrics is the interpolated outcome.
	Metrics store.Metrics
	// Samples counts the neighbors the interpolation rested on.
	Samples int
	// Distance is the scaled distance to the nearest neighbor (0 for an
	// exact hit).
	Distance float64
	// Rough is the neighborhood's roughness gauge, in [0, MaxRough].
	Rough float64
	// Exact reports a sample at the query's own coordinate and seed —
	// the answer is a stored ground truth, not an interpolation.
	Exact bool
}

// Index is the trained model: surfaces keyed by (topology fingerprint,
// scheme), observed incrementally. Safe for concurrent use — serving
// reads interleave with sweep-completion retraining.
type Index struct {
	mu       sync.RWMutex
	opts     Options
	surfaces map[SurfaceKey]*Surface
	samples  int
}

// NewIndex builds an empty index with the given confidence options.
func NewIndex(opts Options) *Index {
	return &Index{opts: opts.withDefaults(), surfaces: make(map[SurfaceKey]*Surface)}
}

// Observe adds one ground-truth result to its surface, replacing any
// earlier observation of the same (coordinate, seed) — last write wins,
// matching the store. Results without a content key (predicted answers)
// are ignored: only exact solves train the model.
func (ix *Index) Observe(r store.Result) {
	if r.Key == (store.CellKey{}) {
		return
	}
	s := Sample{
		At:      Coord{Headroom: r.Meta.Headroom, Load: r.Meta.Load, Locality: r.Meta.Locality},
		Seed:    r.Meta.Seed,
		Metrics: r.Metrics,
	}
	key := SurfaceKey{Graph: r.Key.Graph, Scheme: r.Meta.Scheme}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	surf := ix.surfaces[key]
	if surf == nil {
		surf = &Surface{
			slot: make(map[sampleID]int),
			min:  s.At,
			max:  s.At,
		}
		ix.surfaces[key] = surf
	}
	id := sampleID{at: s.At, seed: s.Seed}
	if i, ok := surf.slot[id]; ok {
		surf.samples[i] = s
		return
	}
	surf.slot[id] = len(surf.samples)
	surf.samples = append(surf.samples, s)
	ix.samples++
	surf.min = Coord{
		Headroom: math.Min(surf.min.Headroom, s.At.Headroom),
		Load:     math.Min(surf.min.Load, s.At.Load),
		Locality: math.Min(surf.min.Locality, s.At.Locality),
	}
	surf.max = Coord{
		Headroom: math.Max(surf.max.Headroom, s.At.Headroom),
		Load:     math.Max(surf.max.Load, s.At.Load),
		Locality: math.Max(surf.max.Locality, s.At.Locality),
	}
}

// Train bulk-observes a result set — how an index comes up over a store
// a sweep already filled.
func (ix *Index) Train(results []store.Result) {
	for _, r := range results {
		ix.Observe(r)
	}
}

// Len reports the index's size: trained surfaces and total samples.
func (ix *Index) Len() (surfaces, samples int) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.surfaces), ix.samples
}

// neighbor pairs a sample with its distance for selection.
type neighbor struct {
	d float64
	s *Sample
}

// Predict interpolates the metrics at a query point on one surface. It
// reports ok=false — fall back to the exact solver — when the surface
// is unknown, the point leaves the trained bounding box, the nearest
// samples are too few or too far, or the neighborhood is too rough to
// trust a local average.
func (ix *Index) Predict(g store.Digest, scheme string, seed int64, at Coord) (Estimate, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	surf := ix.surfaces[SurfaceKey{Graph: g, Scheme: scheme}]
	if surf == nil {
		return Estimate{}, false
	}

	// An exact hit — this very cell was solved before — answers with the
	// stored ground truth no matter how sparse the rest of the surface
	// is. This is what makes a fully swept region answer exactly.
	if i, ok := surf.slot[sampleID{at: at, seed: seed}]; ok {
		return Estimate{Metrics: surf.samples[i].Metrics, Samples: 1, Exact: true}, true
	}

	m := boundsMargin
	if at.Headroom < surf.min.Headroom-m || at.Headroom > surf.max.Headroom+m ||
		at.Load < surf.min.Load-m || at.Load > surf.max.Load+m ||
		at.Locality < surf.min.Locality-m || at.Locality > surf.max.Locality+m {
		return Estimate{}, false // extrapolation: outside the trained region
	}

	// Nearest in-range neighbors. Surfaces hold at most a few thousand
	// samples (grids are small in the knob axes), so a linear scan with
	// a small sort stays well inside the microsecond budget.
	nbrs := make([]neighbor, 0, len(surf.samples))
	for i := range surf.samples {
		s := &surf.samples[i]
		if d := dist(at, s.At); d <= maxRadius {
			nbrs = append(nbrs, neighbor{d: d, s: s})
		}
	}
	if len(nbrs) < minSamples {
		return Estimate{}, false
	}
	sort.Slice(nbrs, func(a, b int) bool { return nbrs[a].d < nbrs[b].d })
	if len(nbrs) > neighbors {
		nbrs = nbrs[:neighbors]
	}

	// Inverse-distance weights with a small softening term: an
	// almost-coincident sample dominates, while same-coordinate samples
	// of other seeds share weight equally (their prediction is the seed
	// mean, which is the right answer for an unseen seed).
	const soften = 1e-4
	var wsum, congested, stretch, maxStretch, maxUtil, fits float64
	for _, n := range nbrs {
		w := 1 / (float64(n.d*n.d) + soften*soften)
		wsum += w
		congested += float64(w * n.s.Metrics.Congested)
		stretch += float64(w * n.s.Metrics.Stretch)
		maxStretch += float64(w * n.s.Metrics.MaxStretch)
		maxUtil += float64(w * n.s.Metrics.MaxUtil)
		if n.s.Metrics.Fits {
			fits += w
		}
	}
	congested /= wsum
	stretch /= wsum
	maxStretch /= wsum
	maxUtil /= wsum
	fitsFrac := fits / wsum

	// Roughness: how much the neighborhood disagrees with its own
	// weighted mean. Stretch and max-util use the coefficient of
	// variation (both are bounded away from zero); the congested
	// fraction uses its absolute spread (it is usually exactly zero). A
	// split fits vote is roughness too: the point sits on the
	// feasibility boundary, where interpolation lies.
	var vStretch, vUtil, vCong float64
	for _, n := range nbrs {
		w := 1 / (float64(n.d*n.d) + soften*soften)
		ds := n.s.Metrics.Stretch - stretch
		du := n.s.Metrics.MaxUtil - maxUtil
		dc := n.s.Metrics.Congested - congested
		vStretch += float64(w * ds * ds)
		vUtil += float64(w * du * du)
		vCong += float64(w * dc * dc)
	}
	rough := math.Sqrt(vStretch/wsum) / math.Max(stretch, 1e-9)
	if r := math.Sqrt(vUtil/wsum) / math.Max(maxUtil, 1e-9); r > rough {
		rough = r
	}
	if r := math.Sqrt(vCong / wsum); r > rough {
		rough = r
	}
	if rough > ix.opts.MaxRough {
		return Estimate{}, false
	}
	if fitsFrac > 0.3 && fitsFrac < 0.7 {
		return Estimate{}, false // feasibility boundary: let the solver decide
	}

	return Estimate{
		Metrics: store.Metrics{
			Congested:  congested,
			Stretch:    stretch,
			MaxStretch: maxStretch,
			MaxUtil:    maxUtil,
			Fits:       fitsFrac >= 0.5,
		},
		Samples:  len(nbrs),
		Distance: nbrs[0].d,
		Rough:    rough,
	}, true
}
