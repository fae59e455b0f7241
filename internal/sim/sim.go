// Package sim is a slotted fluid simulator for traffic placements. It
// plays recorded (or synthetic) per-bin aggregate bitrates over the paths
// a routing scheme chose and tracks per-link queues, giving an end-to-end
// check of the paper's headroom story: placements that pass the §5
// multiplexing appraisal should keep transient queues under the bound
// (10 ms), while zero-headroom latency-optimal placements on busy links
// should not.
//
// The model is deliberately fluid, not per-packet: the paper's queueing
// argument is about 100 ms-scale aggregate rate variation, which a fluid
// carry-over queue captures exactly (it is the same computation as the
// controller's temporal-correlation test, generalized to every link and
// arbitrary bin widths, with optional finite buffers).
//
// Each link is an independent FIFO fed by the offered per-path rates;
// upstream bottlenecks do not reshape what downstream links see. This
// matches the modeling the paper's own appraisal makes (Figure 14's test B
// sums offered aggregate series per link) and errs conservative: offered
// load is an upper bound on shaped load, so simulated queues bound real
// ones from above — the safe direction when validating a queue budget.
package sim

import (
	"errors"
	"fmt"
	"math"

	"lowlat/internal/graph"
	"lowlat/internal/routing"
)

// Config parameterizes a simulation run.
type Config struct {
	// BinSec is the slot width in seconds (default 0.1, the
	// controller's measurement bin).
	BinSec float64
	// BufferSec bounds each link's queue to BufferSec x capacity bits;
	// beyond it, arriving fluid is dropped. Zero means unbounded queues
	// (loss-free, delay grows instead).
	BufferSec float64
}

func (c Config) withDefaults() Config {
	if c.BinSec <= 0 {
		c.BinSec = 0.1
	}
	return c
}

// LinkStats summarizes one link's behavior over the run.
type LinkStats struct {
	// MaxQueueSec is the worst queue drain time observed (queue bits /
	// capacity), the quantity the paper bounds at 10 ms.
	MaxQueueSec float64
	// MeanUtil is offered load (excluding drops) over capacity,
	// averaged across bins.
	MeanUtil float64
	// PeakUtil is the highest single-bin arrival rate over capacity
	// (can exceed 1; the excess is what queues).
	PeakUtil float64
	// DroppedBits is fluid lost to buffer overflow.
	DroppedBits float64
	// QueuedBins counts bins that ended with a non-empty queue.
	QueuedBins int
}

// Result is the outcome of a simulation run.
type Result struct {
	BinSec float64
	Bins   int
	// Links holds per-link statistics, indexed by LinkID.
	Links []LinkStats
	// MaxQueueSec is the worst LinkStats.MaxQueueSec, and WorstLink the
	// link that produced it (-1 when no queue ever formed).
	MaxQueueSec float64
	WorstLink   graph.LinkID
	// AggregateQueueSec is, per aggregate, the worst sum of queue drain
	// times along any of its paths in any bin — an upper bound on the
	// queueing delay its traffic saw.
	AggregateQueueSec []float64
	// OfferedBits and DroppedBits total the run.
	OfferedBits float64
	DroppedBits float64
}

// DropFraction is the fraction of offered fluid lost to finite buffers.
func (r *Result) DropFraction() float64 {
	if r.OfferedBits == 0 {
		return 0
	}
	return r.DroppedBits / r.OfferedBits
}

// Run plays the traffic series over the placement. traffic[i] holds
// aggregate i's bitrate (bits/sec) per bin; all series must share one
// length, which sets the run duration.
func Run(p *routing.Placement, traffic [][]float64, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if p == nil || p.G == nil || p.TM == nil {
		return nil, errors.New("sim: nil placement")
	}
	if len(traffic) != p.TM.Len() {
		return nil, fmt.Errorf("sim: %d traffic series for %d aggregates", len(traffic), p.TM.Len())
	}
	bins := -1
	for i, series := range traffic {
		if bins == -1 {
			bins = len(series)
		}
		if len(series) != bins {
			return nil, fmt.Errorf("sim: series %d has %d bins, want %d", i, len(series), bins)
		}
	}
	if bins <= 0 {
		return nil, errors.New("sim: empty traffic series")
	}

	g := p.G
	nLinks := g.NumLinks()

	// Precompute each (aggregate, path, link) share.
	type flowHop struct {
		agg  int
		link graph.LinkID
		frac float64
	}
	var hops []flowHop
	type pathRef struct {
		agg   int
		links []graph.LinkID
	}
	var paths []pathRef
	for i, allocs := range p.Allocs {
		for _, al := range allocs {
			if al.Fraction <= 0 {
				continue
			}
			paths = append(paths, pathRef{agg: i, links: al.Path.Links})
			for _, lid := range al.Path.Links {
				hops = append(hops, flowHop{agg: i, link: lid, frac: al.Fraction})
			}
		}
	}

	queue := make([]float64, nLinks)    // bits queued at each link
	arrivals := make([]float64, nLinks) // bits arriving this bin
	capBits := make([]float64, nLinks)  // serviceable bits per bin
	bufBits := make([]float64, nLinks)  // buffer bound (0 = unbounded)
	for i, l := range g.Links() {
		capBits[i] = l.Capacity * cfg.BinSec
		if cfg.BufferSec > 0 {
			bufBits[i] = l.Capacity * cfg.BufferSec
		}
	}

	res := &Result{
		BinSec:            cfg.BinSec,
		Bins:              bins,
		Links:             make([]LinkStats, nLinks),
		WorstLink:         -1,
		AggregateQueueSec: make([]float64, p.TM.Len()),
	}
	sumUtil := make([]float64, nLinks)
	queueSec := make([]float64, nLinks) // current drain time per link

	for bin := 0; bin < bins; bin++ {
		for i := range arrivals {
			arrivals[i] = 0
		}
		for _, h := range hops {
			arrivals[h.link] += float64(traffic[h.agg][bin] * h.frac * cfg.BinSec)
		}

		for lid := 0; lid < nLinks; lid++ {
			a := arrivals[lid]
			res.OfferedBits += a
			ls := &res.Links[lid]
			if util := a / capBits[lid]; util > ls.PeakUtil {
				ls.PeakUtil = util
			}
			sumUtil[lid] += a

			q := queue[lid] + a
			if bufBits[lid] > 0 && q > bufBits[lid]+capBits[lid] {
				dropped := q - (bufBits[lid] + capBits[lid])
				ls.DroppedBits += dropped
				res.DroppedBits += dropped
				q = bufBits[lid] + capBits[lid]
			}
			q -= capBits[lid]
			if q < 0 {
				q = 0
			}
			queue[lid] = q
			qs := q / (capBits[lid] / cfg.BinSec) // bits / (bits/sec) = sec
			queueSec[lid] = qs
			if qs > ls.MaxQueueSec {
				ls.MaxQueueSec = qs
			}
			if q > 0 {
				ls.QueuedBins++
			}
		}

		// Worst per-aggregate path queueing delay this bin.
		for _, pr := range paths {
			total := 0.0
			for _, lid := range pr.links {
				total += queueSec[lid]
			}
			if total > res.AggregateQueueSec[pr.agg] {
				res.AggregateQueueSec[pr.agg] = total
			}
		}
	}

	for lid := 0; lid < nLinks; lid++ {
		ls := &res.Links[lid]
		ls.MeanUtil = sumUtil[lid] / (capBits[lid] * float64(bins))
		if ls.MaxQueueSec > res.MaxQueueSec {
			res.MaxQueueSec = ls.MaxQueueSec
			res.WorstLink = graph.LinkID(lid)
		}
	}
	if math.IsNaN(res.MaxQueueSec) {
		return nil, errors.New("sim: NaN queue state (non-finite traffic input?)")
	}
	return res, nil
}
