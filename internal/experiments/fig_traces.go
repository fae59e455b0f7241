package experiments

import (
	"context"
	"fmt"

	"lowlat/internal/engine"
	"lowlat/internal/predict"
	"lowlat/internal/stats"
	"lowlat/internal/trace"
)

// The synthetic trace set mirrors the paper's CAIDA dataset: 4 backbone
// links with 10 hour-long traces each (the paper had 40 per link; 10
// keeps runtime in check).
const (
	traceLinks    = 4
	tracesPerLink = 10
	traceMinutes  = 60
	// The paper measures per millisecond; 100 bins/sec keeps the same
	// minute-scale statistics at a tenth of the memory.
	traceBinsPerSecond = 100
)

// traceSet generates the trace set, in (link, trace) order.
func traceSet(ctx context.Context, seed int64, workers int) ([]trace.Trace, error) {
	cfgs := make([]trace.Config, 0, traceLinks*tracesPerLink)
	for l := 0; l < traceLinks; l++ {
		meanBps := 1e9 + 0.5e9*float64(l) // 1-2.5 Gb/s per link, like CAIDA's 1-3
		for t := 0; t < tracesPerLink; t++ {
			cfgs = append(cfgs, trace.Config{
				Seed:          seed + int64(l*1000+t),
				Minutes:       traceMinutes,
				BinsPerSecond: traceBinsPerSecond,
				MeanBps:       meanBps,
			})
		}
	}
	// Each hour-long trace is an independent, seeded generation; fan them
	// out and keep (link, trace) order.
	return engine.Map(ctx, workers, cfgs,
		func(_ context.Context, _ int, tc trace.Config) (trace.Trace, error) {
			return trace.Generate(tc), nil
		})
}

// Fig9Result reproduces Figure 9: the CDF of measured/predicted bitrate
// under Algorithm 1 across all traces.
type Fig9Result struct {
	Ratios []float64
	// ExceedFraction is the share of minutes whose traffic exceeded the
	// prediction (paper: 0.5%).
	ExceedFraction float64
	// MaxRatio is the worst overshoot (paper: never above 1.10).
	MaxRatio float64
}

// Fig9 runs Algorithm 1 over the synthetic trace set, one engine unit per
// trace.
func Fig9(cfg Config) (*Fig9Result, error) {
	traces, err := traceSet(cfg.ctx(), cfg.Seed, cfg.Workers)
	if err != nil {
		return nil, err
	}
	perTrace, err := engine.Map(cfg.ctx(), cfg.Workers, traces,
		func(_ context.Context, _ int, tr trace.Trace) ([]float64, error) {
			means := predict.MinuteMeans(tr.Rates, tr.BinsPerMinute())
			return predict.EvaluateTrace(means), nil
		})
	if err != nil {
		return nil, err
	}
	res := &Fig9Result{}
	for _, ratios := range perTrace {
		res.Ratios = append(res.Ratios, ratios...)
	}
	exceed := 0
	for _, r := range res.Ratios {
		if r > 1 {
			exceed++
		}
		if r > res.MaxRatio {
			res.MaxRatio = r
		}
	}
	if len(res.Ratios) > 0 {
		res.ExceedFraction = float64(exceed) / float64(len(res.Ratios))
	}
	return res, nil
}

// Tables renders the ratio CDF.
func (r *Fig9Result) Tables() []*Table {
	c := stats.NewCDF(r.Ratios)
	t := &Table{
		Title:  "Figure 9: measured/predicted bitrate under Algorithm 1",
		Header: []string{"quantile", "ratio"},
		Notes: []string{
			fmt.Sprintf("exceed fraction (ratio>1): %.4f (paper: ~0.005)", r.ExceedFraction),
			fmt.Sprintf("max ratio: %.3f (paper: never above 1.10)", r.MaxRatio),
			"constant traffic would pin the ratio at 1/1.1 = 0.909",
		},
	}
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.995, 1} {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("p%.1f", q*100), f3(c.Quantile(q)),
		})
	}
	return []*Table{t}
}

// Fig10Result reproduces Figure 10: the per-minute standard deviation of
// the traffic rate at minute t versus minute t+1.
type Fig10Result struct {
	X, Y []float64 // sigma(t), sigma(t+1) in bits/sec
	// Correlation quantifies the figure's "tightly clustered around the
	// x = y line".
	Correlation float64
	// MedianRelChange is the median of |sigma(t+1)-sigma(t)|/sigma(t).
	MedianRelChange float64
}

// Fig10 computes consecutive-minute sigma pairs over the trace set.
func Fig10(cfg Config) (*Fig10Result, error) {
	traces, err := traceSet(cfg.ctx(), cfg.Seed, cfg.Workers)
	if err != nil {
		return nil, err
	}
	perTrace, err := engine.Map(cfg.ctx(), cfg.Workers, traces,
		func(_ context.Context, _ int, tr trace.Trace) ([]float64, error) {
			return predict.MinuteStds(tr.Rates, tr.BinsPerMinute()), nil
		})
	if err != nil {
		return nil, err
	}
	res := &Fig10Result{}
	var relChanges []float64
	for _, stds := range perTrace {
		for i := 0; i+1 < len(stds); i++ {
			res.X = append(res.X, stds[i])
			res.Y = append(res.Y, stds[i+1])
			if stds[i] > 0 {
				d := stds[i+1] - stds[i]
				if d < 0 {
					d = -d
				}
				relChanges = append(relChanges, d/stds[i])
			}
		}
	}
	res.Correlation = stats.Correlation(res.X, res.Y)
	res.MedianRelChange = stats.Median(relChanges)
	return res, nil
}

// Tables renders summary statistics of the scatter.
func (r *Fig10Result) Tables() []*Table {
	cx := stats.NewCDF(r.X)
	t := &Table{
		Title:  "Figure 10: sigma(t) vs sigma(t+1) of per-ms traffic rate",
		Header: []string{"metric", "value"},
		Notes: []string{
			"high correlation == the scatter hugs x = y: variability is predictable",
		},
	}
	t.Rows = append(t.Rows,
		[]string{"samples", fmt.Sprint(len(r.X))},
		[]string{"correlation", f3(r.Correlation)},
		[]string{"median |rel change|", f3(r.MedianRelChange)},
		[]string{"sigma p10 (Gbps)", f3(cx.Quantile(0.1) / 1e9)},
		[]string{"sigma p50 (Gbps)", f3(cx.Quantile(0.5) / 1e9)},
		[]string{"sigma p90 (Gbps)", f3(cx.Quantile(0.9) / 1e9)},
	)
	return []*Table{t}
}
