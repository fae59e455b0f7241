package experiments

import (
	"fmt"

	"lowlat/internal/routing"
	"lowlat/internal/stats"
)

// stretchSchemes are the four contenders of Figures 16-18; headroom (when
// nonzero) applies to B4 and LDR — MinMax placements are scale-invariant,
// so reserving capacity does not change them.
func stretchSchemes(headroom float64) []routing.Scheme {
	return []routing.Scheme{
		routing.B4{Headroom: headroom},
		routing.LatencyOpt{Headroom: headroom}, // LDR's optimization stage
		routing.MinMax{},
		routing.MinMax{K: 10},
	}
}

// displayName maps schemes onto the figure legends via the shared
// name-string mapping in fig_dynamics.go.
func displayName(s routing.Scheme) string {
	return displayName2(s.Name())
}

// Fig16Variant is one sub-figure of Figure 16.
type Fig16Variant struct {
	Label string
	// PerScheme maps the display name to the max-stretch samples of the
	// (network, matrix) scenarios the scheme fit.
	PerScheme map[string][]float64
	// FitFraction is the share of scenarios each scheme fit — where the
	// paper's CDFs fail to reach 1.0.
	FitFraction map[string]float64
}

// Fig16Result reproduces Figure 16(a-c): CDFs of maximum path stretch by
// LLPD bucket and headroom.
type Fig16Result struct {
	Variants []Fig16Variant
}

// Fig16 runs the three variants: low-LLPD networks without headroom,
// high-LLPD without headroom, and high-LLPD with 10% headroom.
func Fig16(cfg Config) (*Fig16Result, error) {
	cfg = cfg.withDefaults()
	nets := cfg.networks()
	var low, high []Network
	for _, n := range nets {
		if n.LLPD < 0.5 {
			low = append(low, n)
		} else {
			high = append(high, n)
		}
	}
	ctx, r := cfg.ctx(), cfg.newRunner()
	res := &Fig16Result{}
	for _, v := range []struct {
		label    string
		nets     []Network
		headroom float64
	}{
		{"16(a) LLPD<0.5, no headroom", low, 0},
		{"16(b) LLPD>0.5, no headroom", high, 0},
		{"16(c) LLPD>0.5, 10% headroom", high, 0.10},
	} {
		schemes := stretchSchemes(v.headroom)
		grid, err := placeNets(ctx, r, cfg, v.nets, schemes)
		if err != nil {
			return nil, err
		}
		variant := Fig16Variant{
			Label:       v.label,
			PerScheme:   make(map[string][]float64),
			FitFraction: make(map[string]float64),
		}
		for si, scheme := range schemes {
			name := displayName(scheme)
			fit, total := 0, 0
			for _, cells := range grid[si] {
				for _, c := range cells {
					total++
					if c.Fits {
						fit++
						variant.PerScheme[name] = append(variant.PerScheme[name], c.MaxStretch)
					}
				}
			}
			if total > 0 {
				variant.FitFraction[name] = float64(fit) / float64(total)
			}
		}
		res.Variants = append(res.Variants, variant)
	}
	return res, nil
}

// Tables renders one table per variant.
func (r *Fig16Result) Tables() []*Table {
	order := []string{"B4", "LDR", "MinMaxK10", "MinMax"}
	var out []*Table
	for _, v := range r.Variants {
		t := &Table{
			Title:  "Figure " + v.Label + ": max path stretch",
			Header: []string{"scheme", "p50", "p75", "p90", "max(finite)", "fit fraction"},
			Notes: []string{
				"fit fraction < 1 is where the paper's CDFs fail to reach 1.0",
			},
		}
		for _, name := range order {
			c := stats.NewCDF(v.PerScheme[name])
			maxF := "-"
			if c.Len() > 0 {
				maxF = f3(c.Max())
			}
			t.Rows = append(t.Rows, []string{
				name, f3(c.Quantile(0.5)), f3(c.Quantile(0.75)), f3(c.Quantile(0.9)),
				maxF, f3(v.FitFraction[name]),
			})
		}
		out = append(out, t)
	}
	return out
}

// SweepResult holds one line per scheme for a parameter sweep (Figures 17
// and 18): the median max stretch at each sweep point.
type SweepResult struct {
	Param  string
	Points []float64
	// Median[scheme display name][point index]
	Median map[string][]float64
	// UnfitFraction[scheme][point index]: share of scenarios not fitting.
	UnfitFraction map[string][]float64
}

// Fig17 sweeps load (min-cut utilization 60-90%) over high-LLPD networks.
func Fig17(cfg Config) (*SweepResult, error) {
	cfg = cfg.withDefaults()
	return paramSweep(cfg, "load", []float64{0.60, 0.70, 0.80, 0.90},
		func(c *Config, v float64) { c.TargetMaxUtil = v })
}

// Fig18 sweeps traffic locality 0-2 over high-LLPD networks at load 0.7.
func Fig18(cfg Config) (*SweepResult, error) {
	cfg = cfg.withDefaults()
	cfg.TargetMaxUtil = 0.7
	return paramSweep(cfg, "locality", []float64{0, 0.5, 1, 1.5, 2},
		func(c *Config, v float64) { c.Locality = v })
}

func paramSweep(cfg Config, param string, points []float64, apply func(*Config, float64)) (*SweepResult, error) {
	var high []Network
	for _, n := range cfg.networks() {
		if n.LLPD > 0.5 {
			high = append(high, n)
		}
	}
	ctx, r := cfg.ctx(), cfg.newRunner()
	res := &SweepResult{
		Param:         param,
		Points:        points,
		Median:        make(map[string][]float64),
		UnfitFraction: make(map[string][]float64),
	}
	schemes := stretchSchemes(0)
	for _, pt := range points {
		ptCfg := cfg
		apply(&ptCfg, pt)
		grid, err := placeNets(ctx, r, ptCfg, high, schemes)
		if err != nil {
			return nil, err
		}
		for si, scheme := range schemes {
			var maxes []float64
			unfit := 0
			for _, cells := range grid[si] {
				for _, c := range cells {
					if !c.Fits {
						unfit++
					}
					maxes = append(maxes, c.MaxStretch)
				}
			}
			name := displayName(scheme)
			res.Median[name] = append(res.Median[name], stats.Median(maxes))
			frac := 0.0
			if len(maxes) > 0 {
				frac = float64(unfit) / float64(len(maxes))
			}
			res.UnfitFraction[name] = append(res.UnfitFraction[name], frac)
		}
	}
	return res, nil
}

// Table renders the sweep.
func (r *SweepResult) Table(title string, note string) *Table {
	header := []string{"scheme"}
	for _, p := range r.Points {
		header = append(header, fmt.Sprintf("%s=%.2f", r.Param, p))
	}
	t := &Table{Title: title, Header: header, Notes: []string{note}}
	for _, name := range []string{"B4", "LDR", "MinMax", "MinMaxK10"} {
		row := []string{name}
		for i := range r.Points {
			cell := f3(r.Median[name][i])
			if uf := r.UnfitFraction[name][i]; uf > 0 {
				cell += fmt.Sprintf("(%2.0f%% unfit)", uf*100)
			}
			row = append(row, cell)
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
