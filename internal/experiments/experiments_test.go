package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// testSubset is a class-balanced slice of the zoo that keeps experiment
// tests fast while spanning the LLPD spectrum.
var testSubset = map[string]bool{
	"star-12": true, "tree-2x4": true, "wheel-10": true, "ring-16": true,
	"chord-ring-16-4": true, "ladder-6": true, "grid-4x4": true, "grid-5x5": true,
	"grid-diag-4x4": true, "mesh-20-dense": true, "mesh-16-sparse": true,
	"intercont-2x10-3": true, "clique-8": true, "gts-like": true,
	"cogent-like": true, "double-ring-8": true,
}

func testConfig() Config {
	return Config{
		TMsPerTopology: 2,
		Seed:           7,
		NetworkFilter:  func(n Network) bool { return testSubset[n.Name] },
	}
}

func TestNetworksFilter(t *testing.T) {
	cfg := testConfig()
	nets := cfg.withDefaults().networks()
	if len(nets) != len(testSubset) {
		t.Fatalf("filtered networks = %d, want %d", len(nets), len(testSubset))
	}
	hasHigh, hasLow := false, false
	for _, n := range nets {
		if n.LLPD > 0.5 {
			hasHigh = true
		}
		if n.LLPD < 0.1 {
			hasLow = true
		}
	}
	if !hasHigh || !hasLow {
		t.Fatal("test subset must span the LLPD spectrum")
	}
}

func TestFig1Shapes(t *testing.T) {
	r, err := Fig1(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Fig1Row{}
	for _, row := range r.Rows {
		byName[row.Name] = row
		if math.Abs(row.FracAPA70-row.LLPD) > 1e-9 {
			t.Fatalf("%s: APA>=0.7 fraction %v != LLPD %v", row.Name, row.FracAPA70, row.LLPD)
		}
		if row.FracAPA30 < row.FracAPA50 || row.FracAPA50 < row.FracAPA70 || row.FracAPA70 < row.FracAPA90 {
			t.Fatalf("%s: APA fractions must be monotone: %+v", row.Name, row)
		}
	}
	if byName["star-12"].LLPD != 0 || byName["tree-2x4"].LLPD != 0 {
		t.Fatal("stars and trees must have zero LLPD")
	}
	if byName["grid-5x5"].LLPD < 0.5 {
		t.Fatalf("grid LLPD = %v, want high", byName["grid-5x5"].LLPD)
	}
	if byName["grid-5x5"].LLPD <= byName["ring-16"].LLPD {
		t.Fatal("grids must beat rings on LLPD")
	}
}

func TestFig3SPConcentratesOnHighLLPD(t *testing.T) {
	r, err := Fig3(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(testSubset) {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Rows are LLPD-sorted; compare mean congestion of the top third to
	// the bottom third (the paper's Figure 3 upward trend).
	third := len(r.Rows) / 3
	lowSum, highSum := 0.0, 0.0
	for i := 0; i < third; i++ {
		lowSum += r.Rows[i].MedianCongested
		highSum += r.Rows[len(r.Rows)-1-i].MedianCongested
	}
	if highSum <= lowSum {
		t.Fatalf("SP congestion should rise with LLPD: low %v vs high %v", lowSum, highSum)
	}
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].LLPD < r.Rows[i-1].LLPD {
			t.Fatal("rows must be sorted by LLPD")
		}
	}
}

func TestFig4SchemeContrasts(t *testing.T) {
	r, err := Fig4(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	meanOf := func(scheme string, f func(CongestionRow) float64) float64 {
		rows := r.Schemes[scheme]
		sum := 0.0
		for _, row := range rows {
			sum += f(row)
		}
		return sum / float64(len(rows))
	}
	congested := func(c CongestionRow) float64 { return c.MedianCongested }
	stretch := func(c CongestionRow) float64 { return c.MedianStretch }

	// 4(a): the optimal scheme never congests.
	if got := meanOf("latopt", congested); got > 1e-9 {
		t.Fatalf("latopt congestion = %v, want 0", got)
	}
	// 4(c): MinMax never congests either, but stretches more than optimal.
	if got := meanOf("minmax", congested); got > 1e-9 {
		t.Fatalf("minmax congestion = %v, want 0", got)
	}
	if meanOf("minmax", stretch) <= meanOf("latopt", stretch) {
		t.Fatal("minmax must pay more latency than latency-optimal")
	}
	// 4(b): B4 congests somewhere (high-LLPD networks).
	if got := meanOf("b4", congested); got <= 0 {
		t.Fatal("B4 should congest at least one network in the subset")
	}
	// B4's congestion concentrates on high-LLPD networks.
	rows := r.Schemes["b4"]
	half := len(rows) / 2
	lowC, highC := 0.0, 0.0
	for i, row := range rows {
		if i < half {
			lowC += row.MedianCongested
		} else {
			highC += row.MedianCongested
		}
	}
	if highC < lowC {
		t.Fatalf("B4 congestion should concentrate at high LLPD: %v vs %v", lowC, highC)
	}
}

func TestFig7UtilizationShapes(t *testing.T) {
	r, err := Fig7(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.LatOptUtil) == 0 || len(r.MinMaxUtil) == 0 {
		t.Fatal("no utilizations")
	}
	maxOf := func(v []float64) float64 {
		m := 0.0
		for _, x := range v {
			if x > m {
				m = x
			}
		}
		return m
	}
	// Latency-optimal loads its busiest link to ~100%; MinMax keeps the
	// peak strictly lower.
	if m := maxOf(r.LatOptUtil); m < 0.9 {
		t.Fatalf("latopt peak utilization = %v, want near 1.0", m)
	}
	if maxOf(r.MinMaxUtil) >= maxOf(r.LatOptUtil) {
		t.Fatal("minmax peak must be below latency-optimal peak")
	}
	// Mean utilizations are similar (paper: 0.32 vs 0.30).
	if math.Abs(r.LatOptMean-r.MinMaxMean) > 0.15 {
		t.Fatalf("means too far apart: %v vs %v", r.LatOptMean, r.MinMaxMean)
	}
	// MinMax pays more latency on GTS (paper: 15% vs 4%).
	if r.MinMaxStretch <= r.LatOptStretch {
		t.Fatalf("minmax stretch %v should exceed latopt %v", r.MinMaxStretch, r.LatOptStretch)
	}
}

func TestFig8HeadroomMonotone(t *testing.T) {
	cfg := testConfig()
	r, err := Fig8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Names) == 0 {
		t.Fatal("no rows")
	}
	for i, name := range r.Names {
		for j := 1; j < len(r.Headrooms); j++ {
			if r.Stretch[i][j] < r.Stretch[i][j-1]-1e-6 {
				t.Fatalf("%s: stretch decreased with headroom: %v", name, r.Stretch[i])
			}
		}
	}
}

func TestFig9PredictionQuality(t *testing.T) {
	r, err := Fig9(Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Ratios) < 1000 {
		t.Fatalf("samples = %d", len(r.Ratios))
	}
	if r.ExceedFraction > 0.02 {
		t.Fatalf("exceed fraction = %v, want ~0.005", r.ExceedFraction)
	}
	if r.MaxRatio > 1.10+1e-9 {
		t.Fatalf("max ratio = %v, paper says never above 1.10", r.MaxRatio)
	}
}

func TestFig10SigmaPersistence(t *testing.T) {
	r, err := Fig10(Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.Correlation < 0.8 {
		t.Fatalf("sigma correlation = %v, want tight x=y clustering", r.Correlation)
	}
	if r.MedianRelChange > 0.2 {
		t.Fatalf("median relative sigma change = %v, too volatile", r.MedianRelChange)
	}
}

func TestFig15RuntimeOrdering(t *testing.T) {
	cfg := testConfig()
	r, err := Fig15(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Networks) == 0 {
		t.Fatal("no high-LLPD networks in subset")
	}
	if r.LinkSlowdownMedian < 2 {
		t.Fatalf("link-based should be much slower than LDR, got %vx", r.LinkSlowdownMedian)
	}
}

func TestFig16FitsAndStretch(t *testing.T) {
	r, err := Fig16(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Variants) != 3 {
		t.Fatalf("variants = %d", len(r.Variants))
	}
	for _, v := range r.Variants {
		// LDR and full MinMax always fit (the paper's guarantee).
		if v.FitFraction["LDR"] < 1 {
			t.Fatalf("%s: LDR fit fraction %v", v.Label, v.FitFraction["LDR"])
		}
		if v.FitFraction["MinMax"] < 1 {
			t.Fatalf("%s: MinMax fit fraction %v", v.Label, v.FitFraction["MinMax"])
		}
	}
	// On high-LLPD networks without headroom, B4 fails to fit somewhere.
	highNoHr := r.Variants[1]
	if highNoHr.FitFraction["B4"] >= 1 {
		t.Fatal("B4 should fail to fit some high-LLPD scenario")
	}
	// Headroom helps B4 fit more scenarios (paper: "B4 can fit traffic
	// in a wider range of scenarios").
	withHr := r.Variants[2]
	if withHr.FitFraction["B4"] < highNoHr.FitFraction["B4"] {
		t.Fatalf("headroom should not hurt B4's fit: %v -> %v",
			highNoHr.FitFraction["B4"], withHr.FitFraction["B4"])
	}
}

func TestFig17LoadTrend(t *testing.T) {
	cfg := testConfig()
	r, err := Fig17(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// At low load everything fits on short paths; at high load B4
	// degrades. Check LDR stays modest while B4's unfit share or stretch
	// grows with load.
	ldr := r.Median["LDR"]
	if ldr[0] > ldr[len(ldr)-1]+1e-6 && ldr[len(ldr)-1] > 3 {
		t.Fatalf("LDR stretch exploded with load: %v", ldr)
	}
	b4Worse := r.Median["B4"][len(r.Points)-1] >= r.Median["B4"][0]-1e-6
	b4Unfit := r.UnfitFraction["B4"][len(r.Points)-1] > r.UnfitFraction["B4"][0]
	if !b4Worse && !b4Unfit {
		t.Fatalf("B4 should degrade with load: medians %v, unfit %v",
			r.Median["B4"], r.UnfitFraction["B4"])
	}
}

func TestFig18LocalityTrend(t *testing.T) {
	cfg := testConfig()
	r, err := Fig18(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The robust paper claims on this substrate: LDR dominates and B4 is
	// the worst scheme at every locality; no scheme's stretch explodes
	// as traffic becomes more local; and the MinMax curves are "rather
	// level with locality greater than 1.5".
	for i := range r.Points {
		if r.Median["LDR"][i] > r.Median["MinMax"][i]+1e-9 {
			t.Fatalf("point %d: LDR %v worse than MinMax %v",
				i, r.Median["LDR"][i], r.Median["MinMax"][i])
		}
		if r.Median["B4"][i] < r.Median["LDR"][i]-1e-9 {
			t.Fatalf("point %d: B4 %v better than LDR %v",
				i, r.Median["B4"][i], r.Median["LDR"][i])
		}
	}
	for _, name := range []string{"B4", "LDR", "MinMax", "MinMaxK10"} {
		first := r.Median[name][0]
		last := r.Median[name][len(r.Points)-1]
		if last > first*2+0.05 {
			t.Fatalf("%s: stretch exploded across localities: %v -> %v", name, first, last)
		}
	}
	n := len(r.Points)
	for _, name := range []string{"MinMax", "MinMaxK10"} {
		if d := math.Abs(r.Median[name][n-1] - r.Median[name][n-2]); d > 0.5 {
			t.Fatalf("%s: not level at high locality: %v", name, r.Median[name])
		}
	}
}

func TestFig19GoogleDatapoint(t *testing.T) {
	r, err := Fig19(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The Google-like network has the greatest LLPD of all studied
	// topologies and cannot be routed with shortest paths alone.
	for _, row := range r.Rows {
		if row.LLPD >= r.GoogleRow.LLPD {
			t.Fatalf("%s LLPD %v >= google %v", row.Name, row.LLPD, r.GoogleRow.LLPD)
		}
	}
	if r.GoogleRow.MedianCongested <= 0 {
		t.Fatal("google-like must congest under SP routing")
	}
	if math.Abs(r.GoogleRow.LLPD-0.875) > 0.05 {
		t.Fatalf("google-like LLPD = %v, want ~0.875", r.GoogleRow.LLPD)
	}
}

func TestFig20GrowthHelpsLDR(t *testing.T) {
	cfg := testConfig()
	r, err := Fig20(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) == 0 {
		t.Fatal("no growth rows")
	}
	for _, row := range r.Rows {
		if row.LLPDAfter < row.LLPDBefore-1e-9 {
			t.Fatalf("%s: growth reduced LLPD %v -> %v", row.Network, row.LLPDBefore, row.LLPDAfter)
		}
		if row.Scheme == "LDR" && row.AfterMedian > row.BeforeMedian*(1+1e-4) {
			t.Fatalf("%s: LDR median stretch worsened after growth: %v -> %v",
				row.Network, row.BeforeMedian, row.AfterMedian)
		}
	}
}

// digestsFile pins every registered figure's output on the registry
// slice by SHA-256. A change that moves a digest moved a figure: say
// which one and why, and rewrite the file with UPDATE_GOLDEN=1.
const digestsFile = "testdata/digests.json"

func TestRegistryRunsEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	names := Names()
	if len(names) != 14 {
		t.Fatalf("experiments = %v", names)
	}
	var buf bytes.Buffer
	// The per-figure tests above assert each figure's claims on the full
	// testSubset; running all 14 drivers again on that subset was the
	// package's single biggest time sink and pushed the suite against go
	// test's 10-minute default timeout on the 1-CPU CI box, so this test
	// runs a minimal class-spanning slice and pins its output by digest.
	registrySubset := map[string]bool{
		"star-12": true, "grid-4x4": true, "gts-like": true, "intercont-2x10-3": true,
	}
	cfg := testConfig()
	cfg.TMsPerTopology = 1
	cfg.NetworkFilter = func(n Network) bool { return registrySubset[n.Name] }
	got := make(map[string]string, len(names))
	for _, name := range names {
		buf.Reset()
		if err := Run(name, cfg, &buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out := buf.String()
		if name == "fig15" {
			out = fig15Stable(out)
		}
		sum := sha256.Sum256([]byte(out))
		got[name] = hex.EncodeToString(sum[:])
	}
	if err := Run("nope", cfg, &buf); err == nil {
		t.Fatal("unknown experiment should error")
	}

	if os.Getenv("UPDATE_GOLDEN") == "1" {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestsFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(digestsFile)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", digestsFile, err)
	}
	for _, name := range names {
		if got[name] != want[name] {
			t.Errorf("%s moved: digest %s, %s records %q", name, got[name], digestsFile, want[name])
		}
	}
	if len(want) != len(names) {
		t.Errorf("%s records %d figures, the registry has %d", digestsFile, len(want), len(names))
	}
}

// fig15Stable projects fig15's rendered table onto the part that is not
// wall-clock time: the title, the header and the network column. Every
// data cell and the notes are timings, and the column padding follows
// their widths, so whitespace runs collapse and the rule line is dropped.
func fig15Stable(out string) string {
	var sb strings.Builder
	rows := false
	for i, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		switch {
		case i < 2:
			sb.WriteString(strings.Join(fields, " "))
		case strings.HasPrefix(line, "---"):
			rows = true
			continue
		case !rows || len(fields) == 0 || fields[0] == "note:":
			rows = false
			continue
		default:
			sb.WriteString(fields[0])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func TestTableWriter(t *testing.T) {
	tab := &Table{
		Title:  "t",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"note1"},
	}
	var buf bytes.Buffer
	if err := tab.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== t ==", "a", "bb", "333", "note: note1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in output:\n%s", want, out)
		}
	}
}
