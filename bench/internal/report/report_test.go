package report

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lowlat/bench/internal/workload"
)

// TestBenchmarkJSONMatchesTables: BENCHMARK.json and the metric tables in
// internal/workload name the same metrics with the same units in the
// same order, and the file stays inside the contract's limits.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	root, err := FindRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := LoadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []MetricSpec, want []workload.Def) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the tables %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.Name || got[i].Unit != d.Unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the tables %s (%s)", kind, i, got[i].Name, got[i].Unit, d.Name, d.Unit)
			}
			if got[i].Better != "lower" && got[i].Better != "higher" {
				t.Errorf("%s: better=%q", d.Name, got[i].Better)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, workload.EndToEnd)
	check("per_layer", spec.PerLayer, workload.PerLayer)
	if len(spec.PerLayer) > 128 || len(spec.EndToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the contract's 16 and 128", len(spec.EndToEnd), len(spec.PerLayer))
	}
	var haveSetup bool
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		haveSetup = haveSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !haveSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(spec.Workloads) != len(workload.Names) {
		t.Fatalf("%d workloads declared, %d implemented", len(spec.Workloads), len(workload.Names))
	}
	for i, w := range spec.Workloads {
		if w.Name != workload.Names[i] {
			t.Errorf("workload %d: %s declared, %s implemented", i, w.Name, workload.Names[i])
		}
		if _, ok := workload.ByName(w.Name); !ok {
			t.Errorf("workload %s is declared and not implemented", w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is not one line of at most 200 characters", w.Name)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths %v; want [bench]", spec.Paths)
	}
}

func fileOf(values map[string][]float64) File {
	var f File
	for i := 0; i < 5; i++ {
		r := Run{Workload: "store_rw", Seed: int64(i), Line: Line{Correct: true, Attempted: 1, Metrics: map[string]workload.Metric{}}}
		for name, xs := range values {
			r.Metrics[name] = workload.Metric{Value: xs[i]}
		}
		f.Runs = append(f.Runs, r)
	}
	return f
}

func TestCompareVerdicts(t *testing.T) {
	spec := &Spec{EndToEnd: []MetricSpec{
		{Name: "lat_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10},
		{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
		{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.10},
		{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.10},
	}}
	dir := t.TempDir()
	write := func(name string, f File) string {
		b, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := write("a.json", fileOf(map[string][]float64{
		"lat_ms_p50":    {1.00, 1.01, 0.99, 1.00, 1.02},
		"ops_per_s":     {100, 101, 99, 100, 102},
		"cpu_ms_per_op": {1.0, 1.4, 0.7, 1.2, 0.8}, // spread far over the bound
		"peak_rss_mb":   {10, 13, 8, 12, 9},        // noisy too
	}))
	b := write("b.json", fileOf(map[string][]float64{
		"lat_ms_p50":    {1.20, 1.21, 1.19, 1.20, 1.22}, // 20% slower
		"ops_per_s":     {97, 98, 96, 97, 99},           // 3% lower: inside the bound
		"cpu_ms_per_op": {1.1, 1.3, 0.9, 1.0, 1.2},      // overlaps A: cannot tell
		"peak_rss_mb":   {5, 6, 5.5, 7, 6.5},            // every run below every run of A
	}))
	var out bytes.Buffer
	if code := Compare(&out, spec, a, b); code != 1 {
		t.Errorf("Compare returned %d; want 1 (a metric got worse)", code)
	}
	for metric, verdict := range map[string]string{
		"lat_ms_p50":    "WORSE",
		"ops_per_s":     "no worse",
		"cpu_ms_per_op": "unresolved",
		"peak_rss_mb":   "no worse",
	} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, " "+metric+" ") && strings.HasSuffix(line, verdict) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: want verdict %q in:\n%s", metric, verdict, out.String())
		}
	}
}
