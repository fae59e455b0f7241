// Package report is the benchmark's paperwork: BENCHMARK.json (the one
// place bounds live), the result line a single run prints, and the
// repeat / compare arithmetic over many runs.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"lowlat/bench/internal/workload"
)

// Spec mirrors BENCHMARK.json.
type Spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []MetricSpec `json:"end_to_end"`
	PerLayer []MetricSpec `json:"per_layer"`
}

// MetricSpec is one metric's declaration. Bound is the share of the
// parent's median by which it may get worse (end-to-end metrics only).
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// FindRoot walks up from dir to the directory holding BENCHMARK.json and
// the repository's go.mod.
func FindRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", fmt.Errorf("report: %w", err)
	}
	for {
		if exists(filepath.Join(dir, "BENCHMARK.json")) && exists(filepath.Join(dir, "go.mod")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("report: no directory holding BENCHMARK.json and go.mod at or above the working directory")
		}
		dir = parent
	}
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// LoadSpec reads root/BENCHMARK.json.
func LoadSpec(root string) (*Spec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("report: BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// Metric looks a declared metric up by name.
func (s *Spec) Metric(name string) (MetricSpec, bool) {
	for _, list := range [][]MetricSpec{s.EndToEnd, s.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return MetricSpec{}, false
}

// Line is the last line of a single run's standard output.
type Line struct {
	Correct   bool                       `json:"correct"`
	Attempted int64                      `json:"attempted"`
	Failed    int64                      `json:"failed"`
	Metrics   map[string]workload.Metric `json:"metrics"`
}

// LineOf builds the result line: exactly the mode's metrics.
func LineOf(res *workload.Result, names []workload.Def) Line {
	l := Line{
		Correct:   res.Failed == 0 && res.Attempted > 0,
		Attempted: res.Attempted,
		Failed:    res.Failed,
		Metrics:   make(map[string]workload.Metric, len(names)),
	}
	for _, d := range names {
		l.Metrics[d.Name] = res.Metrics[d.Name]
	}
	return l
}

// PrintHuman prints every metric of the mode by name with its unit and,
// for timings, the sample count it rests on.
func PrintHuman(w io.Writer, name string, res *workload.Result, names []workload.Def) {
	fmt.Fprintf(w, "workload %s: %d attempted, %d failed (fail_ratio %.6f)\n",
		name, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	for _, d := range names {
		m := res.Metrics[d.Name]
		if n, ok := res.Samples[d.Name]; ok {
			fmt.Fprintf(w, "  %-40s %14.6g %-6s (n=%d)\n", d.Name, m.Value, m.Unit, n)
		} else {
			fmt.Fprintf(w, "  %-40s %14.6g %s\n", d.Name, m.Value, m.Unit)
		}
	}
	for _, f := range res.Findings {
		fmt.Fprintf(w, "  finding: %s\n", f)
	}
}
