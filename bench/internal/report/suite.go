package report

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"lowlat/bench/internal/stat"
	"lowlat/bench/internal/workload"
)

// Suite runs every workload, each in a child process of its own (a clean
// heap per workload, and a peak RSS that is that workload's alone).
type Suite struct {
	Spec    *Spec
	Root    string
	Seed    int64
	Seconds float64
	// Trace adds the traced run of each workload after its untraced one.
	Trace bool
	// Repeat runs the suite that many times, run i with seed Seed+i — a
	// different seed each time, as the acceptance check does it.
	Repeat int
	// Out, when set, receives every run's result as JSON for Compare.
	Out string
}

// Env is where a set of runs was taken.
type Env struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
}

// Run is one workload run inside a File.
type Run struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Line
}

// File is what --out writes and --compare reads.
type File struct {
	Env     Env     `json:"env"`
	Seconds float64 `json:"seconds"`
	Runs    []Run   `json:"runs"`
}

func currentEnv(ctx context.Context, root string) Env {
	e := Env{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Commit: "unknown"}
	cmd := exec.CommandContext(ctx, "git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}

// Run executes the suite and prints every metric by name; it returns the
// process exit code: non-zero when any run failed its checks.
func (s Suite) Run(ctx context.Context, w io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(w, "lowlat-bench:", err)
		return 1
	}
	file := File{Env: currentEnv(ctx, s.Root), Seconds: s.Seconds}
	fmt.Fprintf(w, "lowlat-bench: %s, nproc %d, GOMAXPROCS %d, commit %s\n", file.Env.GoVersion, file.Env.NumCPU, file.Env.GOMAXPROCS, file.Env.Commit)
	fmt.Fprintf(w, "lowlat-bench: %d run(s) of %d workloads, %.0f s each; all traffic crosses the host loopback, never a real link\n",
		s.Repeat, len(workload.Names), s.Seconds)
	code := 0
	modes := []bool{false}
	if s.Trace {
		modes = append(modes, true)
	}
	for i := 0; i < s.Repeat; i++ {
		seed := s.Seed + int64(i)
		for _, name := range workload.Names {
			for _, trace := range modes {
				line, out, err := runChild(ctx, self, name, seed, s.Seconds, trace)
				if s.Repeat == 1 {
					w.Write(out)
				}
				if err != nil {
					fmt.Fprintf(w, "lowlat-bench: %s (seed %d, trace %v): %v\n", name, seed, trace, err)
					code = 1
					continue
				}
				if !line.Correct {
					code = 1
				}
				file.Runs = append(file.Runs, Run{Workload: name, Seed: seed, Trace: trace, Line: line})
				if s.Repeat > 1 {
					fmt.Fprintf(w, "  run %d %-14s trace=%v: correct=%v attempted=%d failed=%d\n", i, name, trace, line.Correct, line.Attempted, line.Failed)
				}
			}
		}
	}
	if s.Repeat > 1 {
		summarise(w, s.Spec, file)
	}
	if s.Out != "" {
		b, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(s.Out, b, 0o644)
		}
		if err != nil {
			fmt.Fprintln(w, "lowlat-bench: write", s.Out+":", err)
			return 1
		}
	}
	return code
}

// runChild runs one workload in a child process and parses the result
// line, the last line of its standard output. The child's diagnostics
// pass straight through to this process's standard error.
func runChild(ctx context.Context, self, name string, seed int64, seconds float64, trace bool) (Line, []byte, error) {
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.CommandContext(ctx, self, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", t)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var line Line
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		if runErr != nil {
			return line, out, runErr
		}
		return line, out, fmt.Errorf("no result line: %w", err)
	}
	// The human-readable part, without the JSON line.
	human := append(bytes.Join(lines[:len(lines)-1], []byte("\n")), '\n')
	return line, human, nil
}

// series collects, per (workload, trace, metric), the values of every run.
func series(f File) map[string][]float64 {
	out := make(map[string][]float64)
	for _, r := range f.Runs {
		for name, m := range r.Metrics {
			k := seriesKey(r.Workload, r.Trace, name)
			out[k] = append(out[k], m.Value)
		}
	}
	return out
}

func seriesKey(workload string, trace bool, metric string) string {
	return fmt.Sprintf("%s\x00%v\x00%s", workload, trace, metric)
}

// summarise prints each metric x workload's median, quartiles and spread
// against its bound.
func summarise(w io.Writer, spec *Spec, f File) {
	ser := series(f)
	for _, trace := range []bool{false, true} {
		defs := workload.EndToEnd
		if trace {
			defs = workload.PerLayer
		}
		for _, name := range workload.Names {
			printed := false
			for _, d := range defs {
				xs := ser[seriesKey(name, trace, d.Name)]
				if len(xs) == 0 || (trace && allZero(xs)) {
					continue
				}
				if !printed {
					fmt.Fprintf(w, "\n%s (trace=%v, %d runs)\n", name, trace, len(xs))
					printed = true
				}
				q1, q2, q3 := stat.Quartiles(xs)
				fmt.Fprintf(w, "  %-38s median %12.6g %-6s q1 %12.6g q3 %12.6g spread %6.2f%%", d.Name, q2, d.Unit, q1, q3, 100*stat.Spread(xs))
				if m, ok := spec.Metric(d.Name); ok && m.Bound > 0 {
					verdict := "ok"
					switch sp := stat.Spread(xs); {
					case d.Name == "setup_s":
						verdict = "not checked"
					case sp > m.Bound:
						verdict = "WIDER THAN BOUND"
					case sp > m.Bound/3:
						verdict = "over a third of bound"
					}
					fmt.Fprintf(w, "  bound %4.0f%%  %s", 100*m.Bound, verdict)
				}
				fmt.Fprintln(w)
			}
		}
	}
}

func allZero(xs []float64) bool {
	for _, x := range xs {
		if x != 0 {
			return false
		}
	}
	return true
}

// Compare prints, for every end-to-end metric x workload two run files
// share, whether B is no worse than A, worse, or unresolved: a spread in
// either set wider than the bound cannot carry a verdict, unless every
// run of B reads better than every run of A. It returns 1 when any pair
// is worse.
func Compare(w io.Writer, spec *Spec, pathA, pathB string) int {
	a, err := readFile(pathA)
	if err != nil {
		fmt.Fprintln(w, "lowlat-bench:", err)
		return 2
	}
	b, err := readFile(pathB)
	if err != nil {
		fmt.Fprintln(w, "lowlat-bench:", err)
		return 2
	}
	fmt.Fprintf(w, "A: %s (commit %s, %s)\nB: %s (commit %s, %s)\n", pathA, a.Env.Commit, a.Env.GoVersion, pathB, b.Env.Commit, b.Env.GoVersion)
	sa, sb := series(a), series(b)
	code := 0
	for _, name := range workload.Names {
		fmt.Fprintf(w, "\n%s\n", name)
		for _, m := range spec.EndToEnd {
			xa, xb := sa[seriesKey(name, false, m.Name)], sb[seriesKey(name, false, m.Name)]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := stat.Median(xa), stat.Median(xb)
			// worse is by how much of A's median B is worse.
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "no worse"
			switch {
			case max(stat.Spread(xa), stat.Spread(xb)) > m.Bound && !allBetter(xa, xb, m.Better):
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "WORSE"
				code = 1
			}
			fmt.Fprintf(w, "  %-18s A %12.6g (spread %5.2f%%, n=%d)  B %12.6g (spread %5.2f%%, n=%d)  %+7.2f%% vs bound %3.0f%%  %s\n",
				m.Name, ma, 100*stat.Spread(xa), len(xa), mb, 100*stat.Spread(xb), len(xb), 100*worse, 100*m.Bound, verdict)
		}
		// Per-layer metrics carry no bound: print the medians side by side.
		for _, m := range spec.PerLayer {
			xa, xb := sa[seriesKey(name, true, m.Name)], sb[seriesKey(name, true, m.Name)]
			if len(xa) == 0 || len(xb) == 0 || (allZero(xa) && allZero(xb)) {
				continue
			}
			fmt.Fprintf(w, "  %-38s A %12.6g  B %12.6g %s\n", m.Name, stat.Median(xa), stat.Median(xb), m.Unit)
		}
	}
	return code
}

// allBetter reports whether every run of b reads better than every run
// of a.
func allBetter(a, b []float64, better string) bool {
	sa, sb := stat.Sorted(a), stat.Sorted(b)
	if better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

func readFile(path string) (File, error) {
	var f File
	b, err := os.ReadFile(path)
	if err != nil {
		return f, fmt.Errorf("report: %w", err)
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("report: %s: %w", path, err)
	}
	sort.SliceStable(f.Runs, func(i, j int) bool { return f.Runs[i].Seed < f.Runs[j].Seed })
	return f, nil
}
