// Command lowlat-bench is the repository's benchmark: six named
// workloads, end-to-end metrics with tracing off, and a traced run that
// reports per-layer numbers. See bench/README.md.
//
//	lowlat-bench --workload W --seed N --seconds S --trace 0|1   one run (the acceptance driver's form)
//	lowlat-bench [--seed N] [--seconds S] [--trace 1]            the suite: every workload, each in its own child process
//	lowlat-bench --repeat N [--out runs.json]                    the suite N times; medians, quartiles, spread vs bound
//	lowlat-bench --compare A.json B.json                         no worse / worse / unresolved, per metric x workload
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"lowlat/bench/internal/proc"
	"lowlat/bench/internal/report"
	"lowlat/bench/internal/workload"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:]))
}

func run(ctx context.Context, args []string) int {
	fs := flag.NewFlagSet("lowlat-bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run one workload in this process (default: the whole suite, one child process per workload)")
	seed := fs.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := fs.Float64("seconds", 0, "how long one run measures (default: BENCHMARK.json's run_seconds)")
	trace := fs.Int("trace", 0, "1 = the traced run: spans around each layer's public functions, per-layer metrics")
	repeat := fs.Int("repeat", 0, "run the suite N times (seeds seed..seed+N-1) and summarise each metric x workload")
	out := fs.String("out", "", "with --repeat: also write every run's metrics to this JSON file, for --compare")
	compare := fs.Bool("compare", false, "compare two --repeat files given as arguments: A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := report.FindRoot(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "lowlat-bench:", err)
		return 1
	}
	spec, err := report.LoadSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lowlat-bench:", err)
		return 1
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "lowlat-bench: --compare takes two files: A.json B.json")
			return 2
		}
		return report.Compare(os.Stdout, spec, fs.Arg(0), fs.Arg(1))
	case *name != "":
		return runOne(ctx, root, *name, *seed, *seconds, *trace != 0)
	default:
		s := report.Suite{Spec: spec, Root: root, Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Repeat: max(*repeat, 1), Out: *out}
		return s.Run(ctx, os.Stdout)
	}
}

// runOne runs one workload in this process and prints its result line.
func runOne(ctx context.Context, root, name string, seed int64, seconds float64, trace bool) int {
	fn, ok := workload.ByName(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "lowlat-bench: unknown workload %q (have %v)\n", name, workload.Names)
		return 2
	}
	build := filepath.Join(root, ".bench_build")
	cfg := workload.Config{
		Seed:    seed,
		Seconds: seconds,
		Trace:   trace,
		Scratch: filepath.Join(build, "run", fmt.Sprintf("%s-%d", name, os.Getpid())),
		OutDir:  filepath.Join(root, "bench", "out"),
		Lowlatd: filepath.Join(build, "bin", "lowlatd"),
		Log:     os.Stderr,
	}
	defer os.RemoveAll(cfg.Scratch)
	if workload.NeedsDaemon(name) {
		if err := proc.Build(ctx, root, cfg.Lowlatd); err != nil {
			fmt.Fprintln(os.Stderr, "lowlat-bench:", err)
			return 1
		}
	}
	// A run that has not finished in three minutes never will: fail it
	// rather than hang the caller.
	ctx, cancel := context.WithTimeout(ctx, 170*time.Second)
	defer cancel()
	res, err := fn(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lowlat-bench: %s: %v\n", name, err)
		return 1
	}
	names := res.Finish(trace)
	report.PrintHuman(os.Stdout, name, res, names)
	fmt.Println("traffic crossed the host loopback only; no real link was measured")
	line, err := json.Marshal(report.LineOf(res, names))
	if err != nil {
		fmt.Fprintln(os.Stderr, "lowlat-bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if res.Failed > 0 || res.Attempted == 0 {
		return 1
	}
	return 0
}
