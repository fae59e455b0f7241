// Command lowlat is the reproduction's command-line interface: inspect and
// convert topologies, score them with APA/LLPD, generate traffic matrices,
// run routing schemes on generated traffic, simulate the closed control
// loop, replay dynamic failure/churn workloads, and regenerate the paper's
// figures.
//
// Usage:
//
//	lowlat zoo                           list zoo networks with LLPD
//	lowlat topo -net gts-like            print one topology (text format)
//	lowlat topo -file net.graphml -to repetita -o net.graph
//	lowlat llpd -net gts-like -cdf       APA quartiles, LLPD and APA CDF
//	lowlat tm -net gts-like -count 5     gravity-model traffic matrices
//	lowlat sim -net gts-like -minutes 10 closed-loop control cycle (Figure 11)
//	lowlat route -net gts-like -scheme ldr [-headroom 0.1] [-tms 3]
//	lowlat dynamics -net gts-like -scheme ldr -failures random -churn diurnal
//	lowlat exp -name fig3 [-tms 3] [-max-networks 20]
//	lowlat exp -name all
//	lowlat sweep -store results -grid "nets=zoo;seeds=1,2;schemes=sp,ldr"
//	lowlat query -store results -scheme sp
//	lowlat export -store results -format csv -o results.csv
//	lowlat stats -addr http://127.0.0.1:8080
//	lowlat watch -addr http://127.0.0.1:8080
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"lowlat/internal/backend"
	"lowlat/internal/cluster"
	"lowlat/internal/dynamics"
	"lowlat/internal/engine"
	"lowlat/internal/experiments"
	"lowlat/internal/graph"
	"lowlat/internal/metrics"
	"lowlat/internal/obs"
	"lowlat/internal/predict"
	"lowlat/internal/routing"
	"lowlat/internal/serve"
	"lowlat/internal/sim"
	"lowlat/internal/stats"
	"lowlat/internal/store"
	"lowlat/internal/sweep"
	"lowlat/internal/tm"
	"lowlat/internal/tmgen"
	"lowlat/internal/topo"
	"lowlat/internal/topoio"
	"lowlat/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches one CLI invocation and returns the process exit code: 0
// on success, 1 when any submitted scenario (or the run itself) errored,
// 2 on usage errors. Collected per-scenario failures surface as a non-zero
// exit even when partial results were printed.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	var err error
	switch args[0] {
	case "zoo":
		err = cmdZoo(args[1:], stdout, stderr)
	case "topo":
		err = cmdTopo(args[1:], stdout, stderr)
	case "llpd":
		err = cmdLLPD(args[1:], stdout, stderr)
	case "tm":
		err = cmdTM(args[1:], stdout, stderr)
	case "sim":
		err = cmdSim(args[1:], stdout, stderr)
	case "route":
		err = cmdRoute(args[1:], stdout, stderr)
	case "dynamics":
		err = cmdDynamics(args[1:], stdout, stderr)
	case "exp":
		err = cmdExp(args[1:], stdout, stderr)
	case "sweep":
		err = cmdSweep(args[1:], stdout, stderr)
	case "predict":
		err = cmdPredict(args[1:], stdout, stderr)
	case "query":
		err = cmdQuery(args[1:], stdout, stderr)
	case "export":
		err = cmdExport(args[1:], stdout, stderr)
	case "heal":
		err = cmdHeal(args[1:], stdout, stderr)
	case "stats":
		err = cmdStats(args[1:], stdout, stderr)
	case "watch":
		err = cmdWatch(args[1:], stdout, stderr)
	case "help", "-h", "--help":
		// Requested help is a success path: print to stdout so it pipes.
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "lowlat: unknown command %q\n", args[0])
		usage(stderr)
		return 2
	}
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	var ue usageError
	if errors.As(err, &ue) {
		// The flag package already reported the problem on stderr.
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "lowlat: %v\n", err)
		return 1
	}
	return 0
}

// usageError marks flag-parse failures so run exits 2, not 1. The flag
// package has already printed the message and usage to stderr.
type usageError struct{ error }

// newFlagSet returns a flag set that reports parse errors on stderr and
// returns them (flag.ContinueOnError) instead of calling os.Exit, keeping
// every exit path testable through run.
func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// count is an int flag that must be at least 1. The flag package reports
// a smaller value as a malformed flag, so it exits 2 like any other usage
// error instead of panicking or being silently replaced by a default.
type count int

func (c *count) String() string { return strconv.Itoa(int(*c)) }

func (c *count) Set(s string) error {
	v, err := strconv.ParseInt(s, 0, strconv.IntSize)
	if err != nil {
		return errors.New("parse error")
	}
	if v < 1 {
		return errors.New("must be at least 1")
	}
	*c = count(v)
	return nil
}

// countFlag registers a count flag on fs and returns its value.
func countFlag(fs *flag.FlagSet, name string, value int, usage string) *int {
	p := &value
	fs.Var((*count)(p), name, usage)
	return p
}

// caseCap is a count that also accepts -1, meaning no cap.
type caseCap int

func (c *caseCap) String() string { return strconv.Itoa(int(*c)) }

func (c *caseCap) Set(s string) error {
	v, err := strconv.ParseInt(s, 0, strconv.IntSize)
	if err != nil {
		return errors.New("parse error")
	}
	if v < 1 && v != -1 {
		return errors.New("must be at least 1, or -1 for no cap")
	}
	*c = caseCap(v)
	return nil
}

// prob is a probability flag in (0, 1]. Zero is rejected rather than
// read as "use the default", which is what the library does with it.
type prob float64

func (p *prob) String() string { return strconv.FormatFloat(float64(*p), 'g', -1, 64) }

func (p *prob) Set(s string) error {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return errors.New("parse error")
	}
	if !(v > 0 && v <= 1) {
		return errors.New("must be in (0, 1]")
	}
	*p = prob(v)
	return nil
}

// probFlag registers a probability flag on fs and returns its value.
func probFlag(fs *flag.FlagSet, name string, value float64, usage string) *float64 {
	p := &value
	fs.Var((*prob)(p), name, usage)
	return p
}

// isSet reports whether the flag name was given on the command line.
func isSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// loadGraph returns the topology a command's -net and -file flags select:
// the file (GraphML, REPETITA or native, sniffed from its content) when
// file is non-empty, else the zoo network net. A -net set explicitly
// beside -file is an error; a defaulted one yields to the file.
func loadGraph(fs *flag.FlagSet, net, file string) (*graph.Graph, error) {
	switch {
	case file != "" && isSet(fs, "net"):
		return nil, errors.New("use -net or -file, not both")
	case file != "":
		return topoio.ReadFile(file, topoio.ReadOptions{})
	case net == "":
		return nil, errors.New("one of -net or -file is required")
	}
	e, ok := topo.ByName(net)
	if !ok {
		return nil, fmt.Errorf("unknown network %q", net)
	}
	return e.Build(), nil
}

// parseFlags wraps fs.Parse, tagging real parse errors as usage errors.
func parseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err}
	}
	return nil
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage:
  lowlat zoo                                  list networks with size and LLPD
  lowlat topo [-net <name> | -file <path>]    print or convert a topology
         flags: -to native|graphml|repetita (default native) -o <file>
  lowlat llpd -net <name> | -file <path>      score a topology: LLPD and APA
         flags: -stretch <f> (default 1.4) -apa <f> (default 0.7)
                -cdf (print the APA CDF, the Figure 1 curve)
  lowlat tm -net <name> | -file <path>        generate gravity-model matrices
         flags: -count <n> -seed <n> -locality <f> (0 = pure gravity)
                -load <f> -out <dir> (write <dir>/<net>-tm<N>.txt)
  lowlat sim [-net <name> | -file <path>]     closed-loop control cycle: each
         minute the controller re-optimizes from the last minute's
         measurements and the fluid simulator plays the next minute
         flags: -controller ldr|latopt|sp|b4|minmax|minmax-k10|mplste
                -minutes <n> -seed <n> -load <f> -locality <f>
                -buffer <sec> (0 = unbounded) -drift <f>
  lowlat route -net <name> -scheme <s>        route generated traffic
         schemes: sp, b4, mplste, minmax, minmax-k10, ldr
         flags: -headroom <f> -tms <n> -seed <n> -load <f> -locality <f>
                -workers <n> -timeout <d>
  lowlat dynamics -net <name> -scheme <s>     replay a failure/churn timeline
         flags: -failures none|single|double|node|random -churn none|diurnal|surge|trace|replay
                -epochs <n> -seed <n> -replay <file> -max-failures <n>
                -fail-prob <f> -repair-prob <f> -headroom <f> -load <f>
                -locality <f> -workers <n> -timeout <d>
  lowlat exp -name <figN|all>                 regenerate paper figures
         flags: -tms <n> -seed <n> -max-networks <n> -max-nodes <n>
                -workers <n> (0 = one per CPU) -timeout <d> (e.g. 10m)
                -store <dir> (checkpoint/reuse landscape and headroom cells)
  lowlat sweep -store <dir> -grid <spec>      run a resumable scenario sweep
         grid: nets=<...>;seeds=<...>;schemes=<...>[;headrooms=<...>][;load=<f>]
               [;locality=<f>][;max-nets=<n>]  (nets terms: names, zoo,
               class:<c>, randomgeo:<n>:<seed>, multiregion:<RxP>:<seed>)
         flags: -resume=<bool> (default true: reuse stored cells)
                -compact (rewrite the store after the sweep)
                -workers <n> -timeout <d>
                -addr <url> | -cluster <url,...> (farm placement solves out
                to running lowlatd daemons; results still checkpoint locally)
  lowlat predict -store <dir> -grid <spec>    gate the interpolation fast path:
         sweep the grid at -loads, train surfaces on alternating load lines,
         predict the held-out lines and fail if any error exceeds -bound
         flags: -loads <f,f,...> (default 0.5,0.55,0.6,0.65,0.7)
                -bound <f> (default 0.05) -workers <n> -timeout <d>
  lowlat query [-store <dir>]                 list stored cells
         flags: -net <substr> -class <c> -scheme <s> -seed <n> -headroom <f>
                -addr <url> | -cluster <url,...> (query running daemons
                instead of a local store; CSV/JSON always include the
                header / an empty array, even for zero matches)
  lowlat export [-store <dir>] -format csv|json write a result slice
         flags: -o <file> (default stdout) + the query/remote flags
  lowlat heal -cluster <url,...> -replicas <R>  run one anti-entropy sweep:
         exchange key digests across the daemons and copy cells onto the
         ring owners missing them; prints the heal report
         flags: -timeout <d> (default 5m)
  lowlat stats -addr <url>                    render a daemon's /v1/stats for
         a human: counters, then p50/p90/p99/max per latency stage (a
         cluster front reports cluster-merged histograms)
         flags: -timeout <d> (default 30s) -json (raw /v1/stats JSON)
  lowlat watch -addr <url>                    live health view over the daemon's
         /v1/watch stream: health roll-up, SLO burn rates, rolling window
         rates per endpoint, and state-transition events as they happen
         flags: -interval <d> (server default 2s) -for <d> (stop after;
                default until interrupted) -plain (append blocks, no
                terminal redraw — for logs and pipes)
  remote flags (query/export/sweep): -replicas <R> (replicated -cluster
         ownership), -remote-cache <n> (client-side LRU + coalescing)`)
}

func cmdZoo(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("zoo", stderr)
	sortLLPD := fs.Bool("sort-llpd", false, "sort by LLPD instead of zoo order")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	nets := experiments.LoadZoo()
	if *sortLLPD {
		sort.Slice(nets, func(a, b int) bool { return nets[a].LLPD < nets[b].LLPD })
	}
	fmt.Fprintf(stdout, "%-22s %-18s %6s %6s %8s %7s\n", "network", "class", "nodes", "links", "diam(ms)", "LLPD")
	for _, n := range nets {
		fmt.Fprintf(stdout, "%-22s %-18s %6d %6d %8.1f %7.3f\n",
			n.Name, n.Class, n.Graph.NumNodes(), n.Graph.NumLinks(),
			n.Graph.Diameter()*1000, n.LLPD)
	}
	g := topo.GoogleLike()
	fmt.Fprintf(stdout, "%-22s %-18s %6d %6d %8.1f %7.3f  (outside the zoo, Figure 19)\n",
		"google-like", topo.ClassIntercontinental, g.NumNodes(), g.NumLinks(),
		g.Diameter()*1000, metrics.LLPD(g, metrics.APAConfig{}))
	return nil
}

// cmdTopo prints one topology, or converts it between the on-disk
// formats: the library's native text, Internet Topology Zoo GraphML and
// REPETITA.
func cmdTopo(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("topo", stderr)
	name := fs.String("net", "gts-like", "zoo network name")
	file := fs.String("file", "", "topology file (graphml, repetita, or native) instead of -net")
	to := fs.String("to", "native", "output format: native, graphml, repetita")
	out := fs.String("o", "", "output file (default stdout)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	g, err := loadGraph(fs, *name, *file)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	switch *to {
	case "native":
		buf.Write(topo.Marshal(g))
	case "graphml":
		err = topoio.WriteGraphML(&buf, g)
	case "repetita":
		err = topoio.WriteRepetita(&buf, g)
	default:
		err = fmt.Errorf("unknown format %q", *to)
	}
	if err != nil {
		return err
	}
	if *out == "" {
		_, err = stdout.Write(buf.Bytes())
		return err
	}
	if err := os.WriteFile(*out, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s (%s, %d nodes, %d links)\n", *out, *to, g.NumNodes(), g.NumLinks())
	return nil
}

// cmdLLPD scores a topology with the paper's §2 metrics: per-pair
// alternate path availability (APA) and the network-level LLPD.
func cmdLLPD(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("llpd", stderr)
	name := fs.String("net", "", "zoo network name")
	file := fs.String("file", "", "topology file (graphml, repetita, or native)")
	stretch := fs.Float64("stretch", 1.4, "path stretch limit for APA viability")
	thresh := fs.Float64("apa", 0.7, "APA threshold defining LLPD")
	cdf := fs.Bool("cdf", false, "print the full APA CDF (Figure 1 curve)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	g, err := loadGraph(fs, *name, *file)
	if err != nil {
		return err
	}
	cfg := metrics.APAConfig{StretchLimit: *stretch, APAThreshold: *thresh}
	fmt.Fprintf(stdout, "%s: %d nodes, %d links, diameter %.1f ms\n",
		g.Name(), g.NumNodes(), g.NumLinks(), g.Diameter()*1e3)
	fmt.Fprintf(stdout, "LLPD = %.3f (stretch limit %.2f, APA threshold %.2f)\n",
		metrics.LLPD(g, cfg), cfg.StretchLimit, cfg.APAThreshold)
	dist := metrics.APADistribution(g, cfg)
	if len(dist) == 0 {
		return nil
	}
	c := stats.NewCDF(dist)
	fmt.Fprintf(stdout, "APA quartiles: p25 %.3f  median %.3f  p75 %.3f  mean %.3f\n",
		c.Quantile(0.25), c.Quantile(0.5), c.Quantile(0.75), c.Mean())
	if *cdf {
		fmt.Fprintln(stdout, "\napa cumulative-fraction")
		for _, pt := range c.Points(21) {
			fmt.Fprintf(stdout, "%.3f %.4f\n", pt.X, pt.Y)
		}
	}
	return nil
}

// cmdTM generates gravity-model traffic matrices for a topology, mirroring
// the authors' tm-gen tool [20]: Zipf PoP masses, the paper's locality
// parameter, and scaling to a target min-cut load. Matrices go to stdout
// (separated by blank lines) or, with -out, to <dir>/<net>-tm<N>.txt.
func cmdTM(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("tm", stderr)
	name := fs.String("net", "", "zoo network name (see `lowlat zoo`)")
	file := fs.String("file", "", "topology file (graphml, repetita, or native)")
	n := countFlag(fs, "count", 1, "number of independent matrices")
	seed := fs.Int64("seed", 1, "base random seed")
	locality := fs.Float64("locality", 1, "locality parameter ℓ (0 = pure gravity)")
	load := fs.Float64("load", 1/1.3, "target MinMax peak utilization")
	outDir := fs.String("out", "", "write matrices to this directory instead of stdout")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	g, err := loadGraph(fs, *name, *file)
	if err != nil {
		return err
	}
	for i := 0; i < *n; i++ {
		res, _, err := sweep.GenerateMatrixCached(g, *seed+int64(i), *load, *locality, nil, nil)
		if err != nil {
			return fmt.Errorf("matrix %d: %w", i, err)
		}
		data := tm.Marshal(g, res.Matrix)
		if *outDir == "" {
			fmt.Fprintf(stdout, "# matrix %d: scale %.4g, minmax peak util %.3f\n%s\n",
				i, res.ScaleFactor, res.MinMaxUtil, data)
			continue
		}
		path := filepath.Join(*outDir, fmt.Sprintf("%s-tm%d.txt", g.Name(), i))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s (%d aggregates, peak util %.3f)\n", path, res.Matrix.Len(), res.MinMaxUtil)
	}
	return nil
}

// cmdSim runs the closed-loop control cycle of Figure 11: every simulated
// minute the controller re-optimizes from the previous minute's
// measurements, and the installed placement carries the next (drifted,
// bursty) minute through the fluid simulator. Controller "ldr" is the
// paper's core.Controller; every other name is a fixed routing scheme.
func cmdSim(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("sim", stderr)
	name := fs.String("net", "gts-like", "zoo network name")
	file := fs.String("file", "", "topology file instead of -net")
	minutes := countFlag(fs, "minutes", 10, "simulated minutes")
	seed := fs.Int64("seed", 1, "random seed")
	load := fs.Float64("load", 0.55, "target MinMax peak utilization for the base traffic")
	locality := fs.Float64("locality", 1, "traffic locality ℓ")
	controller := fs.String("controller", "ldr", "ldr, latopt, sp, b4, minmax, minmax-k10, mplste")
	buffer := fs.Float64("buffer", 0, "link buffer in seconds of capacity (0 = unbounded)")
	drift := fs.Float64("drift", 0.025, "per-minute relative mean drift")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	g, err := loadGraph(fs, *name, *file)
	if err != nil {
		return err
	}
	cfg := sim.ClosedLoopConfig{
		Minutes:        *minutes,
		Seed:           *seed,
		BufferSec:      *buffer,
		DriftPerMinute: *drift,
	}
	if *controller != "ldr" { // nil Scheme: the controller, at the paper's defaults
		if cfg.Scheme, err = routing.ByName(*controller, 0); err != nil {
			return err
		}
	}
	res, _, err := sweep.GenerateMatrixCached(g, *seed, *load, *locality, nil, nil)
	if err != nil {
		return err
	}
	specs := sim.SpecsFromMatrix(res.Matrix, *seed)

	fmt.Fprintf(stdout, "%s: %d nodes, %d links, %d aggregates, controller %s\n\n",
		g.Name(), g.NumNodes(), g.NumLinks(), len(specs), *controller)
	out, err := sim.RunClosedLoop(g, specs, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%6s %12s %12s %10s %10s %6s %6s\n",
		"minute", "max-queue", "congested", "stretch", "dropped", "mux", "unres")
	for _, ms := range out.Minutes {
		fmt.Fprintf(stdout, "%6d %10.2fms %12.3f %10.4f %9.3f%% %6d %6d\n",
			ms.Minute, ms.MaxQueueSec*1e3, ms.CongestedFraction,
			ms.LatencyStretch, ms.DropFraction*100, ms.MuxRounds, ms.Unresolved)
	}
	fmt.Fprintf(stdout, "\nworst queue %.2f ms, %d/%d minutes over the %.0f ms budget, mean stretch %.4f\n",
		out.WorstQueueSec*1e3, out.QueueViolations, len(out.Minutes),
		out.QueueBoundSec*1e3, out.MeanStretch)
	return nil
}

func cmdRoute(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("route", stderr)
	name := fs.String("net", "gts-like", "network name")
	schemeName := fs.String("scheme", "ldr", "sp | b4 | mplste | minmax | minmax-k10 | ldr")
	headroom := fs.Float64("headroom", 0, "reserved link fraction (b4/ldr)")
	tms := countFlag(fs, "tms", 3, "traffic matrices to evaluate")
	seed := fs.Int64("seed", 1, "random seed")
	load := fs.Float64("load", 1/1.3, "target min-cut utilization")
	locality := fs.Float64("locality", 1, "traffic locality parameter")
	workers := fs.Int("workers", 0, "engine worker pool size (0 = one per CPU)")
	timeout := fs.Duration("timeout", 0, "abort the run after this duration (0 = none)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	ctx, cancel := runContext(*timeout)
	defer cancel()

	g, err := loadGraph(fs, *name, "")
	if err != nil {
		return err
	}
	scheme, err := routing.ByName(*schemeName, *headroom)
	if err != nil {
		return err
	}

	llpd := metrics.LLPD(g, metrics.APAConfig{})
	fmt.Fprintf(stdout, "network %s: %d nodes, %d links, LLPD %.3f\n",
		g.Name(), g.NumNodes(), g.NumLinks(), llpd)

	// Generate the matrices and place them through the engine: matrix
	// calibration and scheme placement both fan out across the pool, and
	// results print in matrix order regardless of completion order.
	r := engine.NewRunner(*workers)
	seeds := make([]int64, *tms)
	for i := range seeds {
		seeds[i] = *seed + int64(i)
	}
	matrices, err := engine.Map(ctx, r.Workers(), seeds,
		func(_ context.Context, i int, s int64) (*tmgen.Result, error) {
			res, _, err := sweep.GenerateMatrixCached(g, s, *load, *locality, nil, r.Cache().ForGraph(g))
			if err != nil {
				return nil, fmt.Errorf("tm %d: %w", i, err)
			}
			return res, nil
		})
	if err != nil {
		return err
	}
	scs := make([]engine.Scenario, len(matrices))
	for i, res := range matrices {
		scs[i] = engine.Scenario{
			Tag:    fmt.Sprintf("%s/tm%d", g.Name(), i),
			Graph:  g,
			Matrix: res.Matrix,
			Scheme: scheme,
		}
	}
	return printScenarioResults(ctx, stdout, r, scs)
}

// printScenarioResults streams the scenarios through the pool, prints the
// rows that succeeded in submission order, and returns a combined error if
// any scenario failed — so a partially failed sweep still shows its
// results but exits non-zero instead of silently reporting success.
func printScenarioResults(ctx context.Context, stdout io.Writer, r *engine.Runner, scs []engine.Scenario) error {
	placements := make([]*routing.Placement, len(scs))
	errAt := make(map[int]error)
	for res := range r.Stream(ctx, scs) {
		if res.Err != nil {
			errAt[res.Index] = res.Err
			continue
		}
		placements[res.Value.Index] = res.Value.Placement
	}
	fmt.Fprintf(stdout, "%-4s %12s %12s %12s %12s %6s\n",
		"tm", "congested", "stretch", "max-stretch", "max-util", "fits")
	var errs []error
	for i, p := range placements {
		if p == nil {
			switch err, ok := errAt[i]; {
			case ok && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded):
				fmt.Fprintf(stdout, "%-4d failed: %v\n", i, err)
				errs = append(errs, err)
			default:
				// Never executed: either the feeder ran out of context
				// before dispatching it, or a worker picked it up only to
				// see the cancellation. Same state, same row.
				fmt.Fprintf(stdout, "%-4d not run\n", i)
			}
			continue
		}
		fmt.Fprintf(stdout, "%-4d %12.3f %12.3f %12.3f %12.3f %6v\n",
			i, p.CongestedPairFraction(), p.LatencyStretch(), p.MaxStretch(),
			p.MaxUtilization(), p.Fits())
	}
	failed := len(errs)
	if err := ctx.Err(); err != nil {
		if failed == 0 {
			return err
		}
		errs = append(errs, err)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d scenarios failed: %w", failed, len(scs), errors.Join(errs...))
	}
	return nil
}

func cmdDynamics(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("dynamics", stderr)
	name := fs.String("net", "gts-like", "network name")
	schemeName := fs.String("scheme", "ldr", "sp | b4 | mplste | minmax | minmax-k10 | ldr")
	headroom := fs.Float64("headroom", 0.10, "reserved link fraction (b4/ldr)")
	failures := fs.String("failures", "random", "none | single | double | node | random")
	churn := fs.String("churn", "diurnal", "none | diurnal | surge | trace | replay")
	epochs := countFlag(fs, "epochs", 8, "timeline length (enumerating failure models override it)")
	seed := fs.Int64("seed", 1, "random seed")
	replayFile := fs.String("replay", "", "demand-trace file for -churn replay (time src dst bps per line)")
	maxFailures := 50
	fs.Var((*caseCap)(&maxFailures), "max-failures", "cap on double-failure cases (-1 = all)")
	failProb := probFlag(fs, "fail-prob", 0.08, "random model: per-link per-epoch failure probability")
	repairProb := probFlag(fs, "repair-prob", 0.5, "random model: per-epoch repair probability")
	load := fs.Float64("load", 1/1.3, "target min-cut utilization of the base matrix")
	locality := fs.Float64("locality", 1, "traffic locality parameter")
	workers := fs.Int("workers", 0, "engine worker pool size (0 = one per CPU)")
	timeout := fs.Duration("timeout", 0, "abort the run after this duration (0 = none)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	// The diurnal default only suits the time-series failure models; an
	// enumerating sweep runs at fixed demand unless churn was explicitly
	// chosen (in which case dynamics.Config rejects the combination).
	if !isSet(fs, "churn") {
		switch *failures {
		case "single", "double", "node":
			*churn = string(dynamics.ChurnNone)
		}
	}
	ctx, cancel := runContext(*timeout)
	defer cancel()

	g, err := loadGraph(fs, *name, "")
	if err != nil {
		return err
	}
	scheme, err := routing.ByName(*schemeName, *headroom)
	if err != nil {
		return err
	}

	cfg := dynamics.Config{
		Seed:            *seed,
		Epochs:          *epochs,
		Failures:        dynamics.FailureModel(*failures),
		FailProb:        *failProb,
		RepairProb:      *repairProb,
		MaxFailureCases: maxFailures,
		Churn:           dynamics.ChurnModel(*churn),
	}
	r := engine.NewRunner(*workers)
	base := tm.New(nil)
	if cfg.Churn == dynamics.ChurnReplay {
		if *replayFile == "" {
			return fmt.Errorf("-churn replay needs -replay <file>")
		}
		data, err := os.ReadFile(*replayFile)
		if err != nil {
			return err
		}
		cfg.Replay, err = trace.ParseDemandTrace(data)
		if err != nil {
			return err
		}
	} else {
		res, _, err := sweep.GenerateMatrixCached(g, *seed, *load, *locality, nil, r.Cache().ForGraph(g))
		if err != nil {
			return err
		}
		base = res.Matrix
	}

	res, err := dynamics.Run(ctx, r, g, base, scheme, cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "network %s, scheme %s: %d epochs (failures %s, churn %s)\n",
		g.Name(), scheme.Name(), len(res.Epochs), *failures, *churn)
	fmt.Fprintf(stdout, "%-6s %-28s %5s %6s %6s %8s %8s %9s %9s %7s %5s\n",
		"epoch", "failure", "down", "scale", "lost", "stretch", "max-str",
		"congested", "headroom", "churn", "fits")
	for _, ep := range res.Epochs {
		failureName := ep.Failure
		if failureName == "" {
			failureName = "-"
		}
		fmt.Fprintf(stdout, "%-6d %-28s %5d %6.2f %6.3f %8.3f %8.3f %9.3f %9.3f %7.3f %5v\n",
			ep.Epoch, failureName, ep.LinksDown, ep.Scale, ep.LostDemand,
			ep.Stretch, ep.MaxStretch, ep.CongestedFrac, ep.Headroom, ep.PathChurn, ep.Fits)
	}
	fmt.Fprintf(stdout, "summary: mean stretch %.3f, worst stretch %.3f, mean churn %.3f, min headroom %.3f, unfit %.0f%%, max lost %.1f%%\n",
		res.MeanStretch(), res.WorstStretch(), res.MeanChurn(), res.MinHeadroom(),
		res.UnfitFrac()*100, res.MaxLostDemand()*100)
	return nil
}

// runContext derives the command's context from the -timeout flag.
func runContext(timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout > 0 {
		return context.WithTimeout(context.Background(), timeout)
	}
	return context.WithCancel(context.Background())
}

func cmdExp(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("exp", stderr)
	name := fs.String("name", "", "experiment name (fig1..fig20, fig_dynamics) or 'all'")
	tms := countFlag(fs, "tms", 3, "traffic matrices per topology")
	seed := fs.Int64("seed", 1, "random seed")
	maxNetworks := fs.Int("max-networks", 0, "cap on zoo networks (0 = all)")
	maxNodes := fs.Int("max-nodes", 0, "skip networks above this size (0 = none)")
	workers := fs.Int("workers", 0, "engine worker pool size (0 = one per CPU, 1 = sequential)")
	timeout := fs.Duration("timeout", 0, "abort the run after this duration (0 = none)")
	storeDir := fs.String("store", "", "result-store directory: checkpoint and reuse every figure placement cell")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *name == "" {
		return fmt.Errorf("-name is required; available: %v or all", experiments.Names())
	}
	ctx, cancel := runContext(*timeout)
	defer cancel()
	cfg := experiments.Config{
		TMsPerTopology: *tms,
		Seed:           *seed,
		MaxNetworks:    *maxNetworks,
		MaxNodes:       *maxNodes,
		Workers:        *workers,
		Context:        ctx,
	}
	if *storeDir != "" {
		st, err := openStore(*storeDir, stderr)
		if err != nil {
			return err
		}
		defer st.Close()
		cfg.Backend = st
	}
	if *name == "all" {
		return experiments.RunAll(cfg, stdout)
	}
	return experiments.Run(*name, cfg, stdout)
}

// openStore opens a result store and surfaces recovery (torn lines
// skipped after a crash) on stderr so it never passes silently.
func openStore(dir string, stderr io.Writer) (*store.Store, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	reportSkipped(st, dir, stderr)
	return st, nil
}

// openStoreReadOnly is openStore for the pure readers (query, export):
// nothing is created or healed, so they can run beside a writing sweep or
// daemon, and a mistyped store path errors instead of materializing an
// empty directory.
func openStoreReadOnly(dir string, stderr io.Writer) (*store.Store, error) {
	st, err := store.OpenReadOnly(dir)
	if err != nil {
		return nil, err
	}
	reportSkipped(st, dir, stderr)
	return st, nil
}

func reportSkipped(st *store.Store, dir string, stderr io.Writer) {
	if n := st.Skipped(); n > 0 {
		fmt.Fprintf(stderr, "lowlat: store %s: skipped %d corrupt line(s) from an interrupted run\n", dir, n)
	}
}

func cmdSweep(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("sweep", stderr)
	storeDir := fs.String("store", "", "result-store directory (required)")
	gridSpec := fs.String("grid", "", "grid spec, e.g. nets=zoo;seeds=1,2;schemes=sp,ldr (required)")
	resume := fs.Bool("resume", true, "reuse cells already in the store (false recomputes everything)")
	compact := fs.Bool("compact", false, "compact the store after the sweep")
	workers := fs.Int("workers", 0, "engine worker pool size (0 = one per CPU)")
	timeout := fs.Duration("timeout", 0, "abort the run after this duration (0 = none)")
	mkRemote := backendFlags(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *storeDir == "" {
		return fmt.Errorf("-store is required")
	}
	if *gridSpec == "" {
		return fmt.Errorf("-grid is required")
	}
	grid, err := sweep.ParseGrid(*gridSpec)
	if err != nil {
		return err
	}
	// With -addr/-cluster the missing cells are farmed out to remote
	// daemons instead of solved in-process; results still checkpoint
	// into the local store, so the sweep stays resumable either way.
	remote, err := mkRemote()
	if err != nil {
		return err
	}
	ctx, cancel := runContext(*timeout)
	defer cancel()

	st, err := openStore(*storeDir, stderr)
	if err != nil {
		return err
	}
	defer st.Close()

	opts := sweep.Options{
		Workers:   *workers,
		Recompute: !*resume,
	}
	if remote != nil {
		opts.Backend = remote
	}
	rep, runErr := sweep.Run(ctx, st, grid, opts)
	if rep != nil {
		fmt.Fprintf(stdout, "sweep: %d cells planned, %d reused, %d computed, %d failed (store %s: %d cells; %d matrices generated, %d memo hits)\n",
			rep.Planned, rep.Reused, rep.Computed, rep.Failed, *storeDir, st.Len(),
			rep.Generated, rep.MemoHits)
	}
	if runErr != nil {
		return runErr
	}
	if *compact {
		if err := st.Compact(); err != nil {
			return err
		}
	}
	return nil
}

// cmdPredict is the predictive fast path's error gate: sweep one grid
// across a line of load points, train interpolation surfaces on the
// even-indexed loads, predict every cell of the held-out odd-indexed
// loads (each bracketed by trained neighbors — honest interpolation, no
// extrapolation and no exact hits), and compare against the exact
// metrics the sweep just computed. The run fails when any error exceeds
// -bound, which is what CI pins.
func cmdPredict(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("predict", stderr)
	storeDir := fs.String("store", "", "result-store directory (required; reused across runs, so repeated gates are near-free)")
	gridSpec := fs.String("grid", "", "grid spec without a load term, e.g. nets=star-6;seeds=1,2;schemes=sp (required)")
	loadsFlag := fs.String("loads", "0.5,0.55,0.6,0.65,0.7", "comma-separated load line swept and split into train/holdout (need >= 3 points)")
	bound := fs.Float64("bound", 0.05, "fail when any held-out error exceeds this (relative for stretch/max-stretch/max-util, absolute for congested)")
	workers := fs.Int("workers", 0, "engine worker pool size (0 = one per CPU)")
	timeout := fs.Duration("timeout", 0, "abort the run after this duration (0 = none)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *storeDir == "" {
		return fmt.Errorf("-store is required")
	}
	if *gridSpec == "" {
		return fmt.Errorf("-grid is required")
	}
	grid, err := sweep.ParseGrid(*gridSpec)
	if err != nil {
		return err
	}
	loads, err := parseLoads(*loadsFlag)
	if err != nil {
		return err
	}
	if len(loads) < 3 {
		return fmt.Errorf("-loads needs at least 3 points to hold one out (got %d)", len(loads))
	}
	ctx, cancel := runContext(*timeout)
	defer cancel()

	st, err := openStore(*storeDir, stderr)
	if err != nil {
		return err
	}
	defer st.Close()

	// One sweep per load line; the store makes reruns near-free.
	byLoad := make(map[float64][]store.Result)
	for _, load := range loads {
		g := grid
		g.Load = load
		obs := resultSink{byLoad: byLoad}
		if _, err := sweep.Run(ctx, st, g, sweep.Options{Workers: *workers, Observer: obs}); err != nil {
			return err
		}
	}

	// Odd-indexed loads (sorted) are the holdout: every held-out line has
	// trained neighbors on both sides.
	sort.Float64s(loads)
	ix := predict.NewIndex(predict.Options{})
	var trained, heldOut []store.Result
	var holdoutLoads []float64
	for i, load := range loads {
		if i%2 == 1 {
			heldOut = append(heldOut, byLoad[load]...)
			holdoutLoads = append(holdoutLoads, load)
		} else {
			trained = append(trained, byLoad[load]...)
		}
	}
	ix.Train(trained)
	surfaces, samples := ix.Len()

	var worst gateErrors
	predicted := 0
	for _, r := range heldOut {
		est, ok := ix.Predict(r.Key.Graph, r.Meta.Scheme, r.Meta.Seed, predict.Coord{
			Headroom: r.Meta.Headroom, Load: r.Meta.Load, Locality: r.Meta.Locality,
		})
		if !ok {
			continue // a refusal is a fallback, not a wrong answer
		}
		predicted++
		worst.fold(est.Metrics, r.Metrics)
	}
	fmt.Fprintf(stdout, "predict: trained %d surface(s) / %d sample(s); %d of %d held-out cells predicted at loads %v\n",
		surfaces, samples, predicted, len(heldOut), holdoutLoads)
	if predicted == 0 {
		return fmt.Errorf("predict: no held-out cell was predicted — the surfaces refuse their own interior, gate cannot pass")
	}
	fmt.Fprintf(stdout, "predict: max errors: stretch %.4f, max-stretch %.4f, max-util %.4f (relative); congested %.4f (absolute)\n",
		worst.stretch, worst.maxStretch, worst.maxUtil, worst.congested)
	if max := worst.max(); max > *bound {
		return fmt.Errorf("predict: gate FAILED: max error %.4f > bound %.4f", max, *bound)
	}
	fmt.Fprintf(stdout, "predict: gate OK: max error %.4f <= bound %.4f\n", worst.max(), *bound)
	return nil
}

// resultSink buckets sweep results by load line for the gate — both the
// cells this run computed and the ones it reused from the store.
type resultSink struct{ byLoad map[float64][]store.Result }

func (s resultSink) Observe(r store.Result) {
	s.byLoad[r.Meta.Load] = append(s.byLoad[r.Meta.Load], r)
}

// gateErrors accumulates the worst predicted-vs-exact error per metric:
// relative for the ratio-like metrics, absolute for the congested
// fraction (whose exact value is often 0).
type gateErrors struct {
	stretch, maxStretch, maxUtil, congested float64
}

func (g *gateErrors) fold(got, want store.Metrics) {
	g.stretch = maxf(g.stretch, relErr(got.Stretch, want.Stretch))
	g.maxStretch = maxf(g.maxStretch, relErr(got.MaxStretch, want.MaxStretch))
	g.maxUtil = maxf(g.maxUtil, relErr(got.MaxUtil, want.MaxUtil))
	g.congested = maxf(g.congested, absf(got.Congested-want.Congested))
}

func (g *gateErrors) max() float64 {
	return maxf(maxf(g.stretch, g.maxStretch), maxf(g.maxUtil, g.congested))
}

func relErr(got, want float64) float64 {
	denom := absf(want)
	if denom < 1e-9 {
		denom = 1e-9
	}
	return absf(got-want) / denom
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func parseLoads(s string) ([]float64, error) {
	var loads []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil || v <= 0 || v > 1 {
			return nil, fmt.Errorf("bad load %q (want 0 < load <= 1)", part)
		}
		loads = append(loads, v)
	}
	return loads, nil
}

// backendFlags registers the remote-access flags on fs — -addr for one
// daemon, -cluster for a consistent-hash ring of them — and returns a
// closure that builds the placement backend after parsing (nil when
// neither flag was given, i.e. local-store mode).
func backendFlags(fs *flag.FlagSet) func() (backend.Backend, error) {
	addr := fs.String("addr", "", "base URL of a running lowlatd (e.g. http://127.0.0.1:8080); replaces -store")
	clusterSpec := fs.String("cluster", "", "comma-separated lowlatd base URLs fronted by a consistent-hash ring; replaces -store")
	replicas := fs.Int("replicas", 1, "with -cluster: ownership factor R — writes land on each key's first R ring owners and reads repair stale copies (1 = single-owner)")
	cacheSize := fs.Int("remote-cache", 0, "wrap the remote backend in a client-side LRU + request-coalescing tier of this many entries (0 = off)")
	return func() (backend.Backend, error) {
		if *addr != "" && *clusterSpec != "" {
			return nil, fmt.Errorf("-addr and -cluster are mutually exclusive")
		}
		var b backend.Backend
		switch {
		case *addr != "":
			b = serve.NewRemote(serve.NewClient(cluster.NormalizeBaseURL(*addr)), serve.RemoteOptions{})
		case *clusterSpec != "":
			cb, err := cluster.FromSpec(*clusterSpec, serve.RemoteOptions{}, cluster.Options{Replicas: *replicas})
			if err != nil {
				return nil, err
			}
			b = cb
		default:
			return nil, nil
		}
		if *cacheSize > 0 {
			b = backend.NewCached(b, backend.CachedOptions{Size: *cacheSize})
		}
		return b, nil
	}
}

// cmdHeal runs one explicit anti-entropy sweep over a replicated
// cluster: probe every daemon, drain any hinted writes, exchange key
// inventories, and copy cells onto the ring owners missing them. The
// same sweep a cluster-front daemon runs in the background with
// -anti-entropy, callable on demand — the operator's "make the replicas
// converge now" button after rejoining a rebuilt daemon.
func cmdHeal(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("heal", stderr)
	clusterSpec := fs.String("cluster", "", "comma-separated lowlatd base URLs (required)")
	replicas := fs.Int("replicas", 2, "ownership factor R the cluster serves with; the sweep copies cells onto each key's first R ring owners")
	timeout := fs.Duration("timeout", 5*time.Minute, "bound for the whole sweep")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *clusterSpec == "" {
		return fmt.Errorf("heal: -cluster is required")
	}
	cb, err := cluster.FromSpec(*clusterSpec, serve.RemoteOptions{}, cluster.Options{Replicas: *replicas})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	if down := cb.Probe(ctx); down > 0 {
		fmt.Fprintf(stderr, "lowlat: heal: %d of %d daemons unreachable; healing around them\n", down, len(cb.Labels()))
	}
	rep, err := cb.Heal(ctx)
	if err != nil {
		return fmt.Errorf("heal: %w", err)
	}
	if rep.Replicas == 0 && !rep.Skipped {
		return fmt.Errorf("heal: no daemon answered the key exchange (%d named)", len(cb.Labels()))
	}
	if rep.Skipped {
		fmt.Fprintln(stdout, "heal: replicas already converged (digest match), nothing to do")
		return nil
	}
	fmt.Fprintf(stdout, "heal: %d replicas exchanged %d keys: %d healed, %d drained, %d failed\n",
		rep.Replicas, rep.Keys, rep.Healed, rep.Drained, rep.Failed)
	if rep.Failed > 0 {
		return fmt.Errorf("heal: %d copies failed; rerun after the targets recover", rep.Failed)
	}
	return nil
}

// cmdStats fetches one daemon's /v1/stats and renders it for a human:
// the request/hit/compute counters, then per-stage latency quantiles
// from the merged histograms. Pointed at a cluster front, the stage
// table is cluster-wide — the front folds every replica's histograms
// into its own before answering.
func cmdStats(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("stats", stderr)
	addr := fs.String("addr", "", "base URL of a running lowlatd (required)")
	timeout := fs.Duration("timeout", 30*time.Second, "request timeout")
	jsonOut := fs.Bool("json", false, "emit the raw /v1/stats JSON (machine-readable, round-trips into backend.Stats)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *addr == "" {
		return fmt.Errorf("stats: -addr is required")
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	st, err := serve.NewClient(cluster.NormalizeBaseURL(*addr)).Stats(ctx)
	if err != nil {
		return err
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(st)
	}
	printStats(stdout, st)
	return nil
}

// cmdWatch subscribes to a daemon's /v1/watch stream and renders each
// snapshot: the health roll-up with its reasons, per-objective burn
// rates, the smallest rolling window per endpoint, and journal events
// as they happen. By default every snapshot redraws the terminal;
// -plain appends blocks instead (logs, pipes, tests).
func cmdWatch(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("watch", stderr)
	addr := fs.String("addr", "", "base URL of a running lowlatd (required)")
	interval := fs.Duration("interval", 0, "snapshot period (0 = the server's default, 2s)")
	forDur := fs.Duration("for", 0, "stop after this long (0 = watch until interrupted)")
	plain := fs.Bool("plain", false, "append one block per snapshot instead of redrawing the terminal")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *addr == "" {
		return fmt.Errorf("watch: -addr is required")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *forDur > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *forDur)
		defer cancel()
	}
	var recent []obs.Event
	got := false
	err := serve.NewClient(cluster.NormalizeBaseURL(*addr)).Watch(ctx, *interval,
		func(ev serve.WatchEvent) error {
			got = true
			recent = append(recent, ev.Events...)
			if len(recent) > 8 {
				recent = recent[len(recent)-8:]
			}
			if !*plain {
				fmt.Fprint(stdout, "\033[H\033[2J") // cursor home + clear
			}
			renderWatch(stdout, ev, recent)
			return nil
		})
	if err != nil {
		return err
	}
	if !got {
		return fmt.Errorf("watch: stream ended before the first snapshot")
	}
	return nil
}

// renderWatch prints one watch snapshot.
func renderWatch(w io.Writer, ev serve.WatchEvent, recent []obs.Event) {
	fmt.Fprintf(w, "%s  health: %s\n", ev.Time.Format("15:04:05"), ev.Health.Status)
	for _, reason := range ev.Health.Reasons {
		fmt.Fprintf(w, "  ! %s\n", reason)
	}
	if len(ev.Health.SLOs) > 0 {
		fmt.Fprintf(w, "objectives:\n  %-40s %-5s %8s %8s %7s\n",
			"objective", "state", "burn", "short", "budget")
		for _, so := range ev.Health.SLOs {
			fmt.Fprintf(w, "  %-40s %-5s %7.2fx %7.2fx %6.0f%%\n",
				so.Objective, so.State, so.BurnLong, so.BurnShort, so.BudgetRemaining*100)
		}
	}
	if len(ev.Windows) > 0 {
		names := make([]string, 0, len(ev.Windows))
		for name := range ev.Windows {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "endpoints (%s window):\n  %-20s %9s %10s %10s %10s\n",
			ev.Windows[names[0]][0].Window, "stage", "rate", "p50", "p99", "max")
		for _, name := range names {
			ws := ev.Windows[name][0] // smallest span first
			fmt.Fprintf(w, "  %-20s %8.1f/s %10s %10s %10s\n",
				name, ws.Rate, fmtNS(ws.P50NS), fmtNS(ws.P99NS), fmtNS(ws.MaxNS))
		}
	}
	if len(recent) > 0 {
		fmt.Fprintln(w, "events:")
		for _, e := range recent {
			detail := e.Detail
			if e.Subject != "" {
				detail = e.Subject + ": " + detail
			}
			origin := ""
			if e.Origin != "" {
				origin = " [" + e.Origin + "]"
			}
			fmt.Fprintf(w, "  %s %-14s%s %s\n", e.Time.Format("15:04:05"), e.Type, origin, detail)
		}
	}
	fmt.Fprintln(w)
}

// printStats renders one stats snapshot: a mode line, the non-zero-able
// counters, and — when any stage has recorded — the latency table.
func printStats(w io.Writer, st *backend.Stats) {
	mode := "read-write"
	if st.ReadOnly {
		mode = "read-only"
	}
	fmt.Fprintf(w, "backend %s (%s): %d cells, %d memo entries\n",
		st.Backend, mode, st.StoreCells, st.MemoEntries)
	type counter struct {
		name string
		v    int64
	}
	counters := []counter{
		{"queries", st.Queries},
		{"cell_lookups", st.CellLookups},
		{"place_requests", st.PlaceRequests},
		{"cache_hits", st.CacheHits},
		{"cache_misses", st.CacheMisses},
		{"store_hits", st.StoreHits},
		{"memo_hits", st.MemoHits},
		{"coalesced", st.Coalesced},
		{"computed", st.Computed},
		{"rejected", st.Rejected},
		{"in_flight", st.InFlight},
		{"cached_entries", int64(st.CachedEntries)},
		{"replications", st.Replications},
		{"slow_requests", st.SlowRequests},
	}
	if st.Predicted > 0 || st.PredictFallbacks > 0 {
		counters = append(counters,
			counter{"predicted", st.Predicted},
			counter{"predict_fallbacks", st.PredictFallbacks})
	}
	if st.ReplicaFactor > 1 {
		counters = append(counters,
			counter{"replica_factor", int64(st.ReplicaFactor)},
			counter{"replicated", st.Replicated},
			counter{"read_repairs", st.ReadRepairs},
			counter{"hints_pending", int64(st.HintsPending)},
			counter{"healed", st.Healed},
			counter{"heal_sweeps", st.HealSweeps})
	}
	fmt.Fprintln(w, "counters:")
	for _, c := range counters {
		fmt.Fprintf(w, "  %-18s %d\n", c.name, c.v)
	}
	if len(st.Stages) == 0 {
		return
	}
	names := make([]string, 0, len(st.Stages))
	for name := range st.Stages {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "latency per stage:")
	fmt.Fprintf(w, "  %-14s %10s %10s %10s %10s %10s\n",
		"stage", "count", "p50", "p90", "p99", "max")
	for _, name := range names {
		s := st.Stages[name]
		fmt.Fprintf(w, "  %-14s %10d %10s %10s %10s %10s\n", name, s.Count,
			fmtNS(s.P50NS), fmtNS(s.P90NS), fmtNS(s.P99NS), fmtNS(s.MaxNS))
	}
}

// fmtNS renders a nanosecond latency at a humane precision: histograms
// answer with ~3% bucket resolution, so more digits would be noise.
func fmtNS(ns int64) string {
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	case d >= time.Microsecond:
		return d.Round(10 * time.Nanosecond).String()
	default:
		return d.String()
	}
}

// backendQuery lists the backend's cells matching f, failing loudly for
// backends that can report delivery errors: a dead daemon must exit
// non-zero, not print an empty (but well-formed) answer.
func backendQuery(b backend.Backend, f sweep.Filter) ([]store.Result, error) {
	if cq, ok := b.(backend.ContextQuerier); ok {
		return cq.QueryContext(context.Background(), f)
	}
	return b.Query(f), nil
}

// filterFlags registers the query/export filter flags on fs and returns a
// closure building the sweep.Filter after parsing. Flag *presence* (not a
// sentinel value) decides whether -seed/-headroom filter, so negative
// sweep seeds stay selectable.
func filterFlags(fs *flag.FlagSet) func() sweep.Filter {
	net := fs.String("net", "", "keep cells whose network name contains this substring")
	class := fs.String("class", "", "keep cells of one topology class")
	scheme := fs.String("scheme", "", "keep cells of one scheme name")
	seed := fs.Int64("seed", 0, "keep cells of one matrix seed (default all)")
	headroom := fs.Float64("headroom", 0, "keep cells at one headroom point (default all)")
	return func() sweep.Filter {
		f := sweep.Filter{Net: *net, Class: *class, Scheme: *scheme}
		fs.Visit(func(fl *flag.Flag) {
			switch fl.Name {
			case "seed":
				f.Seed = seed
			case "headroom":
				f.Headroom = headroom
			}
		})
		return f
	}
}

// resolveReadBackend builds the read path query/export share: a
// read-only store mount (so it can run beside a writing sweep or
// daemon), one remote daemon, or a cluster of them. Exactly one source
// must be named. The returned closer releases the store mount, if any.
func resolveReadBackend(storeDir string, mkRemote func() (backend.Backend, error), stderr io.Writer) (backend.Backend, func() error, error) {
	b, err := mkRemote()
	if err != nil {
		return nil, nil, err
	}
	noop := func() error { return nil }
	if b != nil {
		if storeDir != "" {
			return nil, nil, fmt.Errorf("-store and -addr/-cluster are mutually exclusive")
		}
		return b, noop, nil
	}
	if storeDir == "" {
		return nil, nil, fmt.Errorf("-store is required (or -addr/-cluster for a remote daemon)")
	}
	st, err := openStoreReadOnly(storeDir, stderr)
	if err != nil {
		return nil, nil, err
	}
	return backend.NewLocal(st, backend.LocalOptions{}), st.Close, nil
}

func cmdQuery(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("query", stderr)
	storeDir := fs.String("store", "", "result-store directory")
	mkRemote := backendFlags(fs)
	filter := filterFlags(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	b, done, err := resolveReadBackend(*storeDir, mkRemote, stderr)
	if err != nil {
		return err
	}
	defer done()
	results, err := backendQuery(b, filter())
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%-22s %-16s %6s %4s %-12s %9s %9s %9s %9s %9s %5s\n",
		"network", "class", "seed", "tm", "scheme", "headroom", "congested", "stretch", "max-str", "max-util", "fits")
	for _, r := range results {
		fmt.Fprintf(stdout, "%-22s %-16s %6d %4d %-12s %9.3f %9.3f %9.3f %9.3f %9.3f %5v\n",
			r.Meta.Net, r.Meta.Class, r.Meta.Seed, r.Meta.TM, r.Meta.Scheme, r.Meta.Headroom,
			r.Metrics.Congested, r.Metrics.Stretch, r.Metrics.MaxStretch, r.Metrics.MaxUtil, r.Metrics.Fits)
	}
	fmt.Fprintf(stdout, "%d of %d stored cells matched\n", len(results), b.Stats().StoreCells)
	return nil
}

func cmdExport(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("export", stderr)
	storeDir := fs.String("store", "", "result-store directory")
	format := fs.String("format", "csv", "output format: csv or json")
	out := fs.String("o", "", "output file (default stdout)")
	mkRemote := backendFlags(fs)
	filter := filterFlags(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	b, done, err := resolveReadBackend(*storeDir, mkRemote, stderr)
	if err != nil {
		return err
	}
	defer done()
	results, err := backendQuery(b, filter())
	if err != nil {
		return err
	}
	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	// Both formats render an empty slice as a well-formed empty document
	// (CSV: header row only; JSON: "[]"), local store or remote alike.
	return sweep.ExportResults(w, results, *format)
}
