// Package workload holds the benchmark's six named workloads. Each is
// one function from a Config to a Result: it builds its inputs from the
// seed, prepares (timed as setup_s), measures for the configured time,
// checks the outputs against an independent reference, and reports its
// metrics by name. The program under test only ever sees the generated
// specs, never the seed.
package workload

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"lowlat/bench/internal/proc"
	"lowlat/bench/internal/span"
	"lowlat/bench/internal/stat"
)

// Config is one workload invocation.
type Config struct {
	Seed int64
	// Seconds is how long the run measures (its phases share it).
	Seconds float64
	// Trace selects the traced run: a shortened untraced pass, the
	// decomposed pass with spans recorded, and the layer probes.
	Trace bool
	// Scratch is a directory inside the checkout the workload may fill
	// with stores, OutDir where trace files go. Nothing outside the
	// checkout is read or written.
	Scratch, OutDir string
	// Lowlatd is the built daemon binary (daemon workloads only).
	Lowlatd string
	// Log receives progress and findings for a human; the result line
	// goes elsewhere.
	Log io.Writer
}

// Callers is the closed-loop caller / open-loop connection count: the
// box's CPUs, at most two — more senders than cores measure the
// generator's scheduling, not the system.
func Callers() int { return min(runtime.NumCPU(), 2) }

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is what a workload reports.
type Result struct {
	// Attempted and Failed count operations and oracle checks; a failed,
	// refused, wrong or timed-out operation is a failure.
	Attempted, Failed int64
	// Metrics maps metric name to value; Samples to how many samples a
	// timing rests on.
	Metrics map[string]Metric
	Samples map[string]int
	// Findings are human-readable oracle violations and validity notes.
	Findings []string
}

func newResult() *Result {
	return &Result{Metrics: make(map[string]Metric), Samples: make(map[string]int)}
}

// set records a metric, looking its unit up in the tables so a name and
// its unit cannot drift apart.
func (r *Result) set(name string, v float64) {
	r.Metrics[name] = Metric{Value: v, Unit: unitOf(name)}
}

// setN records a metric with its sample count.
func (r *Result) setN(name string, v float64, n int) {
	r.set(name, v)
	r.Samples[name] = n
}

// fail records one failed check.
func (r *Result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Findings) < 20 {
		r.Findings = append(r.Findings, fmt.Sprintf(format, args...))
	}
}

// check counts one oracle check, failing it unless ok.
func (r *Result) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.fail(format, args...)
	}
}

var units = func() map[string]string {
	m := make(map[string]string)
	for _, d := range EndToEnd {
		m[d.Name] = d.Unit
	}
	for _, d := range PerLayer {
		m[d.Name] = d.Unit
	}
	return m
}()

func unitOf(name string) string {
	u, ok := units[name]
	if !ok {
		panic("workload: metric " + name + " is not in the tables")
	}
	return u
}

// Func runs one workload.
type Func func(ctx context.Context, cfg Config) (*Result, error)

// ByName resolves a workload.
func ByName(name string) (Func, bool) {
	switch name {
	case "place_cold":
		return PlaceCold, true
	case "sweep_grid":
		return SweepGrid, true
	case "reopt_loop":
		return ReoptLoop, true
	case "serve_hot":
		return ServeHot, true
	case "cluster_mixed":
		return ClusterMixed, true
	case "store_rw":
		return StoreRW, true
	}
	return nil, false
}

// NeedsDaemon reports whether the workload drives lowlatd processes.
func NeedsDaemon(name string) bool { return name == "serve_hot" || name == "cluster_mixed" }

// Finish fills in what every run reports the same way and returns the
// metric names the mode must print, in table order. Traced runs report
// every per-layer name, 0 for layers the workload does not exercise.
func (r *Result) Finish(trace bool) []Def {
	if !trace {
		return EndToEnd
	}
	ratio := 0.0
	if r.Attempted > 0 {
		ratio = float64(r.Failed) / float64(r.Attempted)
	}
	r.set("fail_ratio", ratio)
	for _, d := range PerLayer {
		if _, ok := r.Metrics[d.Name]; !ok {
			r.Metrics[d.Name] = Metric{Unit: d.Unit}
		}
	}
	return PerLayer
}

// probe is a resource reading of this process at one instant.
type probe struct {
	at   time.Time
	cpu  time.Duration
	heap proc.Heap
}

func selfProbe() probe {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return probe{
		at:  time.Now(),
		cpu: proc.SelfCPU(),
		heap: proc.Heap{
			TotalAlloc: ms.TotalAlloc,
			Mallocs:    ms.Mallocs,
			NumGC:      uint64(ms.NumGC),
			PauseNs:    ms.PauseTotalNs,
		},
	}
}

// usage is what one measured phase consumed. A phase is cut into rounds
// — equal batches of operations for an in-process workload, half-second
// slices for daemons — and every timing is taken per round.
type usage struct {
	wall time.Duration
	heap proc.Heap // whole phase, for the GC counters
	ops  int
	// One entry per round: wall and CPU time and allocation per
	// operation, and the round's median operation latency.
	wallS, cpuMs, allocKB, mallocs, latMs []float64
	// peakRSS is the phase's steady peak resident set (see
	// proc.RSSSampler), bytes.
	peakRSS int64
	// est picks the round a timing is read from; nil means quiet.
	est func(perRound []float64) float64
}

// quiet is the estimator behind every end-to-end timing: the first
// quartile of the per-round values. On a shared two-core VM interference
// only ever adds time, in bursts of a fraction of a second to minutes; a
// run's total is at the mercy of one loud stretch and even its median
// round moves when half the rounds are disturbed, while the quiet
// quartile is the closest a run gets to what the program itself costs.
// (Measured on the same ten runs: spread 8.7% by the median round, 6.7%
// by the first quartile.) Both sides of a comparison use it, so a real
// regression — which slows every round — shows in full.
//
// It assumes rounds of like content. Where rounds differ by what fell
// into them (cluster_mixed: a half-second slice holds 25 or 45 misses as
// the draw has it) the first quartile picks the lucky slices and is
// noisier than the plain median, which that workload uses instead.
func quiet(perRound []float64) float64 {
	q1, _, _ := stat.Quartiles(perRound)
	return q1
}

// meter measures one phase of this process round by round.
type meter struct {
	rss         *proc.RSSSampler
	first, last probe
	u           usage
}

func startMeter() *meter {
	m := &meter{rss: proc.SampleRSS("self")}
	m.first = selfProbe()
	m.last = m.first
	return m
}

// round closes a round of ops operations whose latencies were latNs
// (nil when the round is the operation, as a sweep batch is).
func (m *meter) round(ops int, latNs []int64) {
	now := selfProbe()
	n := float64(max(ops, 1))
	wall := now.at.Sub(m.last.at).Seconds()
	m.u.wallS = append(m.u.wallS, wall/n)
	m.u.cpuMs = append(m.u.cpuMs, float64((now.cpu-m.last.cpu).Nanoseconds())/1e6/n)
	d := now.heap.Sub(m.last.heap)
	m.u.allocKB = append(m.u.allocKB, float64(d.TotalAlloc)/1024/n)
	m.u.mallocs = append(m.u.mallocs, float64(d.Mallocs)/n)
	if latNs == nil {
		m.u.latMs = append(m.u.latMs, wall*1e3)
	} else {
		m.u.latMs = append(m.u.latMs, stat.Median(ms(latNs)))
	}
	m.u.ops += ops
	m.last = now
}

// elapsed is the time since the phase started.
func (m *meter) elapsed() time.Duration { return time.Since(m.first.at) }

func (m *meter) stop() usage {
	m.u.wall = m.last.at.Sub(m.first.at)
	m.u.heap = m.last.heap.Sub(m.first.heap)
	m.u.peakRSS = m.rss.Stop()
	return m.u
}

// reportUsage turns a phase's rounds into the end-to-end metrics
// (untraced) or the Go runtime's per-layer ones (traced).
func (r *Result) reportUsage(u usage, trace bool) {
	if trace {
		r.set("go.gc_count", float64(u.heap.NumGC))
		r.set("go.gc_pause_total_ms", float64(u.heap.PauseNs)/1e6)
		r.setN("go.mallocs_per_op", stat.Median(u.mallocs), u.ops)
		return
	}
	est := u.est
	if est == nil {
		est = quiet
	}
	if w := est(u.wallS); w > 0 {
		r.setN("ops_per_s", 1/w, u.ops)
	}
	r.setN("lat_ms_p50", est(u.latMs), u.ops)
	r.setN("cpu_ms_per_op", est(u.cpuMs), u.ops)
	r.setN("alloc_kb_per_op", stat.Median(u.allocKB), u.ops)
	r.set("peak_rss_mb", float64(u.peakRSS)/(1<<20))
}

// setupReps is how many times a workload prepares itself; setup_s is the
// median, which keeps one slow mkdir or a cold page cache out of the
// number. The last preparation is the one the run then uses.
const setupReps = 3

// timedSetup runs prepare setupReps times (once in a traced run, which
// does not report setup_s), discarding all but the last product, records
// the median duration as setup_s and returns that last product.
func timedSetup[T any](cfg Config, res *Result, prepare func() (T, error), discard func(T)) (T, error) {
	var last T
	reps := setupReps
	if cfg.Trace {
		reps = 1
	}
	durs := make([]float64, 0, reps)
	for rep := 0; rep < reps; rep++ {
		if rep > 0 {
			discard(last)
		}
		t0 := time.Now()
		v, err := prepare()
		if err != nil {
			return last, err
		}
		durs = append(durs, time.Since(t0).Seconds())
		last = v
	}
	res.setN("setup_s", stat.Median(durs), reps)
	return last, nil
}

// scratchDir makes a fresh directory under the run's scratch space.
func scratchDir(cfg Config, name string) (string, error) {
	dir := filepath.Join(cfg.Scratch, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", fmt.Errorf("workload: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("workload: %w", err)
	}
	return dir, nil
}

// dirBytes sums the sizes of the regular files directly inside dir (a
// store is a flat directory of shard files).
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("workload: %w", err)
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, fmt.Errorf("workload: %w", err)
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}

// writeTrace writes the workload's spans to OutDir/trace-<name>.json.
func writeTrace(cfg Config, name string, spans []span.Span) error {
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	return span.WriteFile(filepath.Join(cfg.OutDir, "trace-"+name+".json"),
		span.File{Workload: name, Seed: cfg.Seed, Spans: spans})
}

// reportTrace derives the metrics every traced run shares from its spans.
func (r *Result) reportTrace(spans []span.Span) span.ByName {
	agg := span.Aggregate(spans)
	r.set("trace.spans", float64(len(spans)))
	if agg.RootNs > 0 {
		r.set("trace.unaccounted_share", float64(agg.UnaccountedNs)/float64(agg.RootNs))
	}
	return agg
}

// ms converts nanosecond samples to milliseconds.
func ms(ns []int64) []float64 { return scale(ns, 1e6) }

// us converts nanosecond samples to microseconds.
func us(ns []int64) []float64 { return scale(ns, 1e3) }

func scale(ns []int64, div float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / div
	}
	return out
}

// setP50 reports the median of samples under name (nothing when empty).
func (r *Result) setP50(name string, samples []float64) {
	if len(samples) > 0 {
		r.setN(name, stat.Median(samples), len(samples))
	}
}

// setTail reports a percentile only when the sample supports it.
func (r *Result) setTail(name string, samples []float64, p float64) {
	if v, ok := stat.Percentile(stat.Sorted(samples), p); ok {
		r.setN(name, v, len(samples))
	}
}

// logf writes one progress line.
func logf(cfg Config, format string, args ...any) {
	if cfg.Log != nil {
		fmt.Fprintf(cfg.Log, format+"\n", args...)
	}
}

// sortedKeys returns m's keys in order, for deterministic output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// timeNs times fn.
func timeNs(fn func()) int64 {
	t0 := time.Now()
	fn()
	return time.Since(t0).Nanoseconds()
}
