// Command lowlatd is the query-serving daemon: it mounts a placement
// backend — a result store, or a consistent-hash cluster of other
// lowlatds — and answers landscape questions over HTTP: filtered cell
// listings, per-class CDF summaries, and on-demand placement of cells no
// sweep has computed yet, which it persists so the next request (from
// any client) is a hit.
//
// Usage:
//
//	lowlatd -store results                        serve on 127.0.0.1:8080
//	lowlatd -store results -addr 127.0.0.1:0      ephemeral port (printed)
//	lowlatd -store results -readonly              never write the store
//	lowlatd -store results -predict               train landscape surfaces at startup;
//	                                              trained-region placements answer in
//	                                              microseconds ("source": "predicted")
//	lowlatd -store results -predict -predict-refine
//	                                              also solve each predicted cell in the
//	                                              background and keep the ground truth
//	lowlatd -cluster http://h1:8080,http://h2:8080
//	                                              front a sharded cluster:
//	                                              this daemon holds no store,
//	                                              it routes by content key
//	lowlatd -cluster ... -replicas 2              replicated cluster front: every
//	                                              cell is written to its key's 2
//	                                              ring owners, reads repair stale
//	                                              copies, hinted handoff carries
//	                                              writes across replica downtime
//	lowlatd -cluster ... -replicas 2 -anti-entropy 1m
//	                                              also heal in the background:
//	                                              every interval, exchange key
//	                                              digests and copy cells onto
//	                                              owners missing them
//	lowlatd -store results -log json              structured request logs on
//	                                              stderr: one slog line per
//	                                              request with its X-Request-ID
//	                                              and per-stage timings
//	lowlatd -store results -slow 100ms            requests at or above 100ms
//	                                              land in the /v1/slow ring
//	lowlatd -store results -slo "http_place p99 < 50ms over 5m, error_rate < 1% over 1h"
//	                                              declare SLOs: /v1/health rolls
//	                                              their burn rates into
//	                                              ok/degraded/critical, /metrics
//	                                              gains lowlat_slo_* gauges
//	lowlatd -store results -debug-addr 127.0.0.1:0
//	                                              second listener for operators:
//	                                              /debug/pprof/* and /metrics
//
// Endpoints (all JSON unless noted):
//
//	GET  /healthz                       liveness + store cell count
//	GET  /v1/query?net=&class=&scheme=&seed=&headroom=
//	GET  /v1/cell?key=<cell key>
//	GET  /v1/summary?points=11&...      per-class CDFs over the filter
//	POST /v1/place                      {"net","seed","scheme","headroom","load","locality"}
//	POST /v1/replicate                  accept one computed cell from a cluster peer
//	GET  /v1/digest?keys=1              key-set digest (and keys) for anti-entropy
//	GET  /v1/stats                      counters + per-stage latency quantiles + rolling windows
//	GET  /v1/slow                       recent requests over the -slow threshold
//	GET  /v1/health                     readiness: SLO states, burn rates, down replicas
//	GET  /v1/events?since=&limit=       state-transition journal (replica folds on cluster fronts)
//	GET  /v1/watch?interval=2s          live snapshot stream (SSE, not JSON-per-request)
//	GET  /metrics                       Prometheus text format (not JSON)
//
// The daemon keeps one event journal across its serving and cluster
// layers, so a front's /v1/events interleaves replica down/up, hint and
// heal transitions with its own SLO and health changes.
//
// A flag that does nothing in the chosen mode exits 2: -workers,
// -max-inflight or -readonly with -cluster; -replicas or -anti-entropy
// with -store; -workers or -max-inflight with -readonly; -predict-refine
// without -predict or with -readonly.
//
// SIGINT/SIGTERM shut the daemon down gracefully, draining in-flight
// requests.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"lowlat/internal/backend"
	"lowlat/internal/cluster"
	"lowlat/internal/obs"
	"lowlat/internal/serve"
	"lowlat/internal/store"
	"lowlat/internal/sweep"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one daemon invocation and returns the process exit code:
// 0 on clean shutdown, 1 on runtime errors, 2 on usage errors. Keeping
// every exit path in a context-cancellable function makes the daemon
// testable end to end without processes or signals.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lowlatd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	storeDir := fs.String("store", "", "result-store directory (required unless -cluster)")
	clusterSpec := fs.String("cluster", "", "comma-separated lowlatd base URLs to front with a consistent-hash ring (replaces -store)")
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (port 0 picks one; the bound address is printed)")
	readonly := fs.Bool("readonly", false, "mount the store read-only: /v1/place serves stored cells but never computes")
	workers := fs.Int("workers", 0, "engine worker pool size (0 = one per CPU)")
	maxInflight := fs.Int("max-inflight", 0, "admitted place computations before 429 (0 = 4x workers)")
	cacheSize := fs.Int("cache", 0, "LRU response-cache entries (0 = 512)")
	drain := fs.Duration("drain", 15*time.Second, "graceful-shutdown drain timeout")
	predictFlag := fs.Bool("predict", false, "enable the landscape-interpolation fast path: train surfaces from the mounted cells at startup and answer trained-region /v1/place requests in microseconds, falling back to the exact path outside them")
	predictRefine := fs.Bool("predict-refine", false, "with -predict: queue a background exact solve for each predicted answer so ground truth replaces the estimate")
	replicas := fs.Int("replicas", 1, "with -cluster: ownership factor R — every cell is written to its key's first R ring owners, reads repair stale copies, hinted handoff carries writes across downtime (1 = single-owner sharding)")
	antiEntropy := fs.Duration("anti-entropy", 0, "with -cluster and -replicas > 1: background heal-sweep interval — exchange key digests and copy cells onto owners missing them (0 = off)")
	logFormat := fs.String("log", "off", "structured request logging on stderr: off | text | json (one slog line per request with its X-Request-ID and stage timings)")
	slowThreshold := fs.Duration("slow", 0, "requests at or above this duration land in the /v1/slow ring (0 = the 500ms default, negative = off)")
	sloSpec := fs.String("slo", "", "comma-separated service-level objectives evaluated into /v1/health and lowlat_slo_* gauges, e.g. \"http_place p99 < 50ms over 5m, error_rate < 1% over 1h\"")
	sloPage := fs.Float64("slo-page", 0, "burn rate both SLO windows must reach before an objective pages (0 = the default 2)")
	journalSize := fs.Int("journal", 0, "event-journal entries retained for /v1/events (0 = 1024)")
	debugAddr := fs.String("debug-addr", "", "optional second listener for operators: /debug/pprof/* and /metrics (port 0 picks one; the bound address is printed)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *storeDir != "" && *clusterSpec != "" {
		fmt.Fprintln(stderr, "lowlatd: -store and -cluster are mutually exclusive")
		return 1
	}
	if *storeDir == "" && *clusterSpec == "" {
		fmt.Fprintln(stderr, "lowlatd: -store is required (or -cluster to front other daemons)")
		return 1
	}
	// A flag that does nothing in the chosen mode is a usage error, not a
	// silent no-op.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	mode, inert := "-store", []string{"replicas", "anti-entropy"}
	if *clusterSpec != "" {
		mode, inert = "-cluster", []string{"workers", "max-inflight", "readonly"}
	} else if *readonly {
		// A read-only mount never computes: no engine to size, nothing
		// to admit.
		mode, inert = "-readonly", append(inert, "workers", "max-inflight")
	}
	for _, name := range inert {
		if set[name] {
			fmt.Fprintf(stderr, "lowlatd: -%s has no effect with %s\n", name, mode)
			return 2
		}
	}
	if *predictRefine && !*predictFlag {
		fmt.Fprintln(stderr, "lowlatd: -predict-refine needs -predict")
		return 2
	}
	if *predictRefine && *readonly {
		fmt.Fprintln(stderr, "lowlatd: -predict-refine cannot persist into a -readonly store")
		return 2
	}

	var logger *slog.Logger
	switch *logFormat {
	case "off", "":
		// No request logging: the pre-observability default, and what the
		// daemon's own progress lines on stdout assume.
	case "text":
		logger = slog.New(slog.NewTextHandler(stderr, nil))
	case "json":
		logger = slog.New(slog.NewJSONHandler(stderr, nil))
	default:
		fmt.Fprintf(stderr, "lowlatd: -log must be off, text or json (got %q)\n", *logFormat)
		return 2
	}

	objectives, err := obs.ParseObjectives(*sloSpec)
	if err != nil {
		fmt.Fprintf(stderr, "lowlatd: -slo: %v\n", err)
		return 2
	}
	// One journal across the serving and cluster layers: replica
	// transitions and SLO/health changes interleave in /v1/events.
	journal := obs.NewJournal(*journalSize)

	// The backend stack is assembled here, in one place for both modes:
	// a store or cluster backend, then optionally the predictive tier.
	var b backend.Backend
	var serving string
	if *clusterSpec != "" {
		// Cluster front: this daemon holds no store of its own — every
		// request routes to the replica owning its content key, so
		// daemons compose into a sharded serving tier.
		cb, err := cluster.FromSpec(*clusterSpec, serve.RemoteOptions{}, cluster.Options{
			Replicas:            *replicas,
			AntiEntropyInterval: *antiEntropy,
			Journal:             journal,
		})
		if err != nil {
			fmt.Fprintf(stderr, "lowlatd: %v\n", err)
			return 1
		}
		// Close stops the background anti-entropy sweeper with the daemon;
		// the shutdown summary below reads the final counters first.
		defer func() {
			cb.Close()
			if cb.ReplicaFactor() > 1 {
				cs := cb.Stats()
				fmt.Fprintf(stdout, "lowlatd: replication R=%d: %d replicated, %d read-repaired, hints %d queued / %d drained / %d dropped / %d pending, %d healed in %d sweeps\n",
					cs.ReplicaFactor, cs.Replicated, cs.ReadRepairs,
					cs.HintsQueued, cs.HintsDrained, cs.HintsDropped, cs.HintsPending,
					cs.Healed, cs.HealSweeps)
			}
		}()
		b = cb
		replication := ""
		if cb.ReplicaFactor() > 1 {
			replication = fmt.Sprintf(", R=%d", cb.ReplicaFactor())
			if *antiEntropy > 0 {
				replication += fmt.Sprintf(", anti-entropy every %s", *antiEntropy)
			}
		}
		serving = fmt.Sprintf("cluster of %d replicas (%s)%s", len(cb.Labels()), strings.Join(cb.Labels(), ", "), replication)
	} else {
		var st *store.Store
		var err error
		if *readonly {
			st, err = store.OpenReadOnly(*storeDir)
		} else {
			st, err = store.Open(*storeDir)
		}
		if err != nil {
			fmt.Fprintf(stderr, "lowlatd: %v\n", err)
			return 1
		}
		defer st.Close()
		if n := st.Skipped(); n > 0 {
			fmt.Fprintf(stderr, "lowlatd: store %s: skipped %d corrupt line(s) from an interrupted run\n", *storeDir, n)
		}
		access := "read-write"
		if *readonly {
			access = "read-only"
		}
		b = backend.NewLocal(st, backend.LocalOptions{Workers: *workers, MaxInflight: *maxInflight})
		serving = fmt.Sprintf("store %s (%d cells, %d memo entries, %s)",
			*storeDir, st.Len(), st.MemoLen(), access)
	}
	if *predictFlag {
		// A predictive tier: train from every cell the backend holds (one
		// query; a cluster front fans it out to its replicas) and answer
		// trained-region placements here, without a solve or a round trip
		// to any replica.
		var results []store.Result
		if cq, ok := b.(backend.ContextQuerier); ok {
			if results, err = cq.QueryContext(ctx, sweep.Filter{}); err != nil {
				fmt.Fprintf(stderr, "lowlatd: training fan-out: %v\n", err)
				return 1
			}
		} else {
			results = b.Query(sweep.Filter{})
		}
		pb := backend.NewPredictive(b, backend.PredictiveOptions{Refine: *predictRefine})
		pb.Train(results)
		// Registered after the store and cluster cleanups, so the
		// refinement worker stops before either closes.
		defer pb.Close()
		b = pb
		surfaces, samples := pb.Index().Len()
		serving += fmt.Sprintf(", predicting over %d surfaces / %d samples", surfaces, samples)
	}
	srv := serve.NewBackendServer(b, serve.Options{
		CacheSize:     *cacheSize,
		DrainTimeout:  *drain,
		Logger:        logger,
		SlowThreshold: *slowThreshold,
		Objectives:    objectives,
		SLOPageBurn:   *sloPage,
		Journal:       journal,
	})

	if *debugAddr != "" {
		// The debug listener is a second, separately-bindable surface so
		// operators can firewall profiling away from the serving port: the
		// explicit pprof handlers (nothing rides the DefaultServeMux) plus
		// the same /metrics the main listener exposes.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dmux.Handle("/metrics", srv.Handler())
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintf(stderr, "lowlatd: debug listener: %v\n", err)
			return 1
		}
		defer dln.Close()
		fmt.Fprintf(stdout, "lowlatd: debug endpoints (pprof, metrics) on http://%s\n", dln.Addr())
		//nolint:goexit // debug listener is process-lifetime; exit tears it down with dln closed by the deferred Close
		go func() { _ = http.Serve(dln, dmux) }()
	}

	err = srv.ListenAndServe(ctx, *addr, func(bound net.Addr) {
		fmt.Fprintf(stdout, "lowlatd: serving %s on http://%s\n", serving, bound)
	})
	if err != nil {
		fmt.Fprintf(stderr, "lowlatd: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, "lowlatd: shut down cleanly")
	return 0
}
