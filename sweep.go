package lowlat

import (
	"context"
	"io"

	"lowlat/internal/store"
	"lowlat/internal/sweep"
)

// This file is the persistence half of the public facade: the
// content-addressed scenario-result store and the resumable sweep
// orchestrator built on it. A sweep writes each finished (network,
// matrix, scheme) cell into the store as it lands, so an interrupted run
// rerun against the same store computes only the missing cells, and the
// accumulated results can be sliced into CSV/JSON at any time.

// ResultStore is the append-only, sharded, crash-tolerant on-disk store
// of scenario results, indexed in memory and keyed by content (graph
// fingerprint, traffic-matrix digest, scheme name and configuration).
type ResultStore = store.Store

// CellKey is the content-derived address of one scenario cell.
type CellKey = store.CellKey

// SweepGrid declares a sweep's cross-product: topologies x matrix seeds x
// schemes x headroom points.
type SweepGrid = sweep.Grid

// SweepOptions tunes RunSweep (worker pool width, forced recomputation,
// progress hooks).
type SweepOptions = sweep.Options

// SweepReport counts a sweep's planned, reused, computed and failed
// cells.
type SweepReport = sweep.Report

// SweepFilter selects a slice of a result store for query and export.
type SweepFilter = sweep.Filter

// OpenResultStore opens (creating if needed) a result store directory and
// rebuilds its index; lines torn by an interrupted writer are skipped and
// counted on the returned store's Skipped method.
func OpenResultStore(dir string) (*ResultStore, error) { return store.Open(dir) }

// ParseSweepGrid parses the compact grid syntax
// ("nets=gts-like,ring-12;seeds=1,2;schemes=sp,ldr;headrooms=0,0.11").
func ParseSweepGrid(spec string) (SweepGrid, error) { return sweep.ParseGrid(spec) }

// RunSweep expands the grid, skips every cell st already holds, places
// the missing cells across a bounded worker pool and checkpoints each
// result into st the moment it lands. Killing the process mid-sweep loses
// at most the cells still in flight: the next RunSweep against the same
// store resumes where the last one stopped.
func RunSweep(ctx context.Context, st *ResultStore, grid SweepGrid, opts SweepOptions) (*SweepReport, error) {
	return sweep.Run(ctx, st, grid, opts)
}

// ExportSweep writes the filtered slice of the store as "csv" or "json".
// Equal store contents export byte-identical bytes, however (and in
// however many interrupted runs) they were computed.
func ExportSweep(w io.Writer, st *ResultStore, f SweepFilter, format string) error {
	return sweep.Export(w, st, f, format)
}
