package sweep

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"lowlat/internal/store"
)

// Filter selects a slice of the store. Zero fields match everything.
type Filter struct {
	// Net keeps cells whose network name contains this substring.
	Net string
	// Class keeps cells of one topology class (exact match).
	Class string
	// Scheme keeps cells of one scheme name (exact match).
	Scheme string
	// Seed, when non-nil, keeps cells of one matrix seed.
	Seed *int64
	// Headroom, when non-nil, keeps cells at one headroom point.
	Headroom *float64
}

// Match reports whether a stored result passes the filter.
func (f Filter) Match(r store.Result) bool {
	if f.Net != "" && !strings.Contains(r.Meta.Net, f.Net) {
		return false
	}
	if f.Class != "" && r.Meta.Class != f.Class {
		return false
	}
	if f.Scheme != "" && r.Meta.Scheme != f.Scheme {
		return false
	}
	if f.Seed != nil && r.Meta.Seed != *f.Seed {
		return false
	}
	if f.Headroom != nil && r.Meta.Headroom != *f.Headroom {
		return false
	}
	return true
}

// Query returns the matching cells in the store's deterministic order.
func Query(st *store.Store, f Filter) []store.Result {
	var out []store.Result
	for _, r := range st.Results() {
		if f.Match(r) {
			out = append(out, r)
		}
	}
	return out
}

// csvHeader is the export column set, one column per Meta and Metrics
// field plus the cell key.
var csvHeader = []string{
	"net", "class", "seed", "tm", "scheme", "headroom", "load", "locality",
	"congested", "stretch", "max_stretch", "max_util", "fits", "key",
}

// WriteCSV renders results as CSV. The header row is always written,
// even for zero results — the empty-store export is a valid CSV file
// with columns and no rows, mirroring WriteJSON's "[]", so downstream
// scripts never special-case emptiness. Floats use the shortest exact
// representation, so identical stores export identical bytes.
func WriteCSV(w io.Writer, results []store.Result) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for _, r := range results {
		rec := []string{
			r.Meta.Net,
			r.Meta.Class,
			strconv.FormatInt(r.Meta.Seed, 10),
			strconv.Itoa(r.Meta.TM),
			r.Meta.Scheme,
			fg(r.Meta.Headroom),
			fg(r.Meta.Load),
			fg(r.Meta.Locality),
			fg(r.Metrics.Congested),
			fg(r.Metrics.Stretch),
			fg(r.Metrics.MaxStretch),
			fg(r.Metrics.MaxUtil),
			strconv.FormatBool(r.Metrics.Fits),
			r.Key.String(),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON renders results as a JSON array, one object per cell, in
// store order. Zero results render as "[]", never "null" — the JSON
// counterpart of WriteCSV's always-present header. Each element is the
// canonical store.Result wire form (the same bytes a shard line or a
// daemon response carries, indented).
func WriteJSON(w io.Writer, results []store.Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if results == nil {
		results = []store.Result{}
	}
	return enc.Encode(results)
}

// ExportResults writes a result slice in the named format ("csv" or
// "json"), however the slice was obtained — a local store query, a
// remote daemon, a cluster fan-out.
func ExportResults(w io.Writer, results []store.Result, format string) error {
	switch format {
	case "csv":
		return WriteCSV(w, results)
	case "json":
		return WriteJSON(w, results)
	}
	return fmt.Errorf("sweep: unknown export format %q (want csv or json)", format)
}

// Export writes the filtered slice of the store in the named format
// ("csv" or "json").
func Export(w io.Writer, st *store.Store, f Filter, format string) error {
	return ExportResults(w, Query(st, f), format)
}

func fg(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
