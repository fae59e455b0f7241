package sweep

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"

	"lowlat/internal/store"
)

func exportResults() []store.Result {
	return []store.Result{
		{
			Key: store.CellKey{Graph: 0x0a, Matrix: 0x01, Scheme: "sp", Config: 0xf1},
			Meta: store.Meta{Net: "star-6", Class: "star", Seed: 1, Scheme: "sp",
				Load: 0.75, Locality: 1},
			Metrics: store.Metrics{Congested: 0.25, Stretch: 1.5, MaxStretch: 2, MaxUtil: 0.9},
		},
		{
			Key: store.CellKey{Graph: 0x0b, Matrix: 0x02, Scheme: "ldr", Config: 0xf2},
			Meta: store.Meta{Net: "ring-8", Class: "ring", Seed: 2, Scheme: "ldr",
				Headroom: 0.1, Load: 0.75, Locality: 1},
			Metrics: store.Metrics{Stretch: 1.25, MaxStretch: 1.5, MaxUtil: 0.5, Fits: true},
		},
	}
}

// TestExportJSONRoundTrip pins that the JSON exporter loses nothing:
// WriteJSON then a plain encoding/json decode reproduces the slice
// exactly, including the content keys (digests survive the hex wire
// form).
func TestExportJSONRoundTrip(t *testing.T) {
	want := exportResults()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, want); err != nil {
		t.Fatal(err)
	}
	var got []store.Result
	if err := json.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("round trip returned %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("result %d changed in round trip:\n%+v\n%+v", i, got[i], want[i])
		}
	}
}

// TestExportEmptyConsistency pins the empty-export contract across both
// formats: CSV always writes its header row (zero data rows), JSON
// always writes "[]" — never null, never a bare empty file — so scripts
// downstream of `lowlat export` parse an empty store the same way in
// either format, local or remote.
func TestExportEmptyConsistency(t *testing.T) {
	for _, results := range [][]store.Result{nil, {}} {
		var csvBuf, jsonBuf bytes.Buffer
		if err := ExportResults(&csvBuf, results, "csv"); err != nil {
			t.Fatal(err)
		}
		if err := ExportResults(&jsonBuf, results, "json"); err != nil {
			t.Fatal(err)
		}

		rows, err := csv.NewReader(bytes.NewReader(csvBuf.Bytes())).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 {
			t.Fatalf("empty CSV export has %d rows, want exactly the header", len(rows))
		}
		for i, col := range csvHeader {
			if rows[0][i] != col {
				t.Fatalf("header column %d = %q, want %q", i, rows[0][i], col)
			}
		}

		if got := strings.TrimSpace(jsonBuf.String()); got != "[]" {
			t.Fatalf("empty JSON export = %q, want []", got)
		}
		var back []store.Result
		if err := json.Unmarshal(jsonBuf.Bytes(), &back); err != nil {
			t.Fatal(err)
		}
		if len(back) != 0 {
			t.Fatalf("empty JSON round trip returned %d results", len(back))
		}
	}

	if err := ExportResults(&bytes.Buffer{}, nil, "yaml"); err == nil {
		t.Fatal("unknown format accepted")
	}
}

// TestExportCSVRoundTripColumns pins that a non-empty CSV export carries
// one row per cell under the same always-present header, with the cell
// key in the last column parseable back to the original.
func TestExportCSVRoundTripColumns(t *testing.T) {
	results := exportResults()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, results); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(bytes.NewReader(buf.Bytes())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(results)+1 {
		t.Fatalf("%d rows for %d results", len(rows), len(results))
	}
	for i, r := range results {
		row := rows[i+1]
		if row[0] != r.Meta.Net || row[4] != r.Meta.Scheme {
			t.Fatalf("row %d = %v for %+v", i, row, r.Meta)
		}
		key, err := store.ParseCellKey(row[len(row)-1])
		if err != nil {
			t.Fatal(err)
		}
		if key != r.Key {
			t.Fatalf("row %d key %v, want %v", i, key, r.Key)
		}
	}
}
