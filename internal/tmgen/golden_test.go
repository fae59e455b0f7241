package tmgen_test

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"testing"

	"lowlat/internal/store"
	"lowlat/internal/tmgen"
	"lowlat/internal/topo"
)

// goldenFile pins the matrix every zoo net of at most goldenMaxNodes nodes
// gets at seeds 0..goldenSeeds-1 under the default Config: its
// store.MatrixDigest (the key every stored cell is filed under) and the
// exact bits of its scale factor. An entry that moves moved a stored
// matrix: say which and why, and rewrite the file with UPDATE_GOLDEN=1.
const (
	goldenFile     = "testdata/digests.json"
	goldenMaxNodes = 20
	goldenSeeds    = 4
)

// goldenEntry is one pinned matrix.
type goldenEntry struct {
	Matrix store.Digest `json:"matrix"`
	Scale  string       `json:"scale_bits"`
}

func TestMatrixDigestsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("generates every small zoo matrix")
	}
	got := map[string]goldenEntry{}
	for _, e := range topo.Zoo() {
		g := e.Build()
		if g.NumNodes() > goldenMaxNodes {
			continue
		}
		for seed := int64(0); seed < goldenSeeds; seed++ {
			res, err := tmgen.Generate(g, tmgen.Config{Seed: seed})
			if err != nil {
				t.Fatalf("%s seed %d: %v", e.Name, seed, err)
			}
			got[fmt.Sprintf("%s/%d", e.Name, seed)] = goldenEntry{
				Matrix: store.MatrixDigest(g, res.Matrix),
				Scale:  fmt.Sprintf("%016x", math.Float64bits(res.ScaleFactor)),
			}
		}
	}

	if os.Getenv("UPDATE_GOLDEN") == "1" {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create)", err)
	}
	var want map[string]goldenEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", goldenFile, err)
	}
	keys := make([]string, 0, len(got))
	for key := range got {
		keys = append(keys, key)
	}
	for key := range want {
		if _, ok := got[key]; !ok {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	for _, key := range keys {
		g, generated := got[key]
		w, recorded := want[key]
		switch {
		case !recorded:
			t.Errorf("%s: generated, missing from %s", key, goldenFile)
		case !generated:
			t.Errorf("%s: recorded in %s, no longer generated", key, goldenFile)
		case g != w:
			t.Errorf("%s moved: %+v, %s records %+v", key, g, goldenFile, w)
		}
	}
}
