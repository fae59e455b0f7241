package topo

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"testing"

	"lowlat/internal/graph"
)

// The sweep grid's generator terms (randomgeo:, multiregion:) lean on the
// seeded generators being exactly reproducible: the same seed must
// rebuild the same graph (equal fingerprints), and different seeds must
// diverge, or the store's content-addressed keys would alias distinct
// topologies.

func TestRandomGeoSeedDeterminism(t *testing.T) {
	build := func(seed int64) uint64 {
		return RandomGeo("rg", 24, 3200, 2300, 0.4, 0.3, Cap10G, seed).Fingerprint()
	}
	if a, b := build(7), build(7); a != b {
		t.Fatalf("same seed diverged: %016x vs %016x", a, b)
	}
	if a, b := build(7), build(8); a == b {
		t.Fatalf("different seeds collided on %016x", a)
	}
	// The fingerprint covers the name too; same structure under another
	// name is a different store identity by design.
	other := RandomGeo("rg2", 24, 3200, 2300, 0.4, 0.3, Cap10G, 7).Fingerprint()
	if other == build(7) {
		t.Fatal("renamed graph kept the same fingerprint")
	}
}

func TestMultiRegionSeedDeterminism(t *testing.T) {
	build := func(seed int64) uint64 {
		return MultiRegion("mr", 2, 8, 1600, 5200, 3, Cap40G, Cap100G, seed).Fingerprint()
	}
	if a, b := build(5), build(5); a != b {
		t.Fatalf("same seed diverged: %016x vs %016x", a, b)
	}
	if a, b := build(5), build(6); a == b {
		t.Fatalf("different seeds collided on %016x", a)
	}
}

// TestZooMeshRebuildStable pins the zoo's own seeded families: building a
// zoo entry twice gives identical graphs, which LoadZoo and every
// content-addressed store key depend on.
func TestZooMeshRebuildStable(t *testing.T) {
	for _, name := range []string{"mesh-12-sparse", "mesh-12-dense", "intercont-2x8-2"} {
		e, ok := ByName(name)
		if !ok {
			t.Fatalf("zoo entry %s missing", name)
		}
		if a, b := e.Build().Fingerprint(), e.Build().Fingerprint(); a != b {
			t.Fatalf("%s rebuild diverged: %016x vs %016x", name, a, b)
		}
	}
}

// fingerprintGolden pins Graph.Fingerprint of every zoo net, of
// GoogleLike and of the seeded generator cases above. Every cell key,
// memo key and matrix digest starts from a fingerprint, and a
// fingerprint hashes raw float bits (link delays from geo.DistanceKm,
// generated coordinates), so an entry that moved moved every stored
// result of its net: say which and why, and rewrite the file with
// UPDATE_GOLDEN=1.
const fingerprintGolden = "testdata/fingerprints.json"

func TestZooFingerprintsPinned(t *testing.T) {
	got := map[string]string{}
	pin := func(name string, g *graph.Graph) { got[name] = fmt.Sprintf("%016x", g.Fingerprint()) }
	for _, e := range Zoo() {
		pin(e.Name, e.Build())
	}
	pin("google-like", GoogleLike())
	for _, seed := range []int64{7, 8} {
		pin(fmt.Sprintf("randomgeo/rg/%d", seed), RandomGeo("rg", 24, 3200, 2300, 0.4, 0.3, Cap10G, seed))
	}
	pin("randomgeo/rg2/7", RandomGeo("rg2", 24, 3200, 2300, 0.4, 0.3, Cap10G, 7))
	for _, seed := range []int64{5, 6} {
		pin(fmt.Sprintf("multiregion/mr/%d", seed), MultiRegion("mr", 2, 8, 1600, 5200, 3, Cap40G, Cap100G, seed))
	}

	if os.Getenv("UPDATE_GOLDEN") == "1" {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fingerprintGolden, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(fingerprintGolden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", fingerprintGolden, err)
	}
	keys := make([]string, 0, len(got))
	for name := range got {
		keys = append(keys, name)
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			keys = append(keys, name)
		}
	}
	sort.Strings(keys)
	moved := 0
	for _, name := range keys {
		if got[name] != want[name] {
			moved++
			t.Errorf("%s: fingerprint %q, %s records %q", name, got[name], fingerprintGolden, want[name])
		}
	}
	if moved > 0 {
		t.Errorf("%d of %d fingerprints moved", moved, len(keys))
	}
}
