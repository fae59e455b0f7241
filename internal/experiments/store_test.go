package experiments

import (
	"bytes"
	"strings"
	"testing"

	"lowlat/internal/graph"
	"lowlat/internal/store"
	"lowlat/internal/topo"
)

// storeTestConfig keeps the store-backed figure runs tiny while giving
// every placement figure a cell: star-6 is low-LLPD and not a clique
// (fig20's candidate pool), clique-6 has LLPD 0.6 (fig16(b)/(c),
// fig17, fig18); fig7 always places gts-like.
func storeTestConfig() Config {
	return Config{
		TMsPerTopology: 2,
		Workers:        1,
		NetworkFilter: func(n Network) bool {
			return n.Name == "star-6" || n.Name == "clique-6"
		},
	}
}

func runTable(t *testing.T, name string, cfg Config) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Run(name, cfg, &buf); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return buf.Bytes()
}

// TestStoreBackedParity pins the store-backed mode's contract for every
// placement figure: output is byte-identical with and without a store,
// the store holds the figure's cells, and a second run against the same
// store recalls every cell instead of recomputing it.
func TestStoreBackedParity(t *testing.T) {
	for _, name := range []string{"fig3", "fig4", "fig7", "fig8", "fig16", "fig17", "fig18", "fig19", "fig20"} {
		t.Run(name, func(t *testing.T) {
			if testing.Short() && name != "fig3" {
				t.Skip("places every cell twice; skipped in -short")
			}
			plain := runTable(t, name, storeTestConfig())

			dir := t.TempDir()
			st, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			cfg := storeTestConfig()
			cfg.Backend = st
			if backed := runTable(t, name, cfg); !bytes.Equal(plain, backed) {
				t.Fatalf("store-backed output differs:\n--- plain\n%s\n--- backed\n%s", plain, backed)
			}
			filled := st.Len()
			if filled == 0 {
				t.Fatal("store holds no cells")
			}
			switch name {
			case "fig3":
				if filled != 4 { // 2 networks x 2 matrices x 1 scheme
					t.Fatalf("store holds %d cells after fig3, want 4", filled)
				}
			case "fig8":
				if filled != 16 { // 2 networks x 4 headrooms x 2 matrices
					t.Fatalf("store holds %d cells after fig8, want 16", filled)
				}
			case "fig16":
				// 2 networks x 2 matrices x 4 schemes for (a)/(b), plus
				// clique-6's headroom-dialled B4 and LDR for (c): its
				// MinMax cells are (b)'s, recalled rather than re-placed.
				if filled != 20 {
					t.Fatalf("store holds %d cells after fig16, want 20 distinct", filled)
				}
			}
			if again := runTable(t, name, cfg); !bytes.Equal(plain, again) {
				t.Fatal("second store-backed run differs")
			}
			if st.Len() != filled {
				t.Fatalf("second run grew the store from %d to %d cells", filled, st.Len())
			}
			if name == "fig3" {
				st.Close()
				checkRecall(t, dir, plain)
			}
		})
	}
}

// checkRecall poisons one stored fig3 cell and watches the sentinel
// surface in the table: the driver read the store, not the solver.
func checkRecall(t *testing.T, dir string, plain []byte) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	victim := st.Results()[0]
	victim.Metrics.Stretch = 77.777
	if err := st.Put(victim); err != nil {
		t.Fatal(err)
	}
	cfg := storeTestConfig()
	cfg.Backend = st
	poisoned := runTable(t, "fig3", cfg)
	if bytes.Equal(plain, poisoned) {
		t.Fatal("poisoned store did not change the output: cells were recomputed, not recalled")
	}
	if !strings.Contains(string(poisoned), "77.777") {
		t.Fatalf("sentinel stretch missing from output:\n%s", poisoned)
	}
}

// TestFigureKeysAreKeyFor: placeGrid keys every scheme's cell by the
// digest its matrix's generation hashed. That digest must be the
// store.MatrixDigest of the matrix on the network's own graph and on the
// graph Fig 20 grows from it, so every figure key is the store.KeyFor a
// fresh hash gives and stores written before keep resuming.
func TestFigureKeysAreKeyFor(t *testing.T) {
	cfg := storeTestConfig().withDefaults()
	for _, n := range cfg.networks() {
		set, err := cfg.matrices(n, nil)
		if err != nil {
			t.Fatal(err)
		}
		grown, _ := topo.Grow(n.Graph, topo.GrowConfig{Fraction: 0.05, Seed: cfg.Seed, CandidateSample: 16})
		for i, m := range set.ms {
			for _, g := range []*graph.Graph{n.Graph, grown} {
				if got := store.MatrixDigest(g, m); got != set.digests[i] {
					t.Fatalf("%s tm %d: generation digest %v, MatrixDigest on %d links %v",
						n.Name, i, set.digests[i], g.NumLinks(), got)
				}
			}
		}
	}
}
