package dynamics

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"lowlat/internal/engine"
	"lowlat/internal/graph"
	"lowlat/internal/routing"
	"lowlat/internal/sweep"
	"lowlat/internal/tm"
)

// growthNets are the control-loop workload's networks: a ring that a
// failure cuts into a line (every aggregate down to one path while the
// traffic still overloads it), a grid and a wheel.
var growthNets = []string{"ring-16", "grid-4x4", "wheel-16"}

// growthFixture resolves one of growthNets with its calibrated base
// matrix (seed 7, load 0.70), the matrices the control-loop workload
// replays.
func growthFixture(t *testing.T, name string) (*graph.Graph, *tm.Matrix) {
	t.Helper()
	net, err := sweep.ResolveNet(name)
	if err != nil {
		t.Fatal(err)
	}
	base, err := sweep.GenerateMatrix(net.Graph, 7, 0.70, 1, nil)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return net.Graph, base
}

func growthConfig(seed int64) Config {
	return Config{Seed: seed, Epochs: 6, Failures: FailRandom, Churn: ChurnDiurnal}
}

// timelinesDigest is the digest of the 24 FailRandom timelines (seeds
// 1-4 on every growthNets network, under MinMax and LatencyOpt), taken
// before path growth learned to stop at a round that added no path.
// Such a round re-solves the LP of the round before it, so stopping
// there must leave every timeline as it was.
const timelinesDigest = "b0e616cf98a624cb0f46109d1edabc9ea37132f3e314dc9ebd2200723a7b3e3a"

// TestFailRandomTimelinesPinned replays the failure timelines whose
// epochs exhaust their candidate paths while links stay overloaded and
// checks that every epoch's metrics read as they did.
func TestFailRandomTimelinesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("24 failure timelines: seconds of LP solves")
	}
	h := sha256.New()
	r := engine.NewRunner(2)
	for _, name := range growthNets {
		g, base := growthFixture(t, name)
		for _, scheme := range []routing.Scheme{routing.MinMax{}, routing.LatencyOpt{}} {
			for seed := int64(1); seed <= 4; seed++ {
				res, err := Run(context.Background(), r, g, base, scheme, growthConfig(seed))
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(h, "%s/%s/%d %+v\n", name, scheme.Name(), seed, *res)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != timelinesDigest {
		t.Fatalf("timelines digest %s, want %s", got, timelinesDigest)
	}
}

// ringMinMaxLPRunsBefore is how many LPs MinMax solved over ring-16's
// four FailRandom timelines when growth ran on through rounds that added
// no path: ring pairs have two candidate paths, so the round that asks
// for a third re-solved the LP of the round before.
const ringMinMaxLPRunsBefore = 24

// TestGrowthStopsWhenNoPathIsAdded counts MinMax's LP solves over
// ring-16's failure timelines, whose aggregates run out of candidate
// paths after two.
func TestGrowthStopsWhenNoPathIsAdded(t *testing.T) {
	g, base := growthFixture(t, "ring-16")
	runs := 0
	for seed := int64(1); seed <= 4; seed++ {
		states, err := timeline(g, base, growthConfig(seed).withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range states {
			_, stats, err := routing.MinMax{}.PlaceWithStats(st.g, st.m)
			if err != nil {
				t.Fatal(err)
			}
			runs += stats.LPRuns
		}
	}
	t.Logf("MinMax LP runs over ring-16's timelines: %d (%d before)", runs, ringMinMaxLPRunsBefore)
	if runs >= ringMinMaxLPRunsBefore {
		t.Fatalf("MinMax solved %d LPs over ring-16's timelines, want fewer than the %d it solved with stale rounds", runs, ringMinMaxLPRunsBefore)
	}
}
