package core

import (
	"fmt"
	"testing"

	"yewpar/internal/semantics"
)

// Oracle property test for the sharded workpools: on random seeded
// trees, the per-worker-sharded engine must explore exactly the same
// tree as the single shared depth pool per locality (the pre-sharding
// design, built here through Config's unexported shards override).
// Enumeration visits every node exactly once under any scheduling, so
// values AND node counts must match exactly; optimisation under pruning
// is timing-dependent in parallel, so optima must match exactly while
// node counts need only stay within the full-tree envelope.
func TestShardedPoolOracle(t *testing.T) {
	coords := []struct {
		name  string
		coord Coordination
		cfg   Config
	}{
		{"depthbounded", DepthBounded, Config{Workers: 4, DCutoff: 2}},
		{"budget", Budget, Config{Workers: 4, Budget: 25}},
		{"depthbounded-2loc", DepthBounded, Config{Workers: 4, Localities: 2, DCutoff: 2}},
	}
	for seed := int64(1); seed <= 5; seed++ {
		tree := semantics.GenTree(seed, 4, 8)
		sortByBound(tree)
		st := treeOf(fmt.Sprint("sorted GenTree ", seed), tree, true)
		for _, c := range coords {
			t.Run(fmt.Sprintf("seed=%d/%s", seed, c.name), func(t *testing.T) {
				for _, shards := range []int{0, 1} { // one per worker; the pre-sharding single pool
					cfg := c.cfg
					cfg.shards = shards
					scenario{tree: st, search: enumerate, coord: c.coord, cfg: cfg, extra: func(t *testing.T, o outcome) {
						// Conservation: every spawned task is either run
						// locally, robbed by a sibling shard, or stolen
						// across localities — counts must reconcile.
						if s := o.stats; s.LocalSteals+s.StealsOK > s.Spawns+1 {
							t.Errorf("shards=%d: steals (%d local + %d remote) exceed spawns %d", shards, s.LocalSteals, s.StealsOK, s.Spawns)
						}
					}}.run(t)
					scenario{tree: st, search: optimise, coord: c.coord, cfg: cfg}.run(t)
				}
			})
		}
	}
}

// TestShardedDecisionOracle checks the decision search short-circuit
// under sharded pools: found/not-found must agree with the tree truth
// for both pool layouts.
func TestShardedDecisionOracle(t *testing.T) {
	st := treeOf("GenTree(9, 4, 8), unbounded", semantics.GenTree(9, 4, 8), false)
	max, _ := st.truth(decide)
	for _, target := range []int64{max, max + 1} {
		for _, shards := range []int{0, 1} {
			scenario{tree: st, search: decide, target: target, coord: DepthBounded, cfg: Config{Workers: 4, DCutoff: 2, shards: shards}}.run(t)
		}
	}
}
