package core

import (
	"fmt"
	"testing"
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
		tree := genTree(seed, 4, 8)
		tree.sortChildrenByBound()
		wantSum := tree.sum()
		seqOpt := Opt(Sequential, tree, testNode{}, tree.optProblem(true), Config{})

		for _, c := range coords {
			t.Run(fmt.Sprintf("seed=%d/%s", seed, c.name), func(t *testing.T) {
				sharded := audited(t, c.cfg) // one shard per worker
				single := sharded
				single.shards = 1 // the pre-sharding oracle

				for _, run := range []struct {
					name string
					cfg  Config
				}{{"sharded", sharded}, {"single-pool", single}} {
					enum := Enum(c.coord, tree, testNode{}, tree.enumProblem(), run.cfg)
					if enum.Value != wantSum {
						t.Fatalf("%s enum sum = %d, want %d", run.name, enum.Value, wantSum)
					}
					if enum.Stats.Nodes != int64(tree.size) {
						t.Fatalf("%s visited %d nodes, want exactly %d", run.name, enum.Stats.Nodes, tree.size)
					}
					opt := Opt(c.coord, tree, testNode{}, tree.optProblem(true), run.cfg)
					if opt.Objective != seqOpt.Objective {
						t.Fatalf("%s optimum = %d, sequential oracle %d", run.name, opt.Objective, seqOpt.Objective)
					}
					if opt.Stats.Nodes < 1 || opt.Stats.Nodes > int64(tree.size) {
						t.Fatalf("%s visited %d nodes, outside [1, %d]", run.name, opt.Stats.Nodes, tree.size)
					}
					// Conservation: every spawned task is either run
					// locally, robbed by a sibling shard, or stolen
					// across localities — counts must reconcile.
					if st := enum.Stats; st.LocalSteals+st.StealsOK > st.Spawns+1 {
						t.Fatalf("%s steals (%d local + %d remote) exceed spawns %d",
							run.name, st.LocalSteals, st.StealsOK, st.Spawns)
					}
				}
			})
		}
	}
}

// TestShardedDecisionOracle checks the decision search short-circuit
// under sharded pools: found/not-found must agree with the tree truth
// for both pool layouts.
func TestShardedDecisionOracle(t *testing.T) {
	tree := genTree(9, 4, 8)
	max := tree.max()
	for _, target := range []int64{max, max + 1} {
		wantFound := target <= max
		for _, shards := range []int{0, 1} {
			cfg := Config{Workers: 4, DCutoff: 2, shards: shards}
			res := Decide(DepthBounded, tree, testNode{}, tree.decisionProblem(target, false), cfg)
			if res.Found != wantFound {
				t.Fatalf("shards=%d target=%d: Found=%v, want %v", shards, target, res.Found, wantFound)
			}
			if wantFound && res.Objective < target {
				t.Fatalf("shards=%d: witness objective %d below target %d", shards, res.Objective, target)
			}
		}
	}
}
