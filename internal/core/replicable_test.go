package core

import (
	"testing"

	"yewpar/internal/semantics"
)

func TestReplicableOptFindsMax(t *testing.T) {
	for _, seed := range []int64{1, 3, 23, 31, 47} {
		tree := semantics.GenTree(seed, 4, 9)
		want := int64(tree.Max())
		for _, cutoff := range []int{1, 2, 3} {
			res := ReplicableOpt(tree, "", optProblem(true),
				Config{Workers: 6, DCutoff: cutoff})
			if !res.Found || res.Objective != want {
				t.Errorf("seed %d d=%d: got %d (found=%v), want %d",
					seed, cutoff, res.Objective, res.Found, want)
			}
		}
	}
}

// The defining property: visited-node counts are identical across
// repeated runs AND across worker counts — no performance anomalies.
func TestReplicableOptDeterministicNodeCounts(t *testing.T) {
	tree := semantics.GenTree(11, 5, 10)
	p := optProblem(true)
	var reference int64
	for run := 0; run < 3; run++ {
		for _, workers := range []int{1, 2, 7, 16} {
			res := ReplicableOpt(tree, "", p, Config{Workers: workers, DCutoff: 2})
			if reference == 0 {
				reference = res.Stats.Nodes
				continue
			}
			if res.Stats.Nodes != reference {
				t.Fatalf("run %d workers %d: visited %d nodes, reference %d — not replicable",
					run, workers, res.Stats.Nodes, reference)
			}
		}
	}
}

// The anomalous skeletons generally do NOT have this property — and
// the replicable one must pay for determinism with at least as many
// visits as fully-shared pruning achieves on one worker.
func TestReplicableVisitsAtLeastSequential(t *testing.T) {
	tree := semantics.GenTree(13, 5, 10)
	p := optProblem(true)
	seq := Opt(Sequential, tree, "", p, Config{})
	rep := ReplicableOpt(tree, "", p, Config{Workers: 4, DCutoff: 2})
	if rep.Objective != seq.Objective {
		t.Fatalf("answers differ: %d vs %d", rep.Objective, seq.Objective)
	}
	if rep.Stats.Nodes < seq.Stats.Nodes {
		t.Errorf("replicable visited fewer nodes (%d) than sequential (%d)?",
			rep.Stats.Nodes, seq.Stats.Nodes)
	}
}

func TestReplicableWithPruneLevel(t *testing.T) {
	tree := semantics.GenTree(17, 4, 9)
	sortByBound(tree)
	p := optProblem(true)
	p.PruneLevel = true
	res := ReplicableOpt(tree, "", p, Config{Workers: 4, DCutoff: 2})
	if res.Objective != int64(tree.Max()) {
		t.Fatalf("got %d, want %d", res.Objective, int64(tree.Max()))
	}
}

func TestReplicableSingleNodeTree(t *testing.T) {
	tree := chainTree(1)
	res := ReplicableOpt(tree, "", optProblem(false), Config{Workers: 4, DCutoff: 2})
	if !res.Found || res.Objective != hOf(tree, "") {
		t.Fatalf("single-node tree: %+v", res)
	}
}

func TestReplicableNoBound(t *testing.T) {
	tree := semantics.GenTree(19, 4, 8)
	res := ReplicableOpt(tree, "", optProblem(false), Config{Workers: 4, DCutoff: 1})
	if res.Objective != int64(tree.Max()) {
		t.Fatalf("got %d, want %d", res.Objective, int64(tree.Max()))
	}
	if res.Stats.Nodes != int64(tree.Size()) {
		t.Fatalf("unpruned replicable visited %d of %d nodes", res.Stats.Nodes, tree.Size())
	}
}
