package core

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"yewpar/internal/dist"
	"yewpar/internal/semantics"
)

var allCoords = []Coordination{Sequential, DepthBounded, StackStealing, Budget, Replicable}

// parallel configs exercised across the matrix tests: plain, multiple
// localities, chunked stealing, tiny budget, deep cutoff, and
// bound-ordered scheduling (under Budget: best-first search) on several
// workers and on one.
func testConfigs() []Config {
	return []Config{
		{Workers: 4},
		{Workers: 8, Localities: 3},
		{Workers: 4, Chunked: true},
		{Workers: 4, Budget: 4},
		{Workers: 4, DCutoff: 3},
		{Workers: 3, Localities: 2, DCutoff: 2, Budget: 16, Chunked: true},
		{Workers: 6, Budget: 8, Order: OrderBound},
		{Workers: 1, Budget: 4, Order: OrderBound},
	}
}

func treesUnderTest() map[string]*semantics.Tree {
	return map[string]*semantics.Tree{
		"rand1":  semantics.GenTree(1, 4, 9),
		"rand2":  semantics.GenTree(2, 5, 8),
		"rand3":  semantics.GenTree(42, 3, 12),
		"chain":  chainTree(200),
		"wide":   wideTree(500),
		"single": chainTree(1),
	}
}

// matrix runs search as harness rows over every tree under test, every
// coordination and each of cfgs (Sequential on the first only).
func matrix(t *testing.T, search searchKind, bounded bool, cfgs ...Config) {
	for name, tr := range treesUnderTest() {
		st := treeOf(name, tr, bounded)
		target, _ := st.truth(optimise)
		for _, coord := range allCoords {
			for ci, cfg := range cfgs {
				scenario{name: fmt.Sprintf("%s/%v/cfg%d", name, coord, ci), tree: st, search: search, target: target, coord: coord, cfg: cfg}.check(t)
				if coord == Sequential {
					break // configs are irrelevant sequentially
				}
			}
		}
	}
}

func TestEnumAllSkeletonsCountNodes(t *testing.T) { matrix(t, enumerate, false, testConfigs()...) }
func TestEnumAllSkeletonsSumValues(t *testing.T) {
	matrix(t, enumerate, false, Config{Workers: 6, Localities: 2})
}

func TestEnumMaxMonoid(t *testing.T) {
	tree := semantics.GenTree(7, 4, 9)
	p := EnumProblem[*semantics.Tree, string, int64]{
		Gen:       treeGen,
		Objective: func(tt *semantics.Tree, n string) int64 { return hOf(tt, n) },
		Monoid:    MaxInt64{},
	}
	want := int64(tree.Max())
	for _, coord := range allCoords {
		res := Enum(coord, tree, "", p, Config{Workers: 4})
		if res.Value != want {
			t.Errorf("%v: max = %d, want %d", coord, res.Value, want)
		}
	}
}

func TestEnumDepthProfile(t *testing.T) {
	tree := semantics.GenTree(11, 4, 6)
	const depths = 8
	p := EnumProblem[*semantics.Tree, string, []int64]{
		Gen: treeGen,
		Objective: func(tt *semantics.Tree, n string) []int64 {
			v := make([]int64, depths)
			v[len(n)]++
			return v
		},
		Monoid: SumVec{Len: depths},
	}
	want := Enum(Sequential, tree, "", p, Config{})
	for _, coord := range []Coordination{DepthBounded, StackStealing, Budget} {
		res := Enum(coord, tree, "", p, Config{Workers: 5})
		for d := 0; d < depths; d++ {
			if res.Value[d] != want.Value[d] {
				t.Errorf("%v: depth %d count %d, want %d", coord, d, res.Value[d], want.Value[d])
			}
		}
	}
}

func TestOptAllSkeletonsFindMax(t *testing.T) {
	matrix(t, optimise, false, testConfigs()...)
	matrix(t, optimise, true, testConfigs()...)
}

func TestOptPruningVisitsFewerNodes(t *testing.T) {
	tree := semantics.GenTree(3, 5, 10)
	noBound := Opt(Sequential, tree, "", optProblem(false), Config{})
	withBound := Opt(Sequential, tree, "", optProblem(true), Config{})
	if withBound.Objective != noBound.Objective {
		t.Fatalf("pruning changed the answer: %d vs %d", withBound.Objective, noBound.Objective)
	}
	if withBound.Stats.Nodes > noBound.Stats.Nodes {
		t.Errorf("pruned search visited more nodes (%d) than unpruned (%d)",
			withBound.Stats.Nodes, noBound.Stats.Nodes)
	}
	if withBound.Stats.Prunes == 0 {
		t.Error("bound never pruned anything on a random tree")
	}
}

func TestDecisionAllSkeletonsSatisfiable(t *testing.T) {
	matrix(t, decide, false, Config{Workers: 6, Localities: 2})
	matrix(t, decide, true, Config{Workers: 6, Localities: 2})
}

// An unreachable target is an exact "no"; unbounded, the proof visits the
// whole tree (judge).
func TestDecisionAllSkeletonsUnsatisfiable(t *testing.T) {
	tree := semantics.GenTree(5, 4, 9)
	for _, bounded := range []bool{false, true} {
		st := treeOf(fmt.Sprint("GenTree(5, 4, 9), bounded ", bounded), tree, bounded)
		for _, coord := range allCoords {
			scenario{tree: st, search: decide, target: int64(tree.Max()) + 1, coord: coord, cfg: Config{Workers: 4}}.run(t)
		}
	}
}

func TestDecisionShortCircuitSavesWork(t *testing.T) {
	// A wide tree whose first child already satisfies the target:
	// sequential search must stop almost immediately.
	tree := wideTree(10_000)
	first := tree.Children[""][0]
	tree.H[first] = 5000
	p := decisionProblem(5000, false)
	res := Decide(Sequential, tree, "", p, Config{})
	if !res.Found {
		t.Fatal("target not found")
	}
	if res.Stats.Nodes > 10 {
		t.Errorf("short-circuit visited %d nodes, want <= 10", res.Stats.Nodes)
	}
}

func TestPruneLevelCorrectAcrossSkeletons(t *testing.T) {
	for _, seed := range []int64{41, 43, 47} {
		tree := semantics.GenTree(seed, 5, 9)
		sortByBound(tree) // precondition: non-increasing bounds
		st := treeOf(fmt.Sprint("sorted GenTree ", seed), tree, true)
		st.opt.PruneLevel = true
		for _, coord := range allCoords {
			scenario{tree: st, search: optimise, coord: coord, cfg: Config{Workers: 6, Localities: 2, Budget: 16, DCutoff: 2}}.run(t)
		}
		scenario{tree: st, search: optimise, coord: Budget, cfg: Config{Workers: 4, Budget: 8, Order: OrderBound}}.run(t)
	}
}

func TestPruneLevelVisitsFewerNodes(t *testing.T) {
	tree := semantics.GenTree(53, 5, 10)
	sortByBound(tree)
	p := optProblem(true)
	child := Opt(Sequential, tree, "", p, Config{})
	p.PruneLevel = true
	level := Opt(Sequential, tree, "", p, Config{})
	if level.Objective != child.Objective {
		t.Fatalf("level pruning changed the answer: %d vs %d", level.Objective, child.Objective)
	}
	if level.Stats.Nodes > child.Stats.Nodes {
		t.Errorf("level pruning visited more nodes: %d vs %d", level.Stats.Nodes, child.Stats.Nodes)
	}
}

func TestPruneLevelDecision(t *testing.T) {
	tree := semantics.GenTree(59, 4, 9)
	sortByBound(tree)
	st := treeOf("sorted GenTree(59, 4, 9)", tree, true)
	st.opt.PruneLevel = true
	for _, target := range []int64{int64(tree.Max()), int64(tree.Max()) + 1} {
		for _, coord := range allCoords {
			scenario{tree: st, search: decide, target: target, coord: coord, cfg: Config{Workers: 4}}.run(t)
		}
	}
}

func TestOptStatsSpawnsAndSteals(t *testing.T) {
	tree := semantics.GenTree(9, 5, 10)
	res := Opt(DepthBounded, tree, "", optProblem(false), Config{Workers: 4, DCutoff: 2})
	if res.Stats.Spawns == 0 {
		t.Error("depth-bounded run recorded no spawns")
	}
	if res.Stats.Workers != 4 {
		t.Errorf("Workers = %d", res.Stats.Workers)
	}
	if res.Stats.Elapsed <= 0 {
		t.Error("Elapsed not recorded")
	}
}

func TestBudgetSpawnTriggers(t *testing.T) {
	tree := semantics.GenTree(13, 4, 10)
	res := Enum(Budget, tree, "", enumProblem(), Config{Workers: 4, Budget: 2})
	if res.Stats.Spawns == 0 {
		t.Error("tiny budget produced no spawns")
	}
	if res.Value != int64(tree.Sum()) {
		t.Errorf("budget spawning corrupted sum: %d != %d", res.Value, int64(tree.Sum()))
	}
	tree = semantics.GenTree(31, 4, 9)
	opt := Opt(Budget, tree, "", optProblem(true), Config{Workers: 4, Budget: 2, Order: OrderBound})
	if opt.Stats.Spawns == 0 {
		t.Error("tiny budget under bound order spawned nothing")
	}
	if opt.Objective != int64(tree.Max()) {
		t.Errorf("bound-ordered budget spawning: got %d, want %d", opt.Objective, int64(tree.Max()))
	}
}

func TestStackStealChunkedVsSingle(t *testing.T) {
	st := semTree(17, 5, 11)
	for _, chunked := range []bool{false, true} {
		scenario{tree: st, search: enumerate, coord: StackStealing, cfg: Config{Workers: 8, Chunked: chunked}}.run(t)
	}
}

func TestRootOnlyTreeAllSkeletons(t *testing.T) {
	for _, coord := range allCoords {
		scenario{tree: treeOf("root", chainTree(1), false), search: enumerate, coord: coord, cfg: Config{Workers: 4}}.run(t)
	}
}

func TestPrunedRootOpt(t *testing.T) {
	// Root objective equals subtree max: after visiting the root the
	// bound check prunes the entire tree immediately.
	tree := semantics.GenTree(21, 4, 8)
	rootMax := int64(tree.SubtreeMax(""))
	tree.H[""] = int(rootMax)
	p := optProblem(true)
	for _, coord := range allCoords {
		res := Opt(coord, tree, "", p, Config{Workers: 4})
		if res.Objective != rootMax {
			t.Errorf("%v: objective %d, want %d", coord, res.Objective, rootMax)
		}
		if res.Stats.Nodes != 1 {
			t.Errorf("%v: visited %d nodes, want 1 (root prunes everything)", coord, res.Stats.Nodes)
		}
	}
}

func TestManyLocalitiesMoreThanWorkersClamped(t *testing.T) {
	scenario{tree: semTree(23, 4, 8), search: enumerate, coord: DepthBounded, cfg: Config{Workers: 2, Localities: 16}}.check(t)
}

func TestBoundLatencyStillCorrect(t *testing.T) {
	for _, coord := range []Coordination{DepthBounded, StackStealing, Budget} {
		scenario{tree: semTree(29, 5, 9), search: optimise, coord: coord, cfg: Config{Workers: 6, Localities: 3}, net: dist.LatencyPlan(200 * time.Microsecond)}.check(t)
	}
}

func TestStealLatencyStillCorrect(t *testing.T) {
	scenario{tree: semTree(31, 4, 8), search: enumerate, coord: DepthBounded, cfg: Config{Workers: 4, Localities: 2}, net: dist.LatencyPlan(50 * time.Microsecond)}.check(t)
}

func TestCoordinationString(t *testing.T) {
	names := map[Coordination]string{
		Sequential: "seq", DepthBounded: "depthbounded",
		StackStealing: "stacksteal", Budget: "budget", Replicable: "replicable",
		Coordination(99): "unknown",
	}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), want)
		}
	}
}

// Determinism of the sequential skeleton: identical runs visit the same
// number of nodes and return the same witness.
func TestSequentialDeterministic(t *testing.T) {
	tree := semantics.GenTree(37, 5, 10)
	p := optProblem(true)
	a := Opt(Sequential, tree, "", p, Config{})
	b := Opt(Sequential, tree, "", p, Config{})
	if a.Stats.Nodes != b.Stats.Nodes || a.Best != b.Best {
		t.Errorf("sequential search not deterministic: %d/%q vs %d/%q",
			a.Stats.Nodes, a.Best, b.Stats.Nodes, b.Best)
	}
}

// Property: for RANDOM configurations (workers, localities, cutoffs,
// budgets, chunking), every coordination enumerates every node exactly
// once. This is the engine-level Theorem 3.1 sweep.
func TestQuickRandomConfigs(t *testing.T) {
	f := func(treeSeed int64, workers, locs, dcut uint8, budget uint16, chunked bool) bool {
		cfg := Config{
			Workers:    1 + int(workers%10),
			Localities: 1 + int(locs%4),
			DCutoff:    1 + int(dcut%5),
			Budget:     1 + int64(budget%2000),
			Chunked:    chunked,
			Seed:       treeSeed,
		}
		for _, coord := range []Coordination{DepthBounded, StackStealing, Budget} {
			scenario{tree: treeOf("", semantics.GenTree(200+treeSeed%50, 4, 8), false), search: enumerate, coord: coord, cfg: cfg}.run(t)
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Repeated parallel runs across a matrix of seeds: node-visit totals for
// enumeration must be exactly the tree size every time (each node
// processed exactly once, Theorem 3.1's invariant). The two-locality
// runs double as the check that an in-process run reports its fault
// counters.
func TestParallelEnumEveryNodeOnce(t *testing.T) {
	for seed := int64(100); seed < 110; seed++ {
		st := semTree(seed, 4, 9)
		for _, coord := range []Coordination{DepthBounded, StackStealing, Budget} {
			scenario{name: fmt.Sprintf("%v/seed%d", coord, seed), tree: st, search: enumerate, coord: coord,
				cfg: Config{Workers: 8, Localities: 2, Budget: 8, DCutoff: 2}, extra: func(t *testing.T, o outcome) {
					// Every cross-locality hand-over is supervised by a ledger,
					// in process as across processes, and the one stats fold
					// reports it for both.
					if o.stats.StealsOK > 0 && o.stats.LedgerPeak == 0 {
						t.Errorf("%d cross-locality steals but LedgerPeak = 0", o.stats.StealsOK)
					}
				}}.check(t)
		}
	}
}
