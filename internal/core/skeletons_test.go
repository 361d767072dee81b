package core

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"yewpar/internal/dist"
)

var allCoords = []Coordination{Sequential, DepthBounded, StackStealing, Budget}

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

func treesUnderTest() map[string]*testTree {
	return map[string]*testTree{
		"rand1":  genTree(1, 4, 9),
		"rand2":  genTree(2, 5, 8),
		"rand3":  genTree(42, 3, 12),
		"chain":  chainTree(200),
		"wide":   wideTree(500),
		"single": chainTree(1),
	}
}

func TestEnumAllSkeletonsCountNodes(t *testing.T) {
	for name, tree := range treesUnderTest() {
		count := EnumProblem[*testTree, testNode, int64]{
			Gen:       testGen,
			Objective: func(*testTree, testNode) int64 { return 1 },
			Monoid:    SumInt64{},
		}
		for _, coord := range allCoords {
			for ci, cfg := range testConfigs() {
				res := Enum(coord, tree, testNode{}, count, audited(t, cfg))
				if res.Value != int64(tree.size) {
					t.Errorf("%s/%v/cfg%d: count = %d, want %d", name, coord, ci, res.Value, tree.size)
				}
				if res.Stats.Nodes != int64(tree.size) {
					t.Errorf("%s/%v/cfg%d: visited %d nodes, want exactly %d", name, coord, ci, res.Stats.Nodes, tree.size)
				}
				if coord == Sequential {
					break // configs are irrelevant sequentially
				}
			}
		}
	}
}

func TestEnumAllSkeletonsSumValues(t *testing.T) {
	for name, tree := range treesUnderTest() {
		want := tree.sum()
		for _, coord := range allCoords {
			res := Enum(coord, tree, testNode{}, tree.enumProblem(), audited(t, Config{Workers: 6, Localities: 2}))
			if res.Value != want {
				t.Errorf("%s/%v: sum = %d, want %d", name, coord, res.Value, want)
			}
		}
	}
}

func TestEnumMaxMonoid(t *testing.T) {
	tree := genTree(7, 4, 9)
	p := EnumProblem[*testTree, testNode, int64]{
		Gen:       testGen,
		Objective: func(tt *testTree, n testNode) int64 { return tt.value[n.id] },
		Monoid:    MaxInt64{},
	}
	want := tree.max()
	for _, coord := range allCoords {
		res := Enum(coord, tree, testNode{}, p, Config{Workers: 4})
		if res.Value != want {
			t.Errorf("%v: max = %d, want %d", coord, res.Value, want)
		}
	}
}

func TestEnumDepthProfile(t *testing.T) {
	tree := genTree(11, 4, 6)
	const depths = 8
	p := EnumProblem[*testTree, testNode, []int64]{
		Gen: testGen,
		Objective: func(tt *testTree, n testNode) []int64 {
			v := make([]int64, depths)
			v[n.depth]++
			return v
		},
		Monoid: SumVec{Len: depths},
	}
	want := Enum(Sequential, tree, testNode{}, p, Config{})
	for _, coord := range []Coordination{DepthBounded, StackStealing, Budget} {
		res := Enum(coord, tree, testNode{}, p, Config{Workers: 5})
		for d := 0; d < depths; d++ {
			if res.Value[d] != want.Value[d] {
				t.Errorf("%v: depth %d count %d, want %d", coord, d, res.Value[d], want.Value[d])
			}
		}
	}
}

func TestOptAllSkeletonsFindMax(t *testing.T) {
	for name, tree := range treesUnderTest() {
		want := tree.max()
		for _, withBound := range []bool{false, true} {
			p := tree.optProblem(withBound)
			for _, coord := range allCoords {
				for ci, cfg := range testConfigs() {
					res := Opt(coord, tree, testNode{}, p, audited(t, cfg))
					if !res.Found {
						t.Fatalf("%s/%v/cfg%d(bound=%v): nothing found", name, coord, ci, withBound)
					}
					if res.Objective != want {
						t.Errorf("%s/%v/cfg%d(bound=%v): max = %d, want %d", name, coord, ci, withBound, res.Objective, want)
					}
					if got := tree.value[res.Best.id]; got != want {
						t.Errorf("%s/%v/cfg%d: witness %q has value %d, want %d", name, coord, ci, res.Best.id, got, want)
					}
					if coord == Sequential {
						break
					}
				}
			}
		}
	}
}

func TestOptPruningVisitsFewerNodes(t *testing.T) {
	tree := genTree(3, 5, 10)
	noBound := Opt(Sequential, tree, testNode{}, tree.optProblem(false), Config{})
	withBound := Opt(Sequential, tree, testNode{}, tree.optProblem(true), Config{})
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
	for name, tree := range treesUnderTest() {
		target := tree.max() // always achievable
		for _, withBound := range []bool{false, true} {
			p := tree.decisionProblem(target, withBound)
			for _, coord := range allCoords {
				res := Decide(coord, tree, testNode{}, p, audited(t, Config{Workers: 6, Localities: 2}))
				if !res.Found {
					t.Errorf("%s/%v(bound=%v): target %d not found", name, coord, withBound, target)
					continue
				}
				if res.Objective < target {
					t.Errorf("%s/%v: witness objective %d below target %d", name, coord, res.Objective, target)
				}
				if tree.value[res.Witness.id] < target {
					t.Errorf("%s/%v: witness %q does not reach target", name, coord, res.Witness.id)
				}
			}
		}
	}
}

func TestDecisionAllSkeletonsUnsatisfiable(t *testing.T) {
	tree := genTree(5, 4, 9)
	target := tree.max() + 1
	for _, withBound := range []bool{false, true} {
		p := tree.decisionProblem(target, withBound)
		for _, coord := range allCoords {
			res := Decide(coord, tree, testNode{}, p, Config{Workers: 4})
			if res.Found {
				t.Errorf("%v(bound=%v): found impossible target", coord, withBound)
			}
			if !withBound && res.Stats.Nodes != int64(tree.size) {
				t.Errorf("%v: unsat proof visited %d nodes, want %d (whole tree)",
					coord, res.Stats.Nodes, tree.size)
			}
		}
	}
}

func TestDecisionShortCircuitSavesWork(t *testing.T) {
	// A wide tree whose first child already satisfies the target:
	// sequential search must stop almost immediately.
	tree := wideTree(10_000)
	first := tree.children[""][0]
	tree.value[first] = 5000
	p := tree.decisionProblem(5000, false)
	res := Decide(Sequential, tree, testNode{}, p, Config{})
	if !res.Found {
		t.Fatal("target not found")
	}
	if res.Stats.Nodes > 10 {
		t.Errorf("short-circuit visited %d nodes, want <= 10", res.Stats.Nodes)
	}
}

func TestPruneLevelCorrectAcrossSkeletons(t *testing.T) {
	for _, seed := range []int64{41, 43, 47} {
		tree := genTree(seed, 5, 9)
		tree.sortChildrenByBound() // precondition: non-increasing bounds
		want := tree.max()
		p := tree.optProblem(true)
		p.PruneLevel = true
		for _, coord := range allCoords {
			res := Opt(coord, tree, testNode{}, p, audited(t, Config{Workers: 6, Localities: 2, Budget: 16, DCutoff: 2}))
			if res.Objective != want {
				t.Errorf("seed %d %v: max %d, want %d", seed, coord, res.Objective, want)
			}
		}
		res := Opt(Budget, tree, testNode{}, p, Config{Workers: 4, Budget: 8, Order: OrderBound})
		if res.Objective != want {
			t.Errorf("seed %d budget/order=bound: max %d, want %d", seed, res.Objective, want)
		}
	}
}

func TestPruneLevelVisitsFewerNodes(t *testing.T) {
	tree := genTree(53, 5, 10)
	tree.sortChildrenByBound()
	p := tree.optProblem(true)
	child := Opt(Sequential, tree, testNode{}, p, Config{})
	p.PruneLevel = true
	level := Opt(Sequential, tree, testNode{}, p, Config{})
	if level.Objective != child.Objective {
		t.Fatalf("level pruning changed the answer: %d vs %d", level.Objective, child.Objective)
	}
	if level.Stats.Nodes > child.Stats.Nodes {
		t.Errorf("level pruning visited more nodes: %d vs %d", level.Stats.Nodes, child.Stats.Nodes)
	}
}

func TestPruneLevelDecision(t *testing.T) {
	tree := genTree(59, 4, 9)
	tree.sortChildrenByBound()
	for _, target := range []int64{tree.max(), tree.max() + 1} {
		p := tree.decisionProblem(target, true)
		p.PruneLevel = true
		wantFound := target <= tree.max()
		for _, coord := range allCoords {
			res := Decide(coord, tree, testNode{}, p, Config{Workers: 4})
			if res.Found != wantFound {
				t.Errorf("%v target %d: found=%v, want %v", coord, target, res.Found, wantFound)
			}
		}
	}
}

func TestOptStatsSpawnsAndSteals(t *testing.T) {
	tree := genTree(9, 5, 10)
	res := Opt(DepthBounded, tree, testNode{}, tree.optProblem(false), Config{Workers: 4, DCutoff: 2})
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
	tree := genTree(13, 4, 10)
	res := Enum(Budget, tree, testNode{}, tree.enumProblem(), Config{Workers: 4, Budget: 2})
	if res.Stats.Spawns == 0 {
		t.Error("tiny budget produced no spawns")
	}
	if res.Value != tree.sum() {
		t.Errorf("budget spawning corrupted sum: %d != %d", res.Value, tree.sum())
	}
	tree = genTree(31, 4, 9)
	opt := Opt(Budget, tree, testNode{}, tree.optProblem(true), Config{Workers: 4, Budget: 2, Order: OrderBound})
	if opt.Stats.Spawns == 0 {
		t.Error("tiny budget under bound order spawned nothing")
	}
	if opt.Objective != tree.max() {
		t.Errorf("bound-ordered budget spawning: got %d, want %d", opt.Objective, tree.max())
	}
}

func TestStackStealChunkedVsSingle(t *testing.T) {
	tree := genTree(17, 5, 11)
	want := tree.sum()
	for _, chunked := range []bool{false, true} {
		res := Enum(StackStealing, tree, testNode{}, tree.enumProblem(), Config{Workers: 8, Chunked: chunked})
		if res.Value != want {
			t.Errorf("chunked=%v: sum %d, want %d", chunked, res.Value, want)
		}
	}
}

func TestRootOnlyTreeAllSkeletons(t *testing.T) {
	tree := chainTree(1)
	for _, coord := range allCoords {
		res := Enum(coord, tree, testNode{}, tree.enumProblem(), Config{Workers: 4})
		if res.Stats.Nodes != 1 {
			t.Errorf("%v: visited %d nodes on single-node tree", coord, res.Stats.Nodes)
		}
	}
}

func TestPrunedRootOpt(t *testing.T) {
	// Root objective equals subtree max: after visiting the root the
	// bound check prunes the entire tree immediately.
	tree := genTree(21, 4, 8)
	rootMax := tree.subtreeMax("")
	tree.value[""] = rootMax
	p := tree.optProblem(true)
	for _, coord := range allCoords {
		res := Opt(coord, tree, testNode{}, p, Config{Workers: 4})
		if res.Objective != rootMax {
			t.Errorf("%v: objective %d, want %d", coord, res.Objective, rootMax)
		}
		if res.Stats.Nodes != 1 {
			t.Errorf("%v: visited %d nodes, want 1 (root prunes everything)", coord, res.Stats.Nodes)
		}
	}
}

func TestManyLocalitiesMoreThanWorkersClamped(t *testing.T) {
	tree := genTree(23, 4, 8)
	res := Enum(DepthBounded, tree, testNode{}, tree.enumProblem(), audited(t, Config{Workers: 2, Localities: 16}))
	if res.Value != tree.sum() {
		t.Errorf("sum = %d, want %d", res.Value, tree.sum())
	}
}

func TestBoundLatencyStillCorrect(t *testing.T) {
	tree := genTree(29, 5, 9)
	want := tree.max()
	cfg := audited(t, Config{Workers: 6, Localities: 3, NetFault: dist.LatencyPlan(200 * time.Microsecond)})
	for _, coord := range []Coordination{DepthBounded, StackStealing, Budget} {
		res := Opt(coord, tree, testNode{}, tree.optProblem(true), cfg)
		if res.Objective != want {
			t.Errorf("%v with bound latency: %d, want %d", coord, res.Objective, want)
		}
	}
}

func TestStealLatencyStillCorrect(t *testing.T) {
	tree := genTree(31, 4, 8)
	cfg := audited(t, Config{Workers: 4, Localities: 2, NetFault: dist.LatencyPlan(50 * time.Microsecond)})
	res := Enum(DepthBounded, tree, testNode{}, tree.enumProblem(), cfg)
	if res.Value != tree.sum() {
		t.Errorf("sum = %d, want %d", res.Value, tree.sum())
	}
}

func TestCoordinationString(t *testing.T) {
	names := map[Coordination]string{
		Sequential: "seq", DepthBounded: "depthbounded",
		StackStealing: "stacksteal", Budget: "budget",
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
	tree := genTree(37, 5, 10)
	p := tree.optProblem(true)
	a := Opt(Sequential, tree, testNode{}, p, Config{})
	b := Opt(Sequential, tree, testNode{}, p, Config{})
	if a.Stats.Nodes != b.Stats.Nodes || a.Best.id != b.Best.id {
		t.Errorf("sequential search not deterministic: %d/%q vs %d/%q",
			a.Stats.Nodes, a.Best.id, b.Stats.Nodes, b.Best.id)
	}
}

// Property: for RANDOM configurations (workers, localities, cutoffs,
// budgets, chunking), every coordination enumerates every node exactly
// once. This is the engine-level Theorem 3.1 sweep.
func TestQuickRandomConfigs(t *testing.T) {
	f := func(treeSeed int64, workers, locs, dcut uint8, budget uint16, chunked bool) bool {
		tree := genTree(200+treeSeed%50, 4, 8)
		cfg := Config{
			Workers:    1 + int(workers%10),
			Localities: 1 + int(locs%4),
			DCutoff:    1 + int(dcut%5),
			Budget:     1 + int64(budget%2000),
			Chunked:    chunked,
			Seed:       treeSeed,
		}
		for _, coord := range []Coordination{DepthBounded, StackStealing, Budget} {
			res := Enum(coord, tree, testNode{}, tree.enumProblem(), cfg)
			if res.Value != tree.sum() || res.Stats.Nodes != int64(tree.size) {
				t.Logf("%v cfg %+v: sum %d (want %d), nodes %d (want %d)",
					coord, cfg, res.Value, tree.sum(), res.Stats.Nodes, tree.size)
				return false
			}
		}
		return true
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
		tree := genTree(seed, 4, 9)
		for _, coord := range []Coordination{DepthBounded, StackStealing, Budget} {
			t.Run(fmt.Sprintf("%v/seed%d", coord, seed), func(t *testing.T) {
				res := Enum(coord, tree, testNode{}, tree.enumProblem(), audited(t, Config{Workers: 8, Localities: 2, Budget: 8, DCutoff: 2}))
				if res.Stats.Nodes != int64(tree.size) {
					t.Errorf("visited %d, want %d", res.Stats.Nodes, tree.size)
				}
				// Every cross-locality hand-over is supervised by a ledger,
				// in process as across processes, and the one stats fold
				// reports it for both.
				if res.Stats.StealsOK > 0 && res.Stats.LedgerPeak == 0 {
					t.Errorf("%d cross-locality steals but LedgerPeak = 0", res.Stats.StealsOK)
				}
			})
		}
	}
}
