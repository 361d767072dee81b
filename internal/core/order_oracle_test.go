package core

import (
	"fmt"
	"math"
	"testing"
)

// Oracle property test for ordered scheduling: on random seeded trees,
// every scheduling order must return exactly the same results as the
// unordered engine. Enumeration visits every node exactly once under
// any scheduling, so values AND node counts must match exactly;
// optimisation under pruning is timing-dependent in parallel, so
// optima must match exactly while node counts need only stay within
// the full-tree envelope. This is the guarantee that makes -order a
// pure performance knob.
func TestOrderedSchedulingOracle(t *testing.T) {
	coords := []struct {
		name  string
		coord Coordination
		cfg   Config
	}{
		{"depthbounded", DepthBounded, Config{Workers: 4, DCutoff: 2}},
		{"budget", Budget, Config{Workers: 4, Budget: 25}},
		{"budget-tiny", Budget, Config{Workers: 4, Budget: 4}},
		{"depthbounded-2loc", DepthBounded, Config{Workers: 4, Localities: 2, DCutoff: 2}},
		{"budget-3loc", Budget, Config{Workers: 6, Localities: 3, Budget: 25}},
	}
	orders := []Order{OrderNone, OrderDiscrepancy, OrderBound}
	for seed := int64(1); seed <= 4; seed++ {
		tree := genTree(seed, 4, 8)
		tree.sortChildrenByBound()
		wantSum := tree.sum()
		seqOpt := Opt(Sequential, tree, testNode{}, tree.optProblem(true), Config{})

		for _, c := range coords {
			for _, ord := range orders {
				t.Run(fmt.Sprintf("seed=%d/%s/order=%s", seed, c.name, ord), func(t *testing.T) {
					cfg := audited(t, c.cfg)
					cfg.Order = ord
					enum := Enum(c.coord, tree, testNode{}, tree.enumProblem(), cfg)
					if enum.Value != wantSum {
						t.Fatalf("enum sum = %d, want %d", enum.Value, wantSum)
					}
					if enum.Stats.Nodes != int64(tree.size) {
						t.Fatalf("visited %d nodes, want exactly %d", enum.Stats.Nodes, tree.size)
					}
					opt := Opt(c.coord, tree, testNode{}, tree.optProblem(true), cfg)
					if opt.Objective != seqOpt.Objective {
						t.Fatalf("optimum = %d, sequential oracle %d", opt.Objective, seqOpt.Objective)
					}
					if opt.Stats.Nodes < 1 || opt.Stats.Nodes > int64(tree.size) {
						t.Fatalf("visited %d nodes, outside [1, %d]", opt.Stats.Nodes, tree.size)
					}
					if ord != OrderNone && opt.Stats.Spawns > 0 {
						hist := int64(0)
						for _, v := range opt.Stats.PrioHist {
							hist += v
						}
						if hist != opt.Stats.Spawns {
							t.Fatalf("priority histogram covers %d spawns of %d", hist, opt.Stats.Spawns)
						}
					}
				})
			}
		}
	}
}

// Decision searches must agree on found/not-found under every order.
func TestOrderedDecisionOracle(t *testing.T) {
	tree := genTree(9, 4, 8)
	max := tree.max()
	for _, target := range []int64{max, max + 1} {
		wantFound := target <= max
		for _, ord := range []Order{OrderNone, OrderDiscrepancy, OrderBound} {
			cfg := Config{Workers: 4, DCutoff: 2, Order: ord}
			res := Decide(DepthBounded, tree, testNode{}, tree.decisionProblem(target, false), cfg)
			if res.Found != wantFound {
				t.Fatalf("order=%v target=%d: Found=%v, want %v", ord, target, res.Found, wantFound)
			}
			if wantFound && res.Objective < target {
				t.Fatalf("order=%v: witness objective %d below target %d", ord, res.Objective, target)
			}
		}
	}
}

// Discrepancy priorities obey the incremental rule: the root path of a
// spawned task carries one discrepancy per non-leftmost branch. Checked
// on a single worker so spawn order is deterministic: depthbounded with
// a deep cutoff turns the whole tree into tasks, and every task's Prio
// must equal the discrepancy its node path implies.
func TestDiscrepancyPrioritiesMatchPaths(t *testing.T) {
	tree := genTree(5, 3, 5)
	// Discrepancy of a testNode id: children are 'a' + index, so each
	// letter beyond 'a' on the path contributes one discrepancy.
	wantDisc := func(id string) int32 {
		d := int32(0)
		for _, c := range id {
			if c != 'a' {
				d++
			}
		}
		return d
	}
	// Wrap the generator to record the Prio each spawned child received:
	// run an enum search ordered by discrepancy and harvest from the
	// histogram; cross-check totals per discrepancy class.
	cfg := Config{Workers: 1, DCutoff: 100, Order: OrderDiscrepancy}
	res := Enum(DepthBounded, tree, testNode{}, tree.enumProblem(), cfg)
	want := map[int]int64{}
	for id := range tree.value {
		if id == "" {
			continue // the root is seeded, not spawned
		}
		d := int(wantDisc(id))
		if d >= prioHistBuckets {
			d = prioHistBuckets - 1
		}
		want[d]++
	}
	for i := 0; i < prioHistBuckets; i++ {
		if res.Stats.PrioHist[i] != want[i] {
			t.Fatalf("discrepancy class %d: %d spawns, want %d (hist %v)",
				i, res.Stats.PrioHist[i], want[i], res.Stats.PrioHist)
		}
	}
}

// OrderBound without a Bound function (enumeration) must degrade to
// discrepancy order, not crash.
func TestOrderBoundDegradesWithoutBound(t *testing.T) {
	tree := genTree(3, 4, 7)
	res := Enum(DepthBounded, tree, testNode{}, tree.enumProblem(),
		Config{Workers: 4, DCutoff: 2, Order: OrderBound})
	if res.Value != tree.sum() {
		t.Fatalf("sum = %d, want %d", res.Value, tree.sum())
	}
	if res.Stats.Nodes != int64(tree.size) {
		t.Fatalf("visited %d nodes, want %d", res.Stats.Nodes, tree.size)
	}
}

// clampPrio must be monotone over the whole non-negative domain and
// exact below the linear region: a priority mapping that ever inverts
// two distances would reorder the search against the bound.
func TestClampPrioMonotone(t *testing.T) {
	if clampPrio(-5) != 0 || clampPrio(0) != 0 || clampPrio(prioLinear-1) != prioLinear-1 {
		t.Fatal("linear region not exact")
	}
	vals := []int64{0, 1, 100, 511, 512, 513, 1000, 1023, 1024, 5000, 70_000, 1 << 20, 1 << 40, 1<<62 + 12345, math.MaxInt64}
	prev := int32(-1)
	for _, v := range vals {
		p := clampPrio(v)
		if p < prev {
			t.Fatalf("clampPrio(%d) = %d < previous %d: not monotone", v, p, prev)
		}
		if p > maxTaskPrio {
			t.Fatalf("clampPrio(%d) = %d exceeds maxTaskPrio", v, p)
		}
		prev = p
	}
	// Distinct octaves must land in distinct buckets (no early
	// saturation): 70k and 1<<20 differ by several octaves.
	if clampPrio(70_000) == clampPrio(1<<20) {
		t.Fatal("wide distances collapsed into one bucket")
	}
}
