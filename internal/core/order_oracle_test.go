package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"yewpar/internal/semantics"
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
	for seed := int64(1); seed <= 4; seed++ {
		tree := semantics.GenTree(seed, 4, 8)
		sortByBound(tree)
		st := treeOf(fmt.Sprint("sorted GenTree ", seed), tree, true)
		for _, c := range coords {
			for ord := OrderNone; ord <= OrderBound; ord++ {
				t.Run(fmt.Sprintf("seed=%d/%s/order=%s", seed, c.name, ord), func(t *testing.T) {
					cfg := c.cfg
					cfg.Order = ord
					scenario{tree: st, search: enumerate, coord: c.coord, cfg: cfg}.run(t)
					scenario{tree: st, search: optimise, coord: c.coord, cfg: cfg}.run(t)
				})
			}
		}
	}
}

// Decision searches must agree on found/not-found under every order.
func TestOrderedDecisionOracle(t *testing.T) {
	st := treeOf("GenTree(9, 4, 8), unbounded", semantics.GenTree(9, 4, 8), false)
	max, _ := st.truth(decide)
	for _, target := range []int64{max, max + 1} {
		for ord := OrderNone; ord <= OrderBound; ord++ {
			scenario{tree: st, search: decide, target: target, coord: DepthBounded, cfg: Config{Workers: 4, DCutoff: 2, Order: ord}}.run(t)
		}
	}
}

// Discrepancy priorities obey the incremental rule: the root path of a
// spawned task carries one discrepancy per non-leftmost branch. Checked
// on a single worker so spawn order is deterministic: depthbounded with
// a deep cutoff turns the whole tree into tasks, and every task's Prio
// must equal the discrepancy its node path implies.
func TestDiscrepancyPrioritiesMatchPaths(t *testing.T) {
	tree := semantics.GenTree(5, 3, 5)
	// Run an enum search ordered by discrepancy and harvest the Prio each
	// spawned child received from the histogram, per discrepancy class.
	cfg := Config{Workers: 1, DCutoff: 100, Order: OrderDiscrepancy}
	res := Enum(DepthBounded, tree, "", enumProblem(), cfg)
	want := map[int]int64{}
	for id := range tree.H {
		// Children are 'a' + index, so each letter beyond 'a' on the path
		// is one discrepancy; the root is seeded, not spawned.
		if id != "" {
			want[min(len(id)-strings.Count(id, "a"), prioHistBuckets-1)]++
		}
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
	scenario{tree: semTree(3, 4, 7), search: enumerate, coord: DepthBounded, cfg: Config{Workers: 4, DCutoff: 2, Order: OrderBound}}.run(t)
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
