package semantics

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func handTree() *Tree {
	//        ""
	//   a         b
	// aa ab      ba
	//            baa
	return &Tree{
		Children: map[string][]string{
			"":   {"a", "b"},
			"a":  {"aa", "ab"},
			"b":  {"ba"},
			"ba": {"baa"},
		},
		H: map[string]int{"": 1, "a": 5, "aa": 2, "ab": 9, "b": 3, "ba": 7, "baa": 4},
	}
}

func TestTraversalOrder(t *testing.T) {
	tr := handTree()
	s := FullSubtree(tr, "")
	got := s.traversal(tr)
	want := []string{"", "a", "aa", "ab", "b", "ba", "baa"}
	if len(got) != len(want) {
		t.Fatalf("traversal = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("traversal = %v, want %v", got, want)
		}
	}
}

func TestNextAndSucc(t *testing.T) {
	tr := handTree()
	s := FullSubtree(tr, "")
	if v, ok := s.next(tr, "ab"); !ok || v != "b" {
		t.Fatalf("next(ab) = %q/%v", v, ok)
	}
	if _, ok := s.next(tr, "baa"); ok {
		t.Fatal("next(last) should be ⊥")
	}
	succ := s.succ(tr, "aa")
	if len(succ) != 4 || succ[0] != "ab" || succ[3] != "baa" {
		t.Fatalf("succ(aa) = %v", succ)
	}
}

func TestLowest(t *testing.T) {
	tr := handTree()
	s := FullSubtree(tr, "")
	lo := s.lowest(tr, "aa")
	// succ(aa) = {ab, b, ba, baa}; minimum depth 1 → {b}
	if len(lo) != 1 || lo[0] != "b" {
		t.Fatalf("lowest(aa) = %v", lo)
	}
}

func TestExtract(t *testing.T) {
	tr := handTree()
	s := FullSubtree(tr, "")
	sub := s.extract("b")
	if len(sub.Nodes) != 3 || !sub.Nodes["b"] || !sub.Nodes["ba"] || !sub.Nodes["baa"] {
		t.Fatalf("extracted = %v", sub.Nodes)
	}
	if len(s.Nodes) != 4 || s.Nodes["b"] {
		t.Fatalf("remaining = %v", s.Nodes)
	}
}

func TestFullSubtreeOfChild(t *testing.T) {
	tr := handTree()
	s := FullSubtree(tr, "b")
	if len(s.Nodes) != 3 || s.Nodes["a"] {
		t.Fatalf("subtree(b) = %v", s.Nodes)
	}
}

func maxStepsFor(tr *Tree) int { return 60*tr.Size()*tr.Size() + 2000 }

// Theorem 3.1: enumeration reductions compute Σ h(v) on every
// interleaving, and process every node exactly once.
func TestEnumerationTheorem31(t *testing.T) {
	f := func(treeSeed, schedSeed int64, nThreads uint8) bool {
		tr := GenTree(treeSeed%1000, 3, 6)
		c := NewConfig(tr, Enumeration, 0, 1+int(nThreads%4))
		c.Run(schedSeed, Params{DCutoff: 2, KBudget: 2}, nil, maxStepsFor(tr))
		if c.Result() != tr.Sum() {
			t.Logf("sum = %d, want %d (tree %d sched %d)", c.Result(), tr.Sum(), treeSeed, schedSeed)
			return false
		}
		for v := range tr.H {
			if c.ProcessedCounts()[v] != 1 {
				t.Logf("node %q processed %d times", v, c.ProcessedCounts()[v])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Theorem 3.2 (optimisation): any interleaving, including prunes,
// yields an incumbent with h = max h.
func TestOptimisationTheorem32(t *testing.T) {
	f := func(treeSeed, schedSeed int64, nThreads uint8) bool {
		tr := GenTree(treeSeed%1000, 3, 6)
		c := NewConfig(tr, Optimisation, 0, 1+int(nThreads%4))
		c.Run(schedSeed, Params{DCutoff: 2, KBudget: 1}, nil, maxStepsFor(tr))
		return c.Result() == tr.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Theorem 3.2 (decision): with an achievable target the search reaches
// the greatest element; with an unachievable one it computes max h.
func TestDecisionTheorem32(t *testing.T) {
	f := func(treeSeed, schedSeed int64, nThreads uint8, pick uint8) bool {
		tr := GenTree(treeSeed%1000, 3, 6)
		achievable := int(pick)%2 == 0
		target := tr.Max()
		if !achievable {
			target = tr.Max() + 1
		}
		c := NewConfig(tr, Decision, target, 1+int(nThreads%4))
		c.Run(schedSeed, Params{DCutoff: 2, KBudget: 1}, nil, maxStepsFor(tr))
		if achievable {
			return c.Result() == target
		}
		return c.Result() == tr.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Theorem 3.3: every schedule terminates within the polynomial step
// budget (Run panics otherwise), for every rule subset.
func TestTerminationAcrossRuleSets(t *testing.T) {
	ruleSets := []map[RuleName]bool{
		nil,                                  // everything
		{RuleSchedule: true, RuleStep: true}, // pure sequential
		{RuleSchedule: true, RuleStep: true, RuleSpawn: true},
		{RuleSchedule: true, RuleStep: true, RuleSpawnDepth: true},
		{RuleSchedule: true, RuleStep: true, RuleSpawnBudget: true},
		{RuleSchedule: true, RuleStep: true, RuleSpawnStack: true},
		{RuleSchedule: true, RuleStep: true, RulePrune: true, RuleShortcircuit: true},
	}
	for seed := int64(0); seed < 5; seed++ {
		tr := GenTree(seed, 3, 6)
		for ri, rules := range ruleSets {
			kind := Enumeration
			if ri >= 6 {
				kind = Optimisation
			}
			c := NewConfig(tr, kind, 0, 3)
			steps := c.Run(seed*31+int64(ri), Params{DCutoff: 2, KBudget: 2}, rules, maxStepsFor(tr))
			if steps <= 0 {
				t.Fatalf("no steps taken (seed %d rules %d)", seed, ri)
			}
			if kind == Enumeration && c.Result() != tr.Sum() {
				t.Fatalf("rule set %d: wrong sum", ri)
			}
		}
	}
}

// The derived spawn rules alone must preserve enumeration results
// (they are semantically redundant — Section 3.6).
func TestDerivedSpawnRulesRedundant(t *testing.T) {
	tr := GenTree(9, 3, 6)
	want := tr.Sum()
	for _, rule := range []RuleName{RuleSpawnDepth, RuleSpawnBudget, RuleSpawnStack} {
		for seed := int64(0); seed < 10; seed++ {
			c := NewConfig(tr, Enumeration, 0, 4)
			c.Run(seed, Params{DCutoff: 3, KBudget: 1},
				map[RuleName]bool{RuleSchedule: true, RuleStep: true, rule: true}, maxStepsFor(tr))
			if c.Result() != want {
				t.Fatalf("%s seed %d: sum %d, want %d", rule, seed, c.Result(), want)
			}
		}
	}
}

// Admissibility of the bound-derived pruning relation
// u ▷ v ⇔ h(u) >= SubtreeMax(v) (Section 3.5, conditions 1–3).
func TestPruneRelationAdmissible(t *testing.T) {
	tr := GenTree(4, 3, 6)
	var nodes []string
	for v := range tr.H {
		nodes = append(nodes, v)
	}
	r := rand.New(rand.NewSource(1))
	rel := func(u, v string) bool { return tr.H[u] >= tr.SubtreeMax(v) }
	for i := 0; i < 2000; i++ {
		u := nodes[r.Intn(len(nodes))]
		v := nodes[r.Intn(len(nodes))]
		w := nodes[r.Intn(len(nodes))]
		if rel(u, v) {
			// 1: h(u) >= h(v)
			if tr.H[u] < tr.H[v] {
				t.Fatal("condition 1 violated")
			}
			// 2: stronger incumbents still prune
			if tr.H[w] >= tr.H[u] && !rel(w, v) {
				t.Fatal("condition 2 violated")
			}
			// 3: descendants of v are also pruned
			if strings.HasPrefix(w, v) && !rel(u, w) {
				t.Fatal("condition 3 violated")
			}
		}
	}
}

// Pruning must reduce processed nodes without changing the optimum.
func TestPruneSavesWork(t *testing.T) {
	tr := GenTree(8, 3, 7)
	noPrune := NewConfig(tr, Optimisation, 0, 1)
	noPrune.Run(1, Params{}, map[RuleName]bool{RuleSchedule: true, RuleStep: true}, maxStepsFor(tr))
	pruned := NewConfig(tr, Optimisation, 0, 1)
	pruned.Run(1, Params{}, map[RuleName]bool{RuleSchedule: true, RuleStep: true, RulePrune: true}, maxStepsFor(tr))
	if noPrune.Result() != pruned.Result() {
		t.Fatalf("pruning changed the optimum: %d vs %d", noPrune.Result(), pruned.Result())
	}
	count := func(c *Config) int {
		total := 0
		for _, k := range c.ProcessedCounts() {
			total += k
		}
		return total
	}
	if count(pruned) > count(noPrune) {
		t.Fatalf("pruned run processed more nodes (%d > %d)", count(pruned), count(noPrune))
	}
}

// Confluence modulo witnesses: the *value* of the result is schedule
// independent.
func TestResultScheduleIndependent(t *testing.T) {
	tr := GenTree(12, 3, 6)
	for kind, want := range map[Kind]int{Enumeration: tr.Sum(), Optimisation: tr.Max()} {
		for seed := int64(0); seed < 30; seed++ {
			c := NewConfig(tr, kind, 0, 1+int(seed%4))
			c.Run(seed, Params{DCutoff: 2, KBudget: 1}, nil, maxStepsFor(tr))
			if c.Result() != want {
				t.Fatalf("kind %d seed %d: result %d, want %d", kind, seed, c.Result(), want)
			}
		}
	}
}

// Decision short-circuit must be able to leave nodes unprocessed.
func TestShortcircuitLeavesWorkUndone(t *testing.T) {
	// A tree whose root already achieves the target.
	tr := GenTree(15, 3, 7)
	tr.H[""] = 1000
	c := NewConfig(tr, Decision, 5, 2)
	c.Run(3, Params{}, nil, maxStepsFor(tr))
	if c.Result() != 5 {
		t.Fatalf("result %d, want target 5", c.Result())
	}
}

func TestGenTreeDeterministic(t *testing.T) {
	a := GenTree(5, 3, 5)
	b := GenTree(5, 3, 5)
	if a.Size() != b.Size() || a.Sum() != b.Sum() {
		t.Fatal("GenTree not deterministic")
	}
}

func TestConfigFinalDetection(t *testing.T) {
	tr := handTree()
	c := NewConfig(tr, Enumeration, 0, 2)
	if c.Final() {
		t.Fatal("initial config with a task is final")
	}
	c.Run(1, Params{}, map[RuleName]bool{RuleSchedule: true, RuleStep: true}, 10000)
	if !c.Final() {
		t.Fatal("Run returned on non-final config")
	}
	if c.Result() != tr.Sum() {
		t.Fatalf("hand tree sum = %d, want %d", c.Result(), tr.Sum())
	}
}
