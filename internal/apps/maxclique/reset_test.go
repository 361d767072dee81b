package maxclique

import (
	"testing"

	"yewpar/internal/core"
	"yewpar/internal/coretest"
	"yewpar/internal/graph"
)

// walkNodes samples every node of the first few levels of the search
// tree (breadth-first, capped), giving Reset a mix of bushy, narrow and
// childless parents.
func walkNodes(s *Space, cap int) []Node {
	nodes := []Node{Root(s)}
	for i := 0; i < len(nodes) && len(nodes) < cap; i++ {
		g := Gen(s, nodes[i])
		for g.HasNext() && len(nodes) < cap {
			nodes = append(nodes, g.Next())
		}
	}
	return nodes
}

func nodesEqual(a, b Node) bool {
	return a.Size == b.Size && a.Bound == b.Bound &&
		a.Clique.Equal(b.Clique) && a.Cands.Equal(b.Cands)
}

// TestResetMatchesFresh replays many parents through one recycled
// generator and checks each child stream against a freshly constructed
// generator — including childless parents, which Reset must handle
// (the factory's EmptyGen special-case is bypassed by the cache).
func TestResetMatchesFresh(t *testing.T) {
	g := graph.Random(40, 0.5, 7)
	s := NewSpace(g)
	shared := &gen{}
	for _, parent := range walkNodes(s, 300) {
		shared.Reset(s, parent)
		fresh := Gen(s, parent)
		for fresh.HasNext() {
			if !shared.HasNext() {
				t.Fatal("recycled generator ran dry early")
			}
			got, want := shared.Next(), fresh.Next()
			if !nodesEqual(got, want) {
				t.Fatalf("recycled child %+v, fresh child %+v", got, want)
			}
		}
		if shared.HasNext() {
			t.Fatal("recycled generator has extra children")
		}
	}
}

// TestResetChildrenDoNotAliasScratch mutating-use check: children
// yielded before a Reset must survive the generator being re-aimed.
func TestResetChildrenDoNotAliasScratch(t *testing.T) {
	g, _ := FigureOneGraph()
	s := NewSpace(g)
	shared := &gen{}
	shared.Reset(s, Root(s))
	var kids []Node
	for shared.HasNext() {
		kids = append(kids, shared.Next())
	}
	snapshot := make([]Node, len(kids))
	for i, k := range kids {
		snapshot[i] = Node{Clique: k.Clique.Clone(), Size: k.Size, Cands: k.Cands.Clone(), Bound: k.Bound}
	}
	// Re-aim the generator several times; earlier children must be
	// untouched.
	for _, k := range kids {
		shared.Reset(s, k)
		for shared.HasNext() {
			shared.Next()
		}
	}
	for i, k := range kids {
		if !nodesEqual(k, snapshot[i]) {
			t.Fatalf("child %d mutated by generator reuse: %+v vs %+v", i, k, snapshot[i])
		}
	}
}

// TestSolveRecyclingAblation: recycling must not change the search —
// same clique size, same visited-node count in the deterministic
// sequential coordination.
func TestSolveRecyclingAblation(t *testing.T) {
	g := graph.Random(45, 0.6, 11)
	on, onStats := Solve(g, core.Sequential, core.Config{})
	s, p := NewSpace(g), OptProblem()
	p.Gen = coretest.FactoryOnly(p.Gen)
	res := core.Opt(core.Sequential, s, Root(s), p, core.Config{})
	off, offStats := res.Best.Clique, res.Stats
	if on.Count() != off.Count() {
		t.Fatalf("clique size with recycling %d, without %d", on.Count(), off.Count())
	}
	if onStats.Nodes != offStats.Nodes || onStats.Prunes != offStats.Prunes {
		t.Fatalf("recycling changed the explored tree: %d/%d nodes, %d/%d prunes",
			onStats.Nodes, offStats.Nodes, onStats.Prunes, offStats.Prunes)
	}
	// And in parallel the optimum still agrees.
	par, _ := Solve(g, core.DepthBounded, core.Config{Workers: 4, DCutoff: 2})
	if par.Count() != on.Count() {
		t.Fatalf("parallel clique size %d, sequential %d", par.Count(), on.Count())
	}
}
