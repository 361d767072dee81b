package tsp

import (
	"testing"

	"yewpar/internal/core"
	"yewpar/internal/coretest"
)

func TestResetMatchesFresh(t *testing.T) {
	s := GenerateEuclidean(9, 100, 3)
	// Breadth-first sample of parents, including complete tours (the
	// childless case the cache hands straight to Reset).
	nodes := []Node{Root(s)}
	for i := 0; i < len(nodes) && len(nodes) < 400; i++ {
		g := Gen(s, nodes[i])
		for g.HasNext() && len(nodes) < 400 {
			nodes = append(nodes, g.Next())
		}
	}
	shared := &gen{}
	for _, parent := range nodes {
		shared.Reset(s, parent)
		fresh := Gen(s, parent)
		for fresh.HasNext() {
			if !shared.HasNext() {
				t.Fatalf("parent %+v: recycled generator ran dry early", parent)
			}
			if got, want := shared.Next(), fresh.Next(); got != want {
				t.Fatalf("parent %+v: recycled child %+v, fresh %+v", parent, got, want)
			}
		}
		if shared.HasNext() {
			t.Fatalf("parent %+v: recycled generator has extra children", parent)
		}
	}
}

func TestSolveRecyclingAblation(t *testing.T) {
	s := GenerateEuclidean(10, 100, 5)
	on, onStats := Solve(s, core.Sequential, core.Config{})
	p := OptProblem()
	p.Gen = coretest.FactoryOnly(p.Gen)
	res := core.Opt(core.Sequential, s, Root(s), p, core.Config{})
	off, offStats := -res.Objective, res.Stats
	if on != off {
		t.Fatalf("tour cost with recycling %d, without %d", on, off)
	}
	if onStats.Nodes != offStats.Nodes {
		t.Fatalf("recycling changed the explored tree: %d vs %d nodes", onStats.Nodes, offStats.Nodes)
	}
}
