package nqueens

import (
	"testing"

	"yewpar/internal/core"
	"yewpar/internal/coretest"
)

func TestResetMatchesFresh(t *testing.T) {
	s := NewSpace(6)
	nodes := []Node{Root(s)}
	for i := 0; i < len(nodes) && len(nodes) < 600; i++ {
		g := Gen(s, nodes[i])
		for g.HasNext() && len(nodes) < 600 {
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
	// Full boards and dead ends must reset to "no children".
	shared.Reset(s, Node{Row: s.N})
	if shared.HasNext() {
		t.Fatal("full board must have no children after Reset")
	}
}

func TestCountRecyclingAblation(t *testing.T) {
	on, onStats := Count(8, core.Sequential, core.Config{})
	s, p := NewSpace(8), CountProblem()
	p.Gen = coretest.FactoryOnly(p.Gen)
	res := core.Enum(core.Sequential, s, Root(s), p, core.Config{})
	off, offStats := res.Value, res.Stats
	if on != off || on != 92 {
		t.Fatalf("8-queens count with recycling %d, without %d, want 92", on, off)
	}
	if onStats.Nodes != offStats.Nodes {
		t.Fatalf("recycling changed the explored tree: %d vs %d nodes", onStats.Nodes, offStats.Nodes)
	}
}
