package uts

import (
	"testing"

	"yewpar/internal/core"
	"yewpar/internal/coretest"
)

func testSpace() *Space {
	return &Space{Shape: Binomial, B0: 6, M: 4, Q: 0.23, Seed: 42}
}

func TestResetMatchesFresh(t *testing.T) {
	s := testSpace()
	nodes := []Node{Root(s)}
	for i := 0; i < len(nodes) && len(nodes) < 500; i++ {
		g := Gen(s, nodes[i])
		for g.HasNext() && len(nodes) < 500 {
			nodes = append(nodes, g.Next())
		}
	}
	shared := &gen{}
	for _, parent := range nodes {
		shared.Reset(s, parent)
		fresh := Gen(s, parent)
		for fresh.HasNext() {
			if !shared.HasNext() {
				t.Fatal("recycled generator ran dry early")
			}
			if got, want := shared.Next(), fresh.Next(); got != want {
				t.Fatalf("recycled child %+v, fresh %+v", got, want)
			}
		}
		if shared.HasNext() {
			t.Fatal("recycled generator has extra children")
		}
	}
}

func TestCountRecyclingAblation(t *testing.T) {
	s := testSpace()
	on, onStats := Count(s, core.Sequential, core.Config{})
	p := CountProblem()
	p.Gen = coretest.FactoryOnly(p.Gen)
	res := core.Enum(core.Sequential, s, Root(s), p, core.Config{})
	off, offStats := res.Value, res.Stats
	if on != off {
		t.Fatalf("tree size with recycling %d, without %d", on, off)
	}
	if onStats.Nodes != offStats.Nodes {
		t.Fatalf("recycling changed the explored tree: %d vs %d nodes", onStats.Nodes, offStats.Nodes)
	}
}
