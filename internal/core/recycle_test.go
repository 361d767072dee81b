package core

import (
	"sync/atomic"
	"testing"

	"yewpar/internal/semantics"
)

// rtGen is a resettable generator over a semantics tree, mirroring what the
// real applications implement: cursor state re-aimed by Reset, with
// shared counters so tests can observe how often the factory allocated
// versus recycled.
type rtGen struct {
	kids []string
	i    int
}

func (g *rtGen) Reset(t *semantics.Tree, parent string) {
	g.kids = t.Children[parent]
	g.i = 0
}

func (g *rtGen) HasNext() bool { return g.i < len(g.kids) }

func (g *rtGen) Next() string {
	g.i++
	return g.kids[g.i-1]
}

var _ ResettableGenerator[*semantics.Tree, string] = (*rtGen)(nil)

// countingGen returns a GenFactory plus a counter of constructions
// (factory calls, each of which allocated). Resettable, its generators are
// rtGens the cache recycles; otherwise it is the reference arm, treeGen's
// (HasNext and Next only), so every expansion takes the factory path, as
// in any application without Reset.
func countingGen(resettable bool) (GenFactory[*semantics.Tree, string], *atomic.Int64) {
	var constructions atomic.Int64
	gf := func(t *semantics.Tree, parent string) NodeGenerator[string] {
		constructions.Add(1)
		if !resettable {
			return treeGen(t, parent)
		}
		g := &rtGen{}
		g.Reset(t, parent)
		return g
	}
	return gf, &constructions
}

func resettableEnumProblem(gf GenFactory[*semantics.Tree, string]) EnumProblem[*semantics.Tree, string, int64] {
	p := enumProblem()
	p.Gen = gf
	return p
}

// TestGenCacheRecycles checks the cache contract directly: one
// generator per level, Reset on reuse, factory fallback for fresh
// levels and for generators that cannot be reset.
func TestGenCacheRecycles(t *testing.T) {
	tree := semantics.GenTree(3, 3, 6)
	gf, constructions := countingGen(true)
	gc := genCache[*semantics.Tree, string]{space: tree, gf: gf}

	root := ""
	g0 := gc.gen(0, root)
	if constructions.Load() != 1 {
		t.Fatalf("first level-0 gen: %d constructions, want 1", constructions.Load())
	}
	if gc.gen(0, root) != g0 || constructions.Load() != 1 {
		t.Fatalf("level-0 generator not recycled: %d constructions, want 1", constructions.Load())
	}
	if gc.gen(1, root) == g0 || constructions.Load() != 2 {
		t.Fatalf("level 1 must get its own generator: %d constructions, want 2", constructions.Load())
	}

	// Nothing to recycle: every request goes to the factory.
	gfOff, consOff := countingGen(false)
	gcOff := genCache[*semantics.Tree, string]{space: tree, gf: gfOff}
	gcOff.gen(0, root)
	gcOff.genDFS(0, root)
	if consOff.Load() != 2 {
		t.Fatalf("cache constructed %d non-resettable generators for 2 requests", consOff.Load())
	}
}

// TestGenCacheResetMatchesFresh drains a recycled generator against a
// fresh one for every node of a random tree: the child streams must be
// identical.
func TestGenCacheResetMatchesFresh(t *testing.T) {
	tree := semantics.GenTree(7, 4, 7)
	// Collect every node with fresh generators, then replay the whole
	// set through ONE recycled generator — successive Resets at a
	// single level, exactly the cache's reuse pattern.
	var nodes []string
	var walk func(n string)
	walk = func(n string) {
		nodes = append(nodes, n)
		g := treeGen(tree, n)
		for g.HasNext() {
			walk(g.Next())
		}
	}
	walk("")

	shared := &rtGen{}
	for _, n := range nodes {
		shared.Reset(tree, n)
		fresh := treeGen(tree, n)
		for fresh.HasNext() {
			if !shared.HasNext() {
				t.Fatalf("node %q: recycled generator ran dry early", n)
			}
			got, want := shared.Next(), fresh.Next()
			if got != want {
				t.Fatalf("node %q: recycled child %v, fresh child %v", n, got, want)
			}
		}
		if shared.HasNext() {
			t.Fatalf("node %q: recycled generator has extra children", n)
		}
	}
}

// TestRecyclingSequentialAllocatesPerLevel runs a sequential
// enumeration with a resettable factory and checks the factory was
// called only O(depth) times, not O(nodes) — the allocation-free
// expansion property.
func TestRecyclingSequentialAllocatesPerLevel(t *testing.T) {
	tree := semantics.GenTree(11, 4, 9)
	gf, constructions := countingGen(true)
	res := Enum(Sequential, tree, "", resettableEnumProblem(gf), Config{})
	if res.Value != int64(tree.Sum()) || res.Stats.Nodes != int64(tree.Size()) {
		t.Fatalf("recycled enum sum = %d over %d nodes, want %d over %d", res.Value, res.Stats.Nodes, tree.Sum(), tree.Size())
	}
	// One construction per stack level ever reached (≤ maxDepth+1);
	// far below one per node.
	if c := constructions.Load(); c > 10 {
		t.Fatalf("factory called %d times for a %d-node tree; recycling broken", c, tree.Size())
	}

	// And the reference arm really takes the factory path: the same
	// search, constructions scaling with expanded nodes.
	gfOff, consOff := countingGen(false)
	resOff := Enum(Sequential, tree, "", resettableEnumProblem(gfOff), Config{})
	if resOff.Value != int64(tree.Sum()) || resOff.Stats.Nodes != res.Stats.Nodes {
		t.Fatalf("factory-path enum sum = %d over %d nodes, recycled %d over %d", resOff.Value, resOff.Stats.Nodes, res.Value, res.Stats.Nodes)
	}
	if c := consOff.Load(); c <= 10 {
		t.Fatalf("factory called only %d times without a resettable generator; reference arm not effective", c)
	}
}

// ephNode carries a heap-referenced payload, so an ephemeral generator
// that reuses its child buffer corrupts any retained node unless the
// engine deep-copies at retention points — the regression this type
// exists to catch.
type ephNode struct {
	id    []byte
	depth int
}

type ephGen struct {
	kids  []string
	depth int
	i     int
	buf   ephNode // ephemeral child slab
	eph   bool
}

func (g *ephGen) Reset(t *semantics.Tree, parent ephNode) {
	g.kids = t.Children[string(parent.id)]
	g.depth = parent.depth + 1
	g.i = 0
	g.eph = false
}

func (g *ephGen) ResetEphemeral(t *semantics.Tree, parent ephNode) {
	g.Reset(t, parent)
	g.eph = true
}

func (g *ephGen) HasNext() bool { return g.i < len(g.kids) }

func (g *ephGen) Next() ephNode {
	id := g.kids[g.i]
	g.i++
	if g.eph {
		g.buf.id = append(g.buf.id[:0], id...)
		g.buf.depth = g.depth
		return g.buf
	}
	return ephNode{id: []byte(id), depth: g.depth}
}

var _ EphemeralGenerator[*semantics.Tree, ephNode] = (*ephGen)(nil)

func ephOptProblem() OptProblem[*semantics.Tree, ephNode] {
	return OptProblem[*semantics.Tree, ephNode]{
		Gen: func(t *semantics.Tree, parent ephNode) NodeGenerator[ephNode] {
			g := &ephGen{}
			g.Reset(t, parent)
			return g
		},
		Objective: func(tt *semantics.Tree, n ephNode) int64 { return hOf(tt, string(n.id)) },
		Copy: func(_ *semantics.Tree, n ephNode) ephNode {
			return ephNode{id: append([]byte(nil), n.id...), depth: n.depth}
		},
	}
}

// TestEphemeralIncumbentIsCopied pins the retention contract: the
// returned Best node must be the node whose objective was recorded,
// not a later overwrite of the generator's child buffer — across every
// optimisation coordination that reaches expandBelow's ephemeral path,
// including Replicable's, whose tasks strengthen private incumbents.
func TestEphemeralIncumbentIsCopied(t *testing.T) {
	tree := semantics.GenTree(13, 4, 8)
	p := ephOptProblem()
	want := int64(tree.Max())
	check := func(name string, res OptResult[ephNode]) {
		t.Helper()
		if res.Objective != want {
			t.Fatalf("%s objective = %d, want %d", name, res.Objective, want)
		}
		if got := hOf(tree, string(res.Best.id)); got != res.Objective {
			t.Fatalf("%s Best node %q has value %d, recorded objective %d (aliased ephemeral buffer?)",
				name, res.Best.id, got, res.Objective)
		}
	}
	check("seq", Opt(Sequential, tree, ephNode{}, p, Config{}))
	check("depthbounded", Opt(DepthBounded, tree, ephNode{}, p, Config{Workers: 4, DCutoff: 2}))
	check("replicable", Opt(Replicable, tree, ephNode{}, p, Config{Workers: 4, DCutoff: 2}))
}

// TestRecyclingAllCoordinations runs every parallel coordination with
// resettable generators and multiple workers — under `go test -race`
// this is the regression net for worker-confined generator reuse.
func TestRecyclingAllCoordinations(t *testing.T) {
	tree := semantics.GenTree(5, 4, 8)
	want := int64(tree.Sum())
	cases := []struct {
		name  string
		coord Coordination
		cfg   Config
	}{
		{"depthbounded", DepthBounded, Config{Workers: 4, DCutoff: 3}},
		{"budget", Budget, Config{Workers: 4, Budget: 20}},
		{"stacksteal", StackStealing, Config{Workers: 4}},
		{"depthbounded-2loc", DepthBounded, Config{Workers: 4, Localities: 2, DCutoff: 3}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			gf, _ := countingGen(true)
			res := Enum(c.coord, tree, "", resettableEnumProblem(gf), audited(t, c.cfg))
			if res.Value != want || res.Stats.Nodes != int64(tree.Size()) {
				t.Fatalf("%s enum sum = %d over %d nodes, want %d over %d", c.name, res.Value, res.Stats.Nodes, want, tree.Size())
			}
		})
	}

	// Optimisation with pruning and recycling, against the sequential
	// oracle.
	sortByBound(tree)
	p := optProblem(true)
	gfOpt, _ := countingGen(true)
	p.Gen = gfOpt
	seq := Opt(Sequential, tree, "", p, Config{})
	for _, c := range cases {
		par := Opt(c.coord, tree, "", p, audited(t, c.cfg))
		if par.Objective != seq.Objective {
			t.Fatalf("%s optimum %d, sequential %d", c.name, par.Objective, seq.Objective)
		}
	}
}
