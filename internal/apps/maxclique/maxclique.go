// Package maxclique implements the Maximum Clique optimisation search
// and its k-Clique decision variant — the running example of the paper
// (Listing 1) and the workload of its Table 1 and Figure 4.
//
// The algorithm is the bitset branch-and-bound of McCreesh & Prosser
// ("Multi-threading a state-of-the-art maximum clique algorithm"),
// using a greedy colouring both as the heuristic child order (highest
// colour class first) and as the pruning bound: a candidate set that
// can be coloured with c colours contains no clique larger than c.
package maxclique

import (
	"yewpar/internal/bitset"
	"yewpar/internal/core"
	"yewpar/internal/dist"
	"yewpar/internal/graph"
)

// Space is the search space: the input graph (immutable during search).
type Space struct {
	G *graph.Graph
}

// NewSpace wraps a graph as a search space.
func NewSpace(g *graph.Graph) *Space { return &Space{G: g} }

// NewSpaceDegeneracy relabels the graph by its degeneracy order before
// wrapping it: dense-core vertices get low indices, which the greedy
// colouring (it scans ascending indices) rewards with tighter bounds.
// Returns the space and the mapping from new index back to the
// original vertex.
func NewSpaceDegeneracy(g *graph.Graph) (*Space, []int) {
	order, _ := g.DegeneracyOrder()
	// order[i] = original vertex at new position i ⇒ perm[orig] = new
	perm := make([]int, g.N)
	for i, v := range order {
		perm[v] = i
	}
	return &Space{G: g.Relabel(perm)}, order
}

// Node is one search-tree node: a clique under construction, the
// candidate vertices that may extend it, and the colour bound on how
// many candidates can still join (Listing 1's Node struct).
type Node struct {
	Clique bitset.Set // current clique
	Size   int        // |Clique|
	Cands  bitset.Set // vertices adjacent to all of Clique
	Bound  int        // greedy-colouring bound on extensions
}

// Root returns the search-tree root: the empty clique with every vertex
// a candidate.
func Root(s *Space) Node {
	all := bitset.New(s.G.N)
	all.Fill()
	return Node{
		Clique: bitset.New(s.G.N),
		Size:   0,
		Cands:  all,
		Bound:  s.G.N,
	}
}

// gen is the Lazy Node Generator of Listing 1: Reset colours the
// parent's candidate set, and Next yields children in reverse colour
// order (heuristically best first), each with a fresh candidate set
// intersected with the new vertex's neighbourhood. The generator
// implements core.ResettableGenerator: its colouring scratch (order,
// colour, uncol, class) and the shrinking remaining set are reused
// across every node expanded at one stack level — the hcState-style
// per-depth scratch of handcoded.go, made available to the skeletons.
// Children never alias the scratch: each Next copies into freshly
// allocated clique/candidate sets, because child nodes outlive the
// generator (they travel as tasks).
type gen struct {
	s            *Space
	parent       Node
	order        []int32 // candidates in colour-class order
	colour       []int32 // colour[i] = #colours among order[0..i]
	remaining    bitset.Set
	uncol, class bitset.Set // colouring scratch
	k            int

	// Ephemeral mode (ResetEphemeral): children are built in this
	// single owned slab instead of a fresh MakePair per child — the
	// hand-coded solver's zero-copy node discipline. Only the pure DFS
	// loop requests it; see core.EphemeralGenerator.
	ephemeral              bool
	childClique, childCand bitset.Set
}

var _ core.EphemeralGenerator[*Space, Node] = (*gen)(nil)

// Gen is the core.GenFactory for maximum clique.
func Gen(s *Space, parent Node) core.NodeGenerator[Node] {
	if parent.Cands.Empty() {
		return core.EmptyGen[Node]{}
	}
	g := &gen{}
	g.Reset(s, parent)
	return g
}

// Reset implements core.ResettableGenerator: re-aim the generator at a
// new parent, recolouring into the existing scratch. Scratch is sized
// to the space's vertex count and lazily (re)allocated if the space
// changes — within one search it never does.
func (g *gen) Reset(s *Space, parent Node) {
	if g.s != s {
		n := s.G.N
		*g = gen{
			s:      s,
			order:  make([]int32, 0, n),
			colour: make([]int32, 0, n),
		}
		g.remaining, g.uncol = bitset.MakePair(n)
		g.class = bitset.New(n)
	}
	g.parent = parent
	g.ephemeral = false
	if parent.Cands.Empty() {
		g.k = 0
		return
	}
	g.order, g.colour = greedyColourInto(s.G, parent.Cands, g.order[:0], g.colour[:0], g.uncol, g.class)
	g.remaining.CopyFrom(parent.Cands)
	g.k = len(g.order)
}

// ResetEphemeral implements core.EphemeralGenerator: like Reset, but
// every subsequent Next writes the child into the generator's owned
// slab, so expansion allocates nothing at all. The slab stays valid
// exactly as long as the DFS contract requires: until this generator's
// next Next or Reset.
func (g *gen) ResetEphemeral(s *Space, parent Node) {
	g.Reset(s, parent)
	if g.childClique.Cap() != s.G.N {
		g.childClique, g.childCand = bitset.MakePair(s.G.N)
	}
	g.ephemeral = true
}

// CopyNode returns a deeply independent copy of n. It is the Copy hook
// of the maxclique problems, invoked by the engine before retaining an
// ephemeral node as incumbent or witness.
func CopyNode(_ *Space, n Node) Node {
	return Node{Clique: n.Clique.Clone(), Size: n.Size, Cands: n.Cands.Clone(), Bound: n.Bound}
}

func (g *gen) HasNext() bool { return g.k > 0 }

func (g *gen) Next() Node {
	g.k--
	v := int(g.order[g.k])
	g.remaining.Remove(v)
	var clique, cands bitset.Set
	if g.ephemeral {
		clique, cands = g.childClique, g.childCand
	} else {
		clique, cands = bitset.MakePair(g.s.G.N)
	}
	clique.CopyFrom(g.parent.Clique)
	clique.Add(v)
	bitset.IntersectInto(cands, g.remaining, g.s.G.Adj[v])
	// The extension bound is colour[k] - 1, not colour[k]: colour[k]
	// bounds the largest clique within {order[0..k]}, which counts v
	// itself — and v's whole colour class is an independent set, so
	// none of its other members survive the candidate intersection.
	// This is the MCSa prune (size + colour[i] <= best): with it the
	// skeleton searches exactly the hand-coded solver's tree.
	return Node{
		Clique: clique,
		Size:   g.parent.Size + 1,
		Cands:  cands,
		Bound:  int(g.colour[g.k]) - 1,
	}
}

// GreedyColour greedily colours the subgraph induced by the candidate
// set p. It returns the candidates ordered by colour class and, for
// each position i, the number of colours used to colour order[0..i] —
// an upper bound on the largest clique within {order[0], …, order[i]}.
func GreedyColour(g *graph.Graph, p bitset.Set) (order, colour []int32) {
	n := p.Count()
	backing := make([]int32, 2*n)
	order = backing[:0:n]
	colour = backing[n : n : 2*n]
	uncoloured, class := bitset.MakePair(g.N)
	return greedyColourInto(g, p, order, colour, uncoloured, class)
}

// greedyColourInto is GreedyColour appending into caller-provided
// slices and colouring through caller-provided scratch sets (both
// capacity g.N). It does not modify p. Recycled generators call it
// with their per-level scratch, making recolouring allocation-free.
func greedyColourInto(g *graph.Graph, p bitset.Set, order, colour []int32, uncoloured, class bitset.Set) ([]int32, []int32) {
	uncoloured.CopyFrom(p)
	c := int32(0)
	for !uncoloured.Empty() {
		c++
		class.CopyFrom(uncoloured)
		for {
			// PopNext fuses the Min+Remove pair into one scan.
			v := class.PopNext()
			if v < 0 {
				break
			}
			order = append(order, int32(v))
			colour = append(colour, c)
			uncoloured.Remove(v)
			class.DifferenceWith(g.Adj[v])
		}
	}
	return order, colour
}

// Objective is the clique size (maximised).
func Objective(_ *Space, n Node) int64 { return int64(n.Size) }

// UpperBound is Listing 1's upperBound: the clique size plus the colour
// bound on how many vertices can still be added.
func UpperBound(_ *Space, n Node) int64 { return int64(n.Size + n.Bound) }

// OptProblem returns the optimisation-search problem (maximum clique).
// Children are generated in non-increasing colour-bound order, so one
// failed bound check prunes the whole remaining level (PruneLevel) —
// the "prune future children to-the-right" behaviour of Section 4.1,
// and what makes the skeleton search the same tree as the hand-coded
// MCSa-style solver.
func OptProblem() core.OptProblem[*Space, Node] {
	return core.OptProblem[*Space, Node]{
		Gen:        Gen,
		Objective:  Objective,
		Bound:      UpperBound,
		PruneLevel: true,
		Copy:       CopyNode,
	}
}

// DecisionProblem returns the k-clique decision-search problem: does
// the graph contain a clique of k vertices?
func DecisionProblem(k int) core.DecisionProblem[*Space, Node] {
	return core.DecisionProblem[*Space, Node]{
		Gen:        Gen,
		Objective:  Objective,
		Target:     int64(k),
		Bound:      UpperBound,
		PruneLevel: true,
		Copy:       CopyNode,
	}
}

// Run returns the size of a maximum clique of s.G: the whole search when
// tr is nil, this process's locality of it otherwise (rank 0's is global).
func Run(tr dist.Transport, s *Space, coord core.Coordination, cfg core.Config) (int64, core.Stats, error) {
	res, err := core.DistOpt(tr, Codec(), coord, s, Root(s), OptProblem(), cfg)
	return res.Objective, res.Stats, err
}

// RunDecide is Run for the decision search: whether s.G contains a
// k-clique.
func RunDecide(tr dist.Transport, s *Space, k int, coord core.Coordination, cfg core.Config) (bool, core.Stats, error) {
	res, err := core.DistDecide(tr, Codec(), coord, s, Root(s), DecisionProblem(k), cfg)
	return res.Found, res.Stats, err
}

// Solve finds a maximum clique of g with the given skeleton, returning
// the clique vertices and search statistics.
func Solve(g *graph.Graph, coord core.Coordination, cfg core.Config) (bitset.Set, core.Stats) {
	s := NewSpace(g)
	res := core.Opt(coord, s, Root(s), OptProblem(), cfg)
	return res.Best.Clique, res.Stats
}

// Decide reports whether g contains a k-clique, using the given
// skeleton; when it does, the witness clique is returned.
func Decide(g *graph.Graph, k int, coord core.Coordination, cfg core.Config) (bitset.Set, bool, core.Stats) {
	s := NewSpace(g)
	res := core.Decide(coord, s, Root(s), DecisionProblem(k), cfg)
	return res.Witness.Clique, res.Found, res.Stats
}

// FigureOneGraph returns the 8-vertex graph of the paper's Figure 1
// (vertices a..h mapped to 0..7) whose maximum clique is {a, d, f, g}.
func FigureOneGraph() (*graph.Graph, map[int]string) {
	names := map[int]string{0: "a", 1: "b", 2: "c", 3: "d", 4: "e", 5: "f", 6: "g", 7: "h"}
	idx := map[string]int{}
	for i, s := range names {
		idx[s] = i
	}
	g := graph.New(8)
	edges := [][2]string{
		{"a", "b"}, {"a", "c"}, {"a", "d"}, {"a", "f"}, {"a", "g"}, {"a", "h"},
		{"b", "c"}, {"b", "g"},
		{"c", "e"},
		{"d", "f"}, {"d", "g"},
		{"e", "h"},
		{"f", "g"},
	}
	for _, e := range edges {
		g.AddEdge(idx[e[0]], idx[e[1]])
	}
	return g, names
}
