// Package sip implements the Subgraph Isomorphism Problem decision
// search of the paper's evaluation: does a copy of a pattern graph
// appear in a target graph? The search assigns pattern vertices in
// static descending-degree order, with forward adjacency-consistency
// and degree filtering in the node generator (a simplified relative of
// the McCreesh/Prosser algorithm the paper's baseline uses). Matches
// are non-induced: pattern edges must map to target edges, pattern
// non-edges are unconstrained.
package sip

import (
	"math/rand"
	"sort"

	"yewpar/internal/bitset"
	"yewpar/internal/core"
	"yewpar/internal/dist"
	"yewpar/internal/graph"
)

// Space holds the pattern and target plus precomputed orders.
type Space struct {
	P, T *graph.Graph
	// Order is the static variable order: pattern vertices by
	// descending degree (most constrained first).
	Order []int
	pdeg  []int
	tdeg  []int
	// padj[i][j] reports whether Order[i] and Order[j] are adjacent in
	// the pattern, indexed by assignment position.
	padj [][]bool
	// pnds/tnds are neighbourhood degree sequences: each vertex's
	// neighbours' degrees sorted descending. v can host u only if
	// tnds[v] pointwise dominates pnds[u] — a static filter from the
	// McCreesh/Prosser SIP solver the paper uses as its baseline.
	pnds [][]int32
	tnds [][]int32
}

// neighbourhoodDegrees returns, per vertex, the sorted-descending
// degree sequence of its neighbours.
func neighbourhoodDegrees(g *graph.Graph) [][]int32 {
	nds := make([][]int32, g.N)
	for v := 0; v < g.N; v++ {
		seq := make([]int32, 0, g.Degree(v))
		g.Adj[v].ForEach(func(u int) bool {
			seq = append(seq, int32(g.Degree(u)))
			return true
		})
		sort.Slice(seq, func(i, j int) bool { return seq[i] > seq[j] })
		nds[v] = seq
	}
	return nds
}

// ndsDominates reports whether the target sequence can host the
// pattern sequence: target must be at least as long, and pointwise at
// least as large on the pattern's prefix.
func ndsDominates(target, pattern []int32) bool {
	if len(target) < len(pattern) {
		return false
	}
	for i := range pattern {
		if target[i] < pattern[i] {
			return false
		}
	}
	return true
}

// connectedOrder returns a static variable order: start from the
// highest-degree vertex, then repeatedly pick the unordered vertex
// with the most neighbours already in the order (ties by degree, then
// index). Keeping consecutive variables adjacent maximises how much
// each new assignment is constrained by earlier ones.
func connectedOrder(g *graph.Graph) []int {
	if g.N == 0 {
		return nil
	}
	order := make([]int, 0, g.N)
	inOrder := make([]bool, g.N)
	linked := make([]int, g.N) // neighbours already ordered
	for len(order) < g.N {
		best := -1
		for v := 0; v < g.N; v++ {
			if inOrder[v] {
				continue
			}
			if best < 0 ||
				linked[v] > linked[best] ||
				(linked[v] == linked[best] && g.Degree(v) > g.Degree(best)) {
				best = v
			}
		}
		order = append(order, best)
		inOrder[best] = true
		g.Adj[best].ForEach(func(u int) bool {
			linked[u]++
			return true
		})
	}
	return order
}

// NewSpace precomputes the search order and degree tables.
func NewSpace(pattern, target *graph.Graph) *Space {
	s := &Space{
		P:     pattern,
		T:     target,
		Order: connectedOrder(pattern),
		pdeg:  make([]int, pattern.N),
		tdeg:  make([]int, target.N),
	}
	for v := 0; v < pattern.N; v++ {
		s.pdeg[v] = pattern.Degree(v)
	}
	for v := 0; v < target.N; v++ {
		s.tdeg[v] = target.Degree(v)
	}
	s.padj = make([][]bool, pattern.N)
	for i := range s.padj {
		s.padj[i] = make([]bool, pattern.N)
		for j := range s.padj[i] {
			s.padj[i][j] = pattern.HasEdge(s.Order[i], s.Order[j])
		}
	}
	s.pnds = neighbourhoodDegrees(pattern)
	s.tnds = neighbourhoodDegrees(target)
	return s
}

// Node is a partial assignment: Assigned[i] is the target vertex of
// pattern vertex Order[i]. Used tracks occupied target vertices.
type Node struct {
	Assigned []int32
	Used     bitset.Set
}

// Depth returns the number of assigned pattern vertices.
func (n Node) Depth() int { return len(n.Assigned) }

// Root is the empty assignment.
func Root(s *Space) Node {
	return Node{Assigned: nil, Used: bitset.New(s.T.N)}
}

type gen struct {
	s      *Space
	parent Node
	pos    int        // assignment position being filled
	cand   bitset.Set // adjacency-consistent unassigned target vertices
	built  bool
	buf    Node
	ok     bool
}

// Gen is the core.GenFactory for SIP: children map the next pattern
// vertex (in static order) to each compatible target vertex, filtered
// by degree and adjacency to already-assigned neighbours.
func Gen(s *Space, parent Node) core.NodeGenerator[Node] {
	if parent.Depth() >= s.P.N {
		return core.EmptyGen[Node]{}
	}
	return &gen{s: s, parent: parent, pos: parent.Depth()}
}

// buildCand materialises the candidate set for assignment position
// pos: every unassigned target vertex, intersected with the target
// neighbourhood of each already-assigned pattern neighbour. One
// word-parallel IntersectInto per assigned neighbour replaces the
// per-vertex HasEdge scan of the naive filter; the per-vertex degree
// and neighbourhood-degree checks run only on the survivors.
func (g *gen) buildCand() {
	g.cand = bitset.New(g.s.T.N)
	g.cand.Fill()
	g.cand.DifferenceWith(g.parent.Used)
	for i, u := range g.parent.Assigned {
		if g.s.padj[g.pos][i] {
			bitset.IntersectInto(g.cand, g.cand, g.s.T.Adj[int(u)])
		}
	}
	g.built = true
}

// feasible checks target vertex t for assignment position pos (the
// naive reference filter; the generator itself uses the candidate
// bitset of buildCand, which accepts exactly the same vertices).
func (g *gen) feasible(t int) bool {
	if g.parent.Used.Contains(t) {
		return false
	}
	pv := g.s.Order[g.pos]
	if g.s.tdeg[t] < g.s.pdeg[pv] {
		return false
	}
	if !ndsDominates(g.s.tnds[t], g.s.pnds[pv]) {
		return false
	}
	for i, u := range g.parent.Assigned {
		if g.s.padj[g.pos][i] && !g.s.T.HasEdge(int(u), t) {
			return false
		}
	}
	return true
}

func (g *gen) HasNext() bool {
	if g.ok {
		return true
	}
	if !g.built {
		g.buildCand()
	}
	pv := g.s.Order[g.pos]
	for {
		// PopNext consumes candidates in ascending order, matching the
		// naive filter's scan order exactly.
		t := g.cand.PopNext()
		if t < 0 {
			return false
		}
		if g.s.tdeg[t] < g.s.pdeg[pv] || !ndsDominates(g.s.tnds[t], g.s.pnds[pv]) {
			continue
		}
		assigned := make([]int32, len(g.parent.Assigned)+1)
		copy(assigned, g.parent.Assigned)
		assigned[len(assigned)-1] = int32(t)
		used := g.parent.Used.Clone()
		used.Add(t)
		g.buf = Node{Assigned: assigned, Used: used}
		g.ok = true
		return true
	}
}

func (g *gen) Next() Node {
	if !g.HasNext() {
		panic("sip: Next on exhausted generator")
	}
	g.ok = false
	return g.buf
}

// Objective is the number of assigned pattern vertices.
func Objective(_ *Space, n Node) int64 { return int64(n.Depth()) }

// DecisionProblem returns the SIP decision search: find a complete
// assignment. The generator enforces consistency, so no extra bound is
// useful (every node can in principle reach a full assignment).
func DecisionProblem(s *Space) core.DecisionProblem[*Space, Node] {
	return core.DecisionProblem[*Space, Node]{
		Gen:       Gen,
		Objective: Objective,
		Target:    int64(s.P.N),
	}
}

// Run reports whether the pattern embeds in the target: the whole search
// when tr is nil, this process's locality of it otherwise (rank 0's
// answer is global).
func Run(tr dist.Transport, s *Space, coord core.Coordination, cfg core.Config) (bool, core.Stats, error) {
	res, err := core.DistDecide(tr, Codec(), coord, s, Root(s), DecisionProblem(s), cfg)
	return res.Found, res.Stats, err
}

// Solve looks for an embedding with the given skeleton. On success the
// returned mapping sends pattern vertex v to mapping[v].
func Solve(s *Space, coord core.Coordination, cfg core.Config) ([]int, bool, core.Stats) {
	res := core.Decide(coord, s, Root(s), DecisionProblem(s), cfg)
	if !res.Found {
		return nil, false, res.Stats
	}
	mapping := make([]int, s.P.N)
	for i, t := range res.Witness.Assigned {
		mapping[s.Order[i]] = int(t)
	}
	return mapping, true, res.Stats
}

// VerifyEmbedding checks that mapping is injective and edge-preserving.
func VerifyEmbedding(p, t *graph.Graph, mapping []int) bool {
	if len(mapping) != p.N {
		return false
	}
	seen := bitset.New(t.N)
	for _, m := range mapping {
		if m < 0 || m >= t.N || seen.Contains(m) {
			return false
		}
		seen.Add(m)
	}
	for u := 0; u < p.N; u++ {
		ok := true
		p.Adj[u].ForEach(func(v int) bool {
			if !t.HasEdge(mapping[u], mapping[v]) {
				ok = false
			}
			return ok
		})
		if !ok {
			return false
		}
	}
	return true
}

// GenerateSat builds a deterministic satisfiable instance: a G(n, p)
// target and a pattern obtained by taking the subgraph induced by pn
// random target vertices and deleting each induced edge with
// probability drop (edge deletion keeps the identity embedding valid
// for non-induced matching).
func GenerateSat(n int, p float64, pn int, drop float64, seed int64) *Space {
	rng := rand.New(rand.NewSource(seed))
	target := graph.Random(n, p, seed*2+1)
	perm := rng.Perm(n)[:pn]
	induced, _ := target.InducedSubgraph(perm)
	pattern := graph.New(pn)
	for u := 0; u < pn; u++ {
		induced.Adj[u].ForEach(func(v int) bool {
			if u < v && rng.Float64() >= drop {
				pattern.AddEdge(u, v)
			}
			return true
		})
	}
	return NewSpace(pattern, target)
}

// GenerateRandom builds a deterministic instance with independent
// pattern and target densities; satisfiability is not guaranteed
// either way (the hard regime the paper's SIP instances live in).
func GenerateRandom(tn int, tp float64, pn int, pp float64, seed int64) *Space {
	target := graph.Random(tn, tp, seed*2+1)
	pattern := graph.Random(pn, pp, seed*2+2)
	return NewSpace(pattern, target)
}
