// Package tsp implements the Travelling Salesperson optimisation
// search of the paper's evaluation: find a shortest circular tour of N
// cities by depth-first branch and bound, nearest-city-first child
// order, with a min-outgoing-edge lower bound.
//
// The skeletons maximise, so tours are scored as negated cost.
package tsp

import (
	"math"
	"math/rand"
	"sort"

	"yewpar/internal/core"
	"yewpar/internal/dist"
)

// incomplete is the objective of non-leaf nodes: small enough that only
// complete tours ever become incumbents, large enough not to underflow
// when bounds subtract from it.
const incomplete = math.MinInt64 / 4

// Space is the search space: a symmetric distance matrix plus
// precomputed heuristics. Tours start and end at city 0. At most 64
// cities (visited sets are one word).
type Space struct {
	N         int
	D         [][]int64
	minOut    []int64 // cheapest edge leaving each city
	nearOrder [][]int // per city, other cities by increasing distance
}

// NewSpace builds a space from a symmetric distance matrix.
func NewSpace(d [][]int64) *Space {
	n := len(d)
	if n > 64 {
		panic("tsp: at most 64 cities supported")
	}
	s := &Space{N: n, D: d, minOut: make([]int64, n), nearOrder: make([][]int, n)}
	for c := 0; c < n; c++ {
		mo := int64(math.MaxInt64)
		order := make([]int, 0, n-1)
		for j := 0; j < n; j++ {
			if j == c {
				continue
			}
			order = append(order, j)
			if d[c][j] < mo {
				mo = d[c][j]
			}
		}
		sort.SliceStable(order, func(a, b int) bool { return d[c][order[a]] < d[c][order[b]] })
		s.minOut[c] = mo
		s.nearOrder[c] = order
	}
	return s
}

// Node is a partial tour: the set of visited cities, the current city,
// the accumulated path cost, and the number of cities visited. A node
// with Count == N is a complete tour and Cost includes the closing
// edge back to city 0.
type Node struct {
	Visited uint64
	Last    int
	Cost    int64
	Count   int
}

// Root is the tour containing only city 0.
func Root(_ *Space) Node { return Node{Visited: 1, Last: 0, Cost: 0, Count: 1} }

type gen struct {
	s      *Space
	parent Node
	order  []int
	i      int
}

var _ core.ResettableGenerator[*Space, Node] = (*gen)(nil)

// Gen is the core.GenFactory for TSP: children extend the tour by each
// unvisited city, nearest first. Extending to the final city closes
// the tour.
func Gen(s *Space, parent Node) core.NodeGenerator[Node] {
	if parent.Count == s.N {
		return core.EmptyGen[Node]{}
	}
	g := &gen{}
	g.Reset(s, parent)
	return g
}

// Reset implements core.ResettableGenerator. The child order is a
// shared precomputed slice on the space, so re-aiming costs no
// allocation at all.
func (g *gen) Reset(s *Space, parent Node) {
	g.s, g.parent, g.i = s, parent, 0
	if parent.Count == s.N {
		g.order = nil // complete tour: no children
		return
	}
	g.order = s.nearOrder[parent.Last]
	g.skip()
}

func (g *gen) skip() {
	for g.i < len(g.order) && g.parent.Visited&(1<<uint(g.order[g.i])) != 0 {
		g.i++
	}
}

func (g *gen) HasNext() bool { return g.i < len(g.order) }

func (g *gen) Next() Node {
	c := g.order[g.i]
	g.i++
	g.skip()
	child := Node{
		Visited: g.parent.Visited | 1<<uint(c),
		Last:    c,
		Cost:    g.parent.Cost + g.s.D[g.parent.Last][c],
		Count:   g.parent.Count + 1,
	}
	if child.Count == g.s.N {
		child.Cost += g.s.D[c][0] // close the tour
	}
	return child
}

// Objective scores complete tours by negated cost; partial tours are
// never incumbents.
func Objective(s *Space, n Node) int64 {
	if n.Count == s.N {
		return -n.Cost
	}
	return incomplete
}

// UpperBound bounds the objective of any completion: the remaining
// tour must leave the current city and every unvisited city exactly
// once, so its cost is at least the sum of their cheapest outgoing
// edges.
func UpperBound(s *Space, n Node) int64 {
	if n.Count == s.N {
		return -n.Cost
	}
	lb := n.Cost + s.minOut[n.Last]
	for c := 0; c < s.N; c++ {
		if n.Visited&(1<<uint(c)) == 0 {
			lb += s.minOut[c]
		}
	}
	return -lb
}

// OptProblem returns the TSP optimisation-search problem.
func OptProblem() core.OptProblem[*Space, Node] {
	return core.OptProblem[*Space, Node]{
		Gen:       Gen,
		Objective: Objective,
		Bound:     UpperBound,
	}
}

// Run returns the optimal tour cost found with the given skeleton: the
// whole search when tr is nil, this process's locality of it otherwise
// (rank 0 then returns the global optimum).
func Run(tr dist.Transport, s *Space, coord core.Coordination, cfg core.Config) (int64, core.Stats, error) {
	res, err := core.DistOpt(tr, Codec(), coord, s, Root(s), OptProblem(), cfg)
	return -res.Objective, res.Stats, err
}

// Solve is Run in a single process.
func Solve(s *Space, coord core.Coordination, cfg core.Config) (int64, core.Stats) {
	cost, stats, _ := Run(nil, s, coord, cfg) // a nil transport cannot fail
	return cost, stats
}

// GenerateEuclidean builds a deterministic random instance: n cities
// uniform on a sideXside grid, distances rounded Euclidean.
func GenerateEuclidean(n int, side int64, seed int64) *Space {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]int64, n)
	ys := make([]int64, n)
	for i := 0; i < n; i++ {
		xs[i] = rng.Int63n(side)
		ys[i] = rng.Int63n(side)
	}
	d := make([][]int64, n)
	for i := range d {
		d[i] = make([]int64, n)
		for j := 0; j < n; j++ {
			dx := float64(xs[i] - xs[j])
			dy := float64(ys[i] - ys[j])
			d[i][j] = int64(math.Round(math.Sqrt(dx*dx + dy*dy)))
		}
	}
	return NewSpace(d)
}
