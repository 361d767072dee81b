// Package knapsack implements the 0/1 Knapsack optimisation search of
// the paper's evaluation: choose a subset of items maximising profit
// subject to a weight capacity, by branch and bound over the inclusion
// tree with the Dantzig fractional upper bound.
package knapsack

import (
	"math/rand"
	"sort"

	"yewpar/internal/core"
	"yewpar/internal/dist"
)

// Item is a knapsack item.
type Item struct {
	Profit int64
	Weight int64
}

// Space is the search space: items in non-increasing profit-density
// order, and the capacity.
type Space struct {
	Items []Item
	Cap   int64
}

// NewSpace copies and density-sorts the items (the classic heuristic
// order: children that include high-density items come first, and the
// fractional bound is computed greedily along the same order).
func NewSpace(items []Item, capacity int64) *Space {
	sorted := make([]Item, len(items))
	copy(sorted, items)
	sort.SliceStable(sorted, func(i, j int) bool {
		// p_i/w_i > p_j/w_j without division
		return sorted[i].Profit*sorted[j].Weight > sorted[j].Profit*sorted[i].Weight
	})
	return &Space{Items: sorted, Cap: capacity}
}

// Node is a partial solution: items before Pos have been decided, and
// the node's own inclusion set is feasible (Weight <= Cap). Every node
// is itself a candidate solution, so Objective is just its profit.
type Node struct {
	Pos    int // next item index eligible for inclusion
	Profit int64
	Weight int64
}

// Root is the empty knapsack.
func Root(_ *Space) Node { return Node{} }

// gen yields one child per still-fitting item at index >= Pos: the
// solution extended by that item. Children appear in density order.
type gen struct {
	s      *Space
	parent Node
	i      int
}

var _ core.ResettableGenerator[*Space, Node] = (*gen)(nil)

// Gen is the core.GenFactory for knapsack.
func Gen(s *Space, parent Node) core.NodeGenerator[Node] {
	g := &gen{}
	g.Reset(s, parent)
	return g
}

// Reset implements core.ResettableGenerator; the generator is three
// words of cursor state, so recycling it makes expansion allocation-
// free.
func (g *gen) Reset(s *Space, parent Node) {
	g.s, g.parent, g.i = s, parent, parent.Pos
	g.skip()
}

// skip advances i to the next item that fits.
func (g *gen) skip() {
	for g.i < len(g.s.Items) && g.parent.Weight+g.s.Items[g.i].Weight > g.s.Cap {
		g.i++
	}
}

func (g *gen) HasNext() bool { return g.i < len(g.s.Items) }

func (g *gen) Next() Node {
	it := g.s.Items[g.i]
	child := Node{
		Pos:    g.i + 1,
		Profit: g.parent.Profit + it.Profit,
		Weight: g.parent.Weight + it.Weight,
	}
	g.i++
	g.skip()
	return child
}

// Objective is the node's profit (maximised).
func Objective(_ *Space, n Node) int64 { return n.Profit }

// UpperBound is the Dantzig bound: fill the remaining capacity greedily
// in density order, taking a fractional piece of the first item that
// does not fit. Profits are integral, so the floor of the LP bound
// still dominates every integral completion.
func UpperBound(s *Space, n Node) int64 {
	capacity := s.Cap - n.Weight
	bound := n.Profit
	for i := n.Pos; i < len(s.Items); i++ {
		it := s.Items[i]
		if it.Weight <= capacity {
			capacity -= it.Weight
			bound += it.Profit
			continue
		}
		bound += it.Profit * capacity / it.Weight
		break
	}
	return bound
}

// OptProblem returns the knapsack optimisation-search problem.
func OptProblem() core.OptProblem[*Space, Node] {
	return core.OptProblem[*Space, Node]{
		Gen:       Gen,
		Objective: Objective,
		Bound:     UpperBound,
	}
}

// Run maximises profit with the given skeleton: the whole search when tr
// is nil, this process's locality of it otherwise (rank 0 then returns
// the global optimum).
func Run(tr dist.Transport, s *Space, coord core.Coordination, cfg core.Config) (int64, core.Stats, error) {
	res, err := core.DistOpt(tr, Codec(), coord, s, Root(s), OptProblem(), cfg)
	return res.Objective, res.Stats, err
}

// Solve is Run in a single process.
func Solve(s *Space, coord core.Coordination, cfg core.Config) (int64, core.Stats) {
	profit, stats, _ := Run(nil, s, coord, cfg) // a nil transport cannot fail
	return profit, stats
}

// Correlation selects the instance family, following the classic
// Pisinger/Martello-Toth generator taxonomy.
type Correlation int

const (
	// Uncorrelated draws profits and weights independently.
	Uncorrelated Correlation = iota
	// WeaklyCorrelated draws profit near weight (hard-ish).
	WeaklyCorrelated
	// StronglyCorrelated sets profit = weight + R/10 (hard).
	StronglyCorrelated
	// SubsetSum sets profit = weight with even weights but an odd
	// capacity, the hardest family for Dantzig-bound branch and
	// bound: the optimum is unreachable by one unit while the
	// fractional bound equals the capacity almost everywhere, so
	// pruning barely bites and the search degenerates towards full
	// enumeration.
	SubsetSum
)

// Generate builds a deterministic random instance of n items with
// coefficients in [1, r], capacity half the total weight.
func Generate(n int, r int64, corr Correlation, seed int64) *Space {
	rng := rand.New(rand.NewSource(seed))
	items := make([]Item, n)
	var total int64
	for i := range items {
		w := 1 + rng.Int63n(r)
		var p int64
		switch corr {
		case WeaklyCorrelated:
			p = w + rng.Int63n(r/5+1) - r/10
			if p < 1 {
				p = 1
			}
		case StronglyCorrelated:
			p = w + r/10
		case SubsetSum:
			w = 2 * (1 + rng.Int63n(r/2))
			p = w
		default:
			p = 1 + rng.Int63n(r)
		}
		items[i] = Item{Profit: p, Weight: w}
		total += w
	}
	capacity := total / 2
	if corr == SubsetSum {
		capacity |= 1 // odd capacity: exact fill impossible
	}
	return NewSpace(items, capacity)
}
