// Package nqueens implements the N-Queens enumeration search: count
// the placements of n non-attacking queens. It is not part of the
// paper's evaluated seven, but ships with the original YewPar
// distribution as the canonical backtracking warm-up, and serves the
// same role here: a pure enumeration with a perfectly known answer
// and a sharply irregular tree.
package nqueens

import (
	"yewpar/internal/core"
	"yewpar/internal/dist"
)

// Space is the board size.
type Space struct {
	N int
}

// NewSpace returns the n-queens search space (n <= 32).
func NewSpace(n int) *Space {
	if n < 1 || n > 32 {
		panic("nqueens: board size out of range")
	}
	return &Space{N: n}
}

// Node is a partial placement: one queen per row 0..Row-1, with the
// attacked columns and diagonals as bitmasks. The masks make child
// generation O(1) per candidate column.
type Node struct {
	Row   int
	Cols  uint64 // columns occupied
	Diag1 uint64 // "/" diagonals, shifted left per row
	Diag2 uint64 // "\" diagonals, shifted right per row
}

// Root is the empty board.
func Root(_ *Space) Node { return Node{} }

type gen struct {
	s      *Space
	parent Node
	free   uint64 // candidate columns for the next row
}

var _ core.ResettableGenerator[*Space, Node] = (*gen)(nil)

// Gen is the core.GenFactory for n-queens: children place a queen on
// each safe column of the next row, left to right.
func Gen(s *Space, parent Node) core.NodeGenerator[Node] {
	if parent.Row >= s.N {
		return core.EmptyGen[Node]{}
	}
	g := &gen{}
	g.Reset(s, parent)
	if g.free == 0 {
		return core.EmptyGen[Node]{}
	}
	return g
}

// Reset implements core.ResettableGenerator: recompute the free-column
// mask for the new parent (zero when the board is full or no column is
// safe, in which case HasNext reports false immediately).
func (g *gen) Reset(s *Space, parent Node) {
	g.s, g.parent = s, parent
	if parent.Row >= s.N {
		g.free = 0
		return
	}
	mask := uint64(1)<<uint(s.N) - 1
	g.free = mask &^ (parent.Cols | parent.Diag1 | parent.Diag2)
}

func (g *gen) HasNext() bool { return g.free != 0 }

func (g *gen) Next() Node {
	bit := g.free & (-g.free) // lowest set bit: leftmost free column
	g.free &^= bit
	mask := uint64(1)<<uint(g.s.N) - 1
	return Node{
		Row:   g.parent.Row + 1,
		Cols:  g.parent.Cols | bit,
		Diag1: ((g.parent.Diag1 | bit) << 1) & mask,
		Diag2: (g.parent.Diag2 | bit) >> 1,
	}
}

// CountProblem counts complete placements (nodes at row N).
func CountProblem() core.EnumProblem[*Space, Node, int64] {
	return core.EnumProblem[*Space, Node, int64]{
		Gen: Gen,
		Objective: func(s *Space, n Node) int64 {
			if n.Row == s.N {
				return 1
			}
			return 0
		},
		Monoid: core.SumInt64{},
	}
}

// Run counts the solutions on s's board with the given skeleton: the
// whole search when tr is nil, this process's locality of it otherwise
// (rank 0 then returns the total).
func Run(tr dist.Transport, s *Space, coord core.Coordination, cfg core.Config) (int64, core.Stats, error) {
	res, err := core.DistEnum(tr, Codec(), coord, s, Root(s), CountProblem(), cfg)
	return res.Value, res.Stats, err
}

// Count is Run on the n-queens board in a single process.
func Count(n int, coord core.Coordination, cfg core.Config) (int64, core.Stats) {
	count, stats, _ := Run(nil, NewSpace(n), coord, cfg) // a nil transport cannot fail
	return count, stats
}
