// Package uts implements the Unbalanced Tree Search enumeration
// benchmark of the paper's evaluation (Olivier et al.): a synthetic,
// highly irregular search tree generated on the fly from SHA-1 hashes,
// so that the tree shape is deterministic for a seed but unpredictable,
// stressing dynamic load balancing.
package uts

import (
	"crypto/sha1"
	"encoding/binary"

	"yewpar/internal/core"
	"yewpar/internal/dist"
)

// Shape selects the tree-shape family.
type Shape int

const (
	// Binomial trees: the root has B0 children; every other node has
	// M children with probability Q, none otherwise. Expected size is
	// finite iff M*Q < 1; variance is huge, which is the point.
	Binomial Shape = iota
	// Geometric trees: a node at depth d < MaxDepth has between 0 and
	// 2*B0*(1 - d/MaxDepth) children (uniformly, hash-driven), so
	// expected branching decays linearly to the depth limit.
	Geometric
)

// Space describes a UTS tree.
type Space struct {
	Shape    Shape
	B0       int     // root branching factor
	M        int     // binomial: non-root branching factor
	Q        float64 // binomial: probability a non-root node branches
	MaxDepth int     // geometric: depth limit
	Seed     int64
}

// Node is one tree node: its SHA-1 descriptor and depth.
type Node struct {
	H     [sha1.Size]byte
	Depth int
}

// Root derives the root node from the space seed.
func Root(s *Space) Node {
	var seed [8]byte
	binary.LittleEndian.PutUint64(seed[:], uint64(s.Seed))
	return Node{H: sha1.Sum(seed[:]), Depth: 0}
}

// childHash derives child i's descriptor from its parent's.
func childHash(parent *Node, i int) [sha1.Size]byte {
	var buf [sha1.Size + 4]byte
	copy(buf[:], parent.H[:])
	binary.LittleEndian.PutUint32(buf[sha1.Size:], uint32(i))
	return sha1.Sum(buf[:])
}

// rand01 maps a node's hash to a float in [0, 1).
func rand01(h [sha1.Size]byte) float64 {
	u := binary.LittleEndian.Uint64(h[:8])
	return float64(u>>11) / float64(1<<53)
}

// NumChildren returns the branching factor of a node, fully determined
// by its hash.
func NumChildren(s *Space, n Node) int {
	switch s.Shape {
	case Binomial:
		if n.Depth == 0 {
			return s.B0
		}
		if rand01(n.H) < s.Q {
			return s.M
		}
		return 0
	case Geometric:
		if n.Depth >= s.MaxDepth {
			return 0
		}
		width := 2 * float64(s.B0) * (1 - float64(n.Depth)/float64(s.MaxDepth))
		return int(rand01(n.H) * width)
	default:
		panic("uts: unknown shape")
	}
}

type gen struct {
	s      *Space
	parent Node
	m      int
	i      int
}

var _ core.ResettableGenerator[*Space, Node] = (*gen)(nil)

// Gen is the core.GenFactory for UTS.
func Gen(s *Space, parent Node) core.NodeGenerator[Node] {
	m := NumChildren(s, parent)
	if m == 0 {
		return core.EmptyGen[Node]{}
	}
	g := &gen{}
	g.Reset(s, parent)
	return g
}

// Reset implements core.ResettableGenerator: rederive the branching
// factor from the new parent's hash and rewind the child cursor.
func (g *gen) Reset(s *Space, parent Node) {
	g.s, g.parent = s, parent
	g.m = NumChildren(s, parent)
	g.i = 0
}

func (g *gen) HasNext() bool { return g.i < g.m }

func (g *gen) Next() Node {
	n := Node{H: childHash(&g.parent, g.i), Depth: g.parent.Depth + 1}
	g.i++
	return n
}

// CountProblem counts tree nodes (the standard UTS measurement).
func CountProblem() core.EnumProblem[*Space, Node, int64] {
	return core.EnumProblem[*Space, Node, int64]{
		Gen:       Gen,
		Objective: func(*Space, Node) int64 { return 1 },
		Monoid:    core.SumInt64{},
	}
}

// MaxDepthProblem computes the deepest node.
func MaxDepthProblem() core.EnumProblem[*Space, Node, int64] {
	return core.EnumProblem[*Space, Node, int64]{
		Gen:       Gen,
		Objective: func(_ *Space, n Node) int64 { return int64(n.Depth) },
		Monoid:    core.MaxInt64{},
	}
}

// Run counts the nodes of the tree with the given skeleton: the whole
// search when tr is nil, this process's locality of it otherwise (rank 0
// then returns the total).
func Run(tr dist.Transport, s *Space, coord core.Coordination, cfg core.Config) (int64, core.Stats, error) {
	res, err := core.DistEnum(tr, Codec(), coord, s, Root(s), CountProblem(), cfg)
	return res.Value, res.Stats, err
}

// Count is Run in a single process.
func Count(s *Space, coord core.Coordination, cfg core.Config) (int64, core.Stats) {
	count, stats, _ := Run(nil, s, coord, cfg) // a nil transport cannot fail
	return count, stats
}
