// Package semigroups implements the Numerical Semigroups enumeration
// of the paper's evaluation (Fromentin & Hivert, "Exploring the tree
// of numerical semigroups"): count the numerical semigroups of a given
// genus by walking the semigroup tree.
//
// A numerical semigroup is a cofinite subset of the naturals
// containing 0 and closed under addition; its genus is the number of
// missing naturals (gaps) and its Frobenius number is the largest gap.
// The tree has the full semigroup ℕ at the root; the children of a
// semigroup S are the semigroups S \ {e} for each generator e of S
// exceeding its Frobenius number. Every semigroup of genus g appears
// exactly once at depth g.
//
// Representation: membership of the values 0..127 in two machine
// words. Any semigroup of genus g has Frobenius number at most 2g-1,
// and the effective generators explored at genus g are at most 2g+1,
// so the fixed 128-bit window is exact for genus <= 63 — far beyond
// what exhaustive counting can reach anyway.
package semigroups

import (
	"errors"
	"math/bits"

	"yewpar/internal/core"
	"yewpar/internal/dist"
)

// maxVal is the largest representable semigroup element.
const maxVal = 127

// mask128 is a 128-bit membership mask over the values 0..127.
type mask128 struct {
	lo, hi uint64
}

func (m mask128) contains(i int) bool {
	if i < 64 {
		return m.lo&(1<<uint(i)) != 0
	}
	return m.hi&(1<<uint(i-64)) != 0
}

func (m *mask128) remove(i int) {
	if i < 64 {
		m.lo &^= 1 << uint(i)
	} else {
		m.hi &^= 1 << uint(i-64)
	}
}

// Space bounds the exploration depth: semigroups of genus > MaxGenus
// are not expanded.
type Space struct {
	MaxGenus int
}

// NewSpace returns a space exploring up to the given genus.
func NewSpace(maxGenus int) *Space {
	if maxGenus < 0 || 2*maxGenus+1 > maxVal {
		panic("semigroups: genus out of supported range")
	}
	return &Space{MaxGenus: maxGenus}
}

// Node is one numerical semigroup.
type Node struct {
	elems mask128
	// Frob is the Frobenius number (largest gap); -1 for ℕ itself.
	Frob int
	// Genus is the number of gaps, which equals the tree depth.
	Genus int
}

// Root is the full semigroup ℕ.
func Root(_ *Space) Node {
	return Node{elems: mask128{lo: ^uint64(0), hi: ^uint64(0)}, Frob: -1, Genus: 0}
}

// Contains reports whether value v (0 <= v <= 127) is in the semigroup.
func (n Node) Contains(v int) bool { return n.elems.contains(v) }

// Gaps lists the semigroup's gaps (its genus many missing values).
func (n Node) Gaps() []int {
	var gaps []int
	for v := 1; v <= n.Frob; v++ {
		if !n.elems.contains(v) {
			gaps = append(gaps, v)
		}
	}
	return gaps
}

// isGenerator reports whether e (a member) cannot be written as the
// sum of two non-zero members — i.e. removing it keeps the set closed
// under addition.
func isGenerator(elems mask128, e int) bool {
	for x := 1; x <= e/2; x++ {
		if elems.contains(x) && elems.contains(e-x) {
			return false
		}
	}
	return true
}

type gen struct {
	s      *Space
	parent Node
	e      int // next candidate generator to test
	buf    Node
	ok     bool
}

// Gen is the core.GenFactory for the semigroup tree: children remove
// each generator e with Frob < e <= 2*Genus+1 (larger generators
// cannot exist, since a genus-(g+1) semigroup has Frobenius number at
// most 2g+1), in increasing order of e.
func Gen(s *Space, parent Node) core.NodeGenerator[Node] {
	if parent.Genus >= s.MaxGenus {
		return core.EmptyGen[Node]{}
	}
	return &gen{s: s, parent: parent, e: parent.Frob + 1}
}

func (g *gen) HasNext() bool {
	if g.ok {
		return true
	}
	limit := 2*g.parent.Genus + 1
	if g.e < 1 {
		g.e = 1
	}
	for ; g.e <= limit; g.e++ {
		if !g.parent.elems.contains(g.e) || !isGenerator(g.parent.elems, g.e) {
			continue
		}
		child := Node{elems: g.parent.elems, Frob: g.e, Genus: g.parent.Genus + 1}
		child.elems.remove(g.e)
		g.buf = child
		g.ok = true
		g.e++
		return true
	}
	return false
}

func (g *gen) Next() Node {
	if !g.HasNext() {
		panic("semigroups: Next on exhausted generator")
	}
	g.ok = false
	return g.buf
}

// CountAtGenus counts the numerical semigroups of exactly the space's
// maximum genus.
func CountAtGenus(s *Space) core.EnumProblem[*Space, Node, int64] {
	return core.EnumProblem[*Space, Node, int64]{
		Gen: Gen,
		Objective: func(sp *Space, n Node) int64 {
			if n.Genus == sp.MaxGenus {
				return 1
			}
			return 0
		},
		Monoid: core.SumInt64{},
	}
}

// CountProfile counts the semigroups of every genus 0..MaxGenus in one
// traversal, as a vector indexed by genus.
func CountProfile(s *Space) core.EnumProblem[*Space, Node, []int64] {
	return core.EnumProblem[*Space, Node, []int64]{
		Gen: Gen,
		Objective: func(sp *Space, n Node) []int64 {
			v := make([]int64, sp.MaxGenus+1)
			v[n.Genus] = 1
			return v
		},
		Monoid: core.SumVec{Len: s.MaxGenus + 1},
	}
}

// Run counts semigroups of exactly genus s.MaxGenus with the given
// skeleton. It has the other applications' signature, but Node has no
// wire codec yet: tr must be nil.
func Run(tr dist.Transport, s *Space, coord core.Coordination, cfg core.Config) (int64, core.Stats, error) {
	if tr != nil {
		return 0, core.Stats{}, errors.New("semigroups: no node codec; single-process only")
	}
	res := core.Enum(coord, s, Root(s), CountAtGenus(s), cfg)
	return res.Value, res.Stats, nil
}

// Count is Run at genus g.
func Count(g int, coord core.Coordination, cfg core.Config) (int64, core.Stats) {
	count, stats, _ := Run(nil, NewSpace(g), coord, cfg) // a nil transport cannot fail
	return count, stats
}

// Multiplicity returns the smallest non-zero element of the semigroup.
func (n Node) Multiplicity() int {
	for v := 1; v <= maxVal; v++ {
		if n.elems.contains(v) {
			return v
		}
	}
	return -1
}

// popcountGaps recomputes the genus from the membership mask (used by
// tests to validate the incremental bookkeeping). Only values up to
// Frob can be gaps.
func (n Node) popcountGaps() int {
	if n.Frob < 0 {
		return 0
	}
	loBits := n.Frob + 1
	var missing int
	if loBits >= 64 {
		missing = 64 - bits.OnesCount64(n.elems.lo)
		rest := loBits - 64
		hiMask := uint64(1)<<uint(rest) - 1
		missing += rest - bits.OnesCount64(n.elems.hi&hiMask)
	} else {
		loMask := uint64(1)<<uint(loBits) - 1
		missing = loBits - bits.OnesCount64(n.elems.lo&loMask)
	}
	return missing
}
