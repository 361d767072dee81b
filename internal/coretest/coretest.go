// Package coretest holds what the tests and benchmarks of the
// applications and of the repository root share when they drive
// package core. (Package core's own tests cannot use it — it imports
// core — and have no need to: their test trees come with a
// non-resettable generator.)
package coretest

import "yewpar/internal/core"

// plain shows the engine a generator's HasNext and Next, nothing else.
type plain[N any] struct{ g core.NodeGenerator[N] }

func (p plain[N]) HasNext() bool { return p.g.HasNext() }
func (p plain[N]) Next() N       { return p.g.Next() }

// FactoryOnly wraps gf so that the engine's recycling cache finds
// nothing to reset in the generators it returns and calls the factory
// for every expansion — the path any application without a
// core.ResettableGenerator runs, and the reference arm generator
// recycling is checked and measured against. The search is the same
// either way; only the allocations differ.
func FactoryOnly[S, N any](gf core.GenFactory[S, N]) core.GenFactory[S, N] {
	return func(space S, parent N) core.NodeGenerator[N] {
		return plain[N]{gf(space, parent)}
	}
}
