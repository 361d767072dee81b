package core

// NodeGenerator lazily yields the children of one search-tree node in
// traversal (heuristic) order. It is the paper's Lazy Node Generator
// interface (Section 4.1): children are materialised one at a time so
// that pruning can discard subtrees before they are ever built.
//
// Implementations are used by a single worker at a time and need not be
// safe for concurrent use.
type NodeGenerator[N any] interface {
	// HasNext reports whether more children remain.
	HasNext() bool
	// Next returns the next child. It must only be called after
	// HasNext has returned true.
	Next() N
}

// GenFactory constructs the lazy node generator for a parent node within
// a search space. It corresponds to the NodeGenerator constructor of the
// paper's Listing 1. Node values must be treated as immutable: a factory
// must not retain or mutate the parent it is given, because nodes are
// shared between tasks when subtrees are spawned.
type GenFactory[S, N any] func(space S, parent N) NodeGenerator[N]

// ResettableGenerator is the opt-in recycling contract: a generator
// that can be re-aimed at a new parent, reusing its internal scratch
// (child orders, candidate sets, colouring buffers) instead of being
// reallocated. When a factory returns generators implementing this
// interface, the sequential expansion loops keep one generator per
// stack level per worker and Reset it for every node expanded at that
// level — the dominant allocation in the skeleton hot path for
// applications with per-node scratch.
//
// Reset must fully reinitialise the generator for the new parent,
// including the childless case (HasNext must then report false): the
// recycling loops call Reset directly, bypassing any leaf special-case
// the factory has. Like the factory, Reset must not retain or mutate
// the parent's node data, and children it later yields must not alias
// the generator's own scratch. Applications that do not implement the
// interface run exactly as before.
type ResettableGenerator[S, N any] interface {
	NodeGenerator[N]
	Reset(space S, parent N)
}

// EphemeralGenerator extends ResettableGenerator for node types that
// carry heap references (bitsets, slices): after ResetEphemeral, the
// generator may yield children that share ONE internal child buffer,
// overwritten by the next Next or Reset call — the hand-coded solvers'
// "nodes are never copied" discipline, made available to the
// skeletons.
//
// The engine requests ephemeral mode only from the pure depth-first
// walk (expandBelow: the task body's choice for spawn rules that cannot
// fire mid-walk, and Replicable's cutoff tasks), where a yielded child is
// either dead (pruned) or is the current path node whose own generator
// is fully explored before this generator advances. Engine code that
// retains a node beyond that window — the incumbent, a decision witness
// — copies it first through the problem's Copy hook, which applications
// implementing this interface must provide. The shedding walk, whose
// children may become tasks, never uses ephemeral mode.
//
// Value-type nodes (no heap references) get nothing from this
// interface: copying the node value is already a deep copy, so such
// applications should implement only Reset.
type EphemeralGenerator[S, N any] interface {
	ResettableGenerator[S, N]
	ResetEphemeral(space S, parent N)
}

// cachedGen is one recycling-cache slot: one generator under the three
// interfaces the cache calls it through, each probed once, at
// construction. g is what gen and genDFS return: converting rg or eg to
// NodeGenerator[N] there, in generic code, is an itab lookup per node.
type cachedGen[S, N any] struct {
	g  NodeGenerator[N]
	rg ResettableGenerator[S, N]
	eg EphemeralGenerator[S, N] // nil when rg is not ephemeral-capable
}

// genCache is one worker's generator recycling cache: at most one
// reusable generator per expansion-stack level. It is safe because the
// expansion loops request a generator for level L only when no
// generator is live at L (the stack has exactly L entries), and a
// worker runs one task at a time. Not safe for concurrent use; each
// worker owns its own cache, inside its workerCtx.
type genCache[S, N any] struct {
	space  S
	gf     GenFactory[S, N]
	levels []cachedGen[S, N]
}

// install probes and caches a freshly constructed generator at level.
func (c *genCache[S, N]) install(level int, g NodeGenerator[N]) {
	rg, ok := g.(ResettableGenerator[S, N])
	if !ok {
		return
	}
	for len(c.levels) <= level {
		c.levels = append(c.levels, cachedGen[S, N]{})
	}
	eg, _ := g.(EphemeralGenerator[S, N])
	c.levels[level] = cachedGen[S, N]{g: g, rg: rg, eg: eg}
}

// gen returns a generator for parent at the given stack level,
// recycling the level's cached generator when the application supports
// it and falling back to the factory otherwise. Children are always
// safe to retain (task spawning uses this path).
func (c *genCache[S, N]) gen(level int, parent N) NodeGenerator[N] {
	if level < len(c.levels) {
		if l := &c.levels[level]; l.rg != nil {
			l.rg.Reset(c.space, parent)
			return l.g
		}
	}
	g := c.gf(c.space, parent)
	c.install(level, g)
	return g
}

// genDFS is gen for the pure depth-first loop: where the application
// supports it, the generator is reset in ephemeral mode, making child
// construction allocation-free (see EphemeralGenerator for the aliasing
// contract the caller takes on).
func (c *genCache[S, N]) genDFS(level int, parent N) NodeGenerator[N] {
	if level < len(c.levels) {
		if l := &c.levels[level]; l.eg != nil {
			l.eg.ResetEphemeral(c.space, parent)
			return l.g
		} else if l.rg != nil {
			l.rg.Reset(c.space, parent)
			return l.g
		}
	}
	g := c.gf(c.space, parent)
	c.install(level, g)
	// The factory-built generator for this first visit yields
	// heap-owned children; ephemeral reuse starts on the next visit to
	// this level.
	return g
}

// SliceGen is a NodeGenerator over a pre-computed child slice, in slice
// order. It is convenient for applications whose child lists are cheap
// to build eagerly, and for tests.
type SliceGen[N any] struct {
	children []N
	i        int
}

// NewSliceGen returns a generator yielding the given children in order.
func NewSliceGen[N any](children []N) *SliceGen[N] {
	return &SliceGen[N]{children: children}
}

// HasNext implements NodeGenerator.
func (g *SliceGen[N]) HasNext() bool { return g.i < len(g.children) }

// Next implements NodeGenerator.
func (g *SliceGen[N]) Next() N {
	n := g.children[g.i]
	g.i++
	return n
}

// Remaining returns the number of children not yet yielded.
func (g *SliceGen[N]) Remaining() int { return len(g.children) - g.i }

// EmptyGen is a NodeGenerator with no children (a leaf).
type EmptyGen[N any] struct{}

// HasNext implements NodeGenerator.
func (EmptyGen[N]) HasNext() bool { return false }

// Next implements NodeGenerator; it panics, as leaves have no children.
func (EmptyGen[N]) Next() N { panic("core: Next on empty generator") }

// FuncGen adapts a pull function to a NodeGenerator. The function
// returns the next child and true, or a zero node and false when
// exhausted. FuncGen buffers one lookahead element so HasNext is pure.
type FuncGen[N any] struct {
	next func() (N, bool)
	buf  N
	ok   bool
	done bool
}

// NewFuncGen returns a generator pulling children from next.
func NewFuncGen[N any](next func() (N, bool)) *FuncGen[N] {
	return &FuncGen[N]{next: next}
}

// HasNext implements NodeGenerator.
func (g *FuncGen[N]) HasNext() bool {
	if g.done {
		return false
	}
	if g.ok {
		return true
	}
	g.buf, g.ok = g.next()
	if !g.ok {
		g.done = true
	}
	return g.ok
}

// Next implements NodeGenerator.
func (g *FuncGen[N]) Next() N {
	if !g.HasNext() {
		panic("core: Next on exhausted generator")
	}
	g.ok = false
	return g.buf
}
