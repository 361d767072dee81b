package core

import (
	"sync"

	"yewpar/internal/pad"
)

// pruneAction is a visitor's verdict on a just-visited node.
type pruneAction int

const (
	// descend: explore the node's children.
	descend pruneAction = iota
	// pruneChild: skip the node's subtree, continue with its siblings.
	pruneChild
	// pruneLevel: skip the node's subtree and all later siblings.
	// Sound only when the application declares (via PruneLevel) that
	// siblings are generated in non-increasing bound order, so a
	// failed bound check also dooms everything to-the-right — the
	// "prune future children" property of Section 4.1.
	pruneLevel
)

// visitor is the per-worker node-processing strategy determined by the
// search type: it implements the (accumulate) rule for enumeration and
// the (strengthen)/(skip) and (prune) rules for optimisation and
// decision searches. Every visitor is built in an isolated block
// (pad.New) around its worker's own counters, so its per-node writes
// stay off every line another worker touches.
type visitor[N any] interface {
	visit(n N) pruneAction
	// prunes is visit where the bound alone prunes n, else descend: what a
	// shed asks before it hands n over (engine.shed).
	prunes(n N) pruneAction
}

// enumVisitor accumulates objective values into a worker-local monoid
// sum. Local accumulation plus a final combine is equivalent to the
// semantics' single global accumulator because the monoid is
// commutative, and avoids a contended hot word.
type enumVisitor[S, N, M any] struct {
	space S
	obj   func(S, N) M
	mon   Monoid[M]
	acc   M // the running task's fold
	own   M // the worker's tasks' of no family (enumTally.close)
	shard *WorkerStats
}

func (v *enumVisitor[S, N, M]) visit(n N) pruneAction {
	v.shard.Nodes++
	v.acc = v.mon.Plus(v.acc, v.obj(v.space, n))
	return descend
}

func (v *enumVisitor[S, N, M]) prunes(N) pruneAction { return descend }

func newEnumVisitor[S, N, M any](space S, p EnumProblem[S, N, M], sh *WorkerStats) visitor[N] {
	v := pad.New[enumVisitor[S, N, M]]()
	*v = enumVisitor[S, N, M]{
		space: space, obj: p.Objective, mon: p.Monoid,
		acc: p.Monoid.Zero(), own: p.Monoid.Zero(), shard: sh,
	}
	return v
}

// optVisitor strengthens the shared incumbent and prunes subtrees whose
// bound cannot beat the locality's (possibly stale) view of the best
// objective.
type optVisitor[S, N any] struct {
	space S
	obj   func(S, N) int64
	bound func(S, N) int64
	copyN func(S, N) N // deep copy before retention (ephemeral nodes)
	level bool
	inc   *incumbent[N]
	loc   *locality[N] // the worker's own: its bound cache is what the visitor prunes against
	shard *WorkerStats
}

func (v *optVisitor[S, N]) visit(n N) pruneAction {
	v.shard.Nodes++
	// One atomic load of the locality bound per visit: after a
	// strengthen the bound is at least o, so pruning against
	// max(best, o) matches what a re-read would see in a sequential
	// run, and in a parallel run is merely (soundly) at most one
	// concurrent update staler.
	best := v.loc.bound.V.Load()
	o := v.obj(v.space, n)
	if o > best {
		// The incumbent outlives this visit: ephemeral nodes must be
		// deep-copied before they are stored.
		nn := n
		if v.copyN != nil {
			nn = v.copyN(v.space, n)
		}
		v.inc.strengthen(v.loc, o, nn)
		best = o
	}
	if v.bound != nil && v.bound(v.space, n) <= best {
		v.shard.Prunes++
		if v.level {
			return pruneLevel
		}
		return pruneChild
	}
	return descend
}

func (v *optVisitor[S, N]) prunes(n N) pruneAction {
	if v.bound == nil || v.bound(v.space, n) > v.loc.bound.V.Load() {
		return descend
	}
	return v.visit(n) // no better objective than its bound: visit only counts it
}

// newOptVisitor builds a visitor that prunes against locality loc's view
// of inc's bound.
func newOptVisitor[S, N any](space S, p OptProblem[S, N], inc *incumbent[N], loc *locality[N], sh *WorkerStats) visitor[N] {
	v := pad.New[optVisitor[S, N]]()
	*v = optVisitor[S, N]{
		space: space, obj: p.Objective, bound: p.Bound, copyN: p.Copy,
		level: p.PruneLevel, inc: inc, loc: loc, shard: sh,
	}
	return v
}

// decisionVisitor looks for a node reaching the greatest element of the
// bounded order. Reaching it records the witness and fires the
// (shortcircuit) rule via the global canceller.
type decisionVisitor[S, N any] struct {
	space  S
	obj    func(S, N) int64
	bound  func(S, N) int64
	copyN  func(S, N) N // deep copy before retention (ephemeral nodes)
	level  bool
	target int64
	wit    *witness[N]
	cancel *canceller
	shard  *WorkerStats
}

// witness stores the first decision witness found.
type witness[N any] struct {
	mu    sync.Mutex
	node  N
	obj   int64
	found bool
}

func (w *witness[N]) record(n N, obj int64) {
	w.mu.Lock()
	if !w.found {
		w.node, w.obj, w.found = n, obj, true
	}
	w.mu.Unlock()
}

func (w *witness[N]) get() (N, int64, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.node, w.obj, w.found
}

func (v *decisionVisitor[S, N]) visit(n N) pruneAction {
	v.shard.Nodes++
	o := v.obj(v.space, n)
	if o >= v.target {
		nn := n
		if v.copyN != nil {
			nn = v.copyN(v.space, n)
		}
		v.wit.record(nn, o)
		v.cancel.cancel()
		return pruneChild
	}
	if v.bound != nil && v.bound(v.space, n) < v.target {
		v.shard.Prunes++
		if v.level {
			return pruneLevel
		}
		return pruneChild
	}
	return descend
}

func (v *decisionVisitor[S, N]) prunes(n N) pruneAction {
	if v.bound == nil || v.bound(v.space, n) >= v.target {
		return descend
	}
	return v.visit(n) // short of the target, as its bound is: visit only counts it
}

func newDecisionVisitor[S, N any](space S, p DecisionProblem[S, N], wit *witness[N], cancel *canceller, sh *WorkerStats) visitor[N] {
	v := pad.New[decisionVisitor[S, N]]()
	*v = decisionVisitor[S, N]{
		space: space, obj: p.Objective, bound: p.Bound, copyN: p.Copy,
		level: p.PruneLevel, target: p.Target, wit: wit, cancel: cancel,
		shard: sh,
	}
	return v
}
