package core

import (
	"math/bits"
	"sync/atomic"
	"time"

	"yewpar/internal/pad"
)

// This file implements global search ordering: the machinery that turns
// "more cores" into "fewer nodes" by making every scheduling decision —
// owner pop, sibling rob, transport steal, victim selection — prefer
// the most promising available subtree. Two priority sources are
// supported. Discrepancy order (the "Parallel Flowshop in YewPar"
// follow-up direction) counts the non-leftmost branches on a task's
// root path: the application's child order is its heuristic, so tasks
// that deviated from it least are searched first, everywhere. Bound
// order uses the optimisation problem's admissible bound directly:
// under Budget it is best-first search. Priorities are small
// non-negative ints with LOWER = better, so pools can bucket on them
// (see bucketQueue) instead of paying a heap.

// Order selects the global task-scheduling order of the pool-based
// coordinations.
type Order int

const (
	// OrderNone schedules tasks by depth only (the DepthPoolKind default):
	// owners run deepest-first, thieves steal shallowest-first, and
	// steal victims are chosen at random.
	OrderNone Order = iota
	// OrderDiscrepancy schedules tasks by path discrepancy — the count
	// of non-leftmost branches between the search root and the task's
	// root. Tasks that follow the application's heuristic child order
	// most closely run first, across workers and localities.
	OrderDiscrepancy
	// OrderBound schedules tasks by the problem's admissible bound
	// (stronger bound = scheduled earlier) — best-first order, for
	// every pool-based coordination. Searches without a Bound function
	// (enumeration) fall back to discrepancy order.
	OrderBound
)

// String returns the order's flag spelling.
func (o Order) String() string {
	switch o {
	case OrderDiscrepancy:
		return "discrepancy"
	case OrderBound:
		return "bound"
	default:
		return "none"
	}
}

// maxTaskPrio caps task priorities (and therefore priority-pool bucket
// counts); prioLinear is the exact region of the mapping below.
const (
	maxTaskPrio = 1023
	prioLinear  = 512
)

// clampPrio maps an int64 priority distance into the bucket range,
// monotonically over the whole non-negative int64 domain: distances
// below prioLinear map exactly (discrepancy counts in practice never
// leave this region), and larger ones — bound distances on problems
// whose objective spans thousands, far wider than any sane bucket
// array — map log-graded, 8 sub-buckets per octave (the leading bit's
// position plus the next three bits). The far tail therefore coarsens
// progressively instead of saturating into one FIFO bucket, which
// would have degraded best-first order to spawn order exactly for the
// wide-range problems that need it most. The full 63-bit range fits:
// 512 + 53*8 + 7 = 943 < maxTaskPrio.
func clampPrio(v int64) int32 {
	if v < 0 {
		return 0
	}
	if v < prioLinear {
		return int32(v)
	}
	e := bits.Len64(uint64(v)) // >= 10 here
	sub := (v >> uint(e-4)) & 7
	return int32(prioLinear + int64(e-10)*8 + sub)
}

// prioAssigner computes the scheduling priority of spawned tasks for
// one search. A nil assigner (or OrderNone) assigns zero to everything,
// which the unordered pools ignore.
type prioAssigner[S, N any] struct {
	order Order
	space S
	bound func(S, N) int64
	ref   int64 // bound of the search root: priorities are ref - bound(n)
}

// newPrioAssigner builds the assigner for a search. bound may be nil
// (enumeration searches); OrderBound then degrades to discrepancy.
func newPrioAssigner[S, N any](order Order, space S, root N, bound func(S, N) int64) *prioAssigner[S, N] {
	pa := &prioAssigner[S, N]{order: order, space: space}
	if order == OrderBound {
		if bound == nil {
			pa.order = OrderDiscrepancy
		} else {
			pa.bound = bound
			pa.ref = bound(space, root)
		}
	}
	return pa
}

// enabled reports whether tasks carry a meaningful priority (and
// therefore whether pools bucket on it and victims are ranked by it).
func (pa *prioAssigner[S, N]) enabled() bool {
	return pa != nil && pa.order != OrderNone
}

// childPrio assigns the priority of a child about to be spawned as a
// task. parentDisc is the discrepancy of the child's parent node (the
// spawning task's Prio under discrepancy order), childIdx the number of
// siblings yielded before it by the same generator.
func (pa *prioAssigner[S, N]) childPrio(parentDisc int32, childIdx int, child N) int32 {
	if pa == nil || pa.order == OrderNone {
		return 0
	}
	if pa.order == OrderBound {
		return clampPrio(pa.ref - pa.bound(pa.space, child))
	}
	return discChild(parentDisc, childIdx)
}

// discChild is the incremental discrepancy rule: taking any
// non-leftmost branch costs one discrepancy.
func discChild(parentDisc int32, childIdx int) int32 {
	if childIdx > 0 && parentDisc < maxTaskPrio {
		return parentDisc + 1
	}
	return parentDisc
}

// parker puts idle workers to sleep until new local work can exist,
// replacing the Gosched/sleep spin loops of the engine run loops. A
// wake is dropped when nobody waits (an atomic load, so producers pay
// nothing on the hot path), and parks always carry a timeout: remote
// peers may acquire work without notifying this locality, so a parked
// worker must still re-probe the transport ring eventually. waiters is
// read by every push, so the parker is allocated isolated: that read
// stays a cache hit for as long as nobody parks.
type parker struct {
	waiters atomic.Int32
	ch      chan struct{}
}

func newParker(workers int) *parker {
	if workers < 1 {
		workers = 1
	}
	p := pad.New[parker]()
	p.ch = make(chan struct{}, workers)
	return p
}

// wake releases one parked worker, if any is parked.
func (p *parker) wake() {
	if p.waiters.Load() == 0 {
		return
	}
	select {
	case p.ch <- struct{}{}:
	default:
	}
}

// wakeAll releases every parked worker.
func (p *parker) wakeAll() {
	for n := p.waiters.Load(); n > 0; n-- {
		select {
		case p.ch <- struct{}{}:
		default:
			return
		}
	}
}

// park blocks until a wake, the timeout, termination, or cancellation.
// After registering as a waiter it consults stillIdle once more and
// returns immediately when work may exist: a producer that pushed (and
// called wake) between the caller's last empty probe and the
// registration saw zero waiters and dropped the signal — the classic
// lost-wakeup window — so the re-check, ordered after waiters.Add, is
// what makes the drop safe. The caller owns t (a stopped or drained
// timer) and reuses it across parks to keep the idle path
// allocation-free.
func (p *parker) park(t *time.Timer, d time.Duration, done, cancelled <-chan struct{}, stillIdle func() bool) {
	p.waiters.Add(1)
	if stillIdle != nil && !stillIdle() {
		p.waiters.Add(-1)
		return
	}
	t.Reset(d)
	select {
	case <-p.ch:
	case <-t.C:
	case <-done:
	case <-cancelled:
	}
	p.waiters.Add(-1)
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

// newParkTimer returns a timer suitable for park reuse (created
// stopped, channel drained).
func newParkTimer() *time.Timer {
	t := time.NewTimer(time.Hour)
	if !t.Stop() {
		<-t.C
	}
	return t
}

// stealBackoff is one locality's transport-ring gate: after a full
// sweep of every peer finds no work, further sweeps are delayed with
// exponentially growing backoff, stopping the steal storms (and, over a
// wire, the frame storms at the coordinator) that otherwise accompany
// drain-down. Any successful steal resets it. All workers of the
// locality share the gate; races between them only jitter the delay.
type stealBackoff struct {
	base, max time.Duration
	cur       atomic.Int64 // current delay, ns
	next      atomic.Int64 // unix ns before which sweeps are skipped
}

// ready reports whether a sweep may run now.
func (b *stealBackoff) ready() bool {
	return time.Now().UnixNano() >= b.next.Load()
}

// fail records a completely empty sweep, doubling the delay.
func (b *stealBackoff) fail() {
	d := 2 * time.Duration(b.cur.Load())
	if d < b.base {
		d = b.base
	}
	if d > b.max {
		d = b.max
	}
	b.cur.Store(int64(d))
	b.next.Store(time.Now().UnixNano() + int64(d))
}

// reset clears the backoff after a successful steal.
func (b *stealBackoff) reset() {
	if b.cur.Load() == 0 {
		return
	}
	b.cur.Store(0)
	b.next.Store(0)
}
