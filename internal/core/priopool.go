package core

import "yewpar/internal/pad"

// PrioBucketPool is the ordered-scheduling workpool: one FIFO per
// priority (a bucketQueue keyed by Task.Prio, lower = better), with Pop
// and Steal both returning the best-priority task, FIFO within a
// priority. Priorities assigned by the ordering modes are small ints (a
// discrepancy count, or a clamped distance from the root bound), so a
// bucket array gives O(1) push and pop where a heap pays O(log n) plus
// far worse constants — and, sharded per worker inside a ShardedPool
// exactly like the DepthPool, the owner path runs with no contention
// while siblings and transport thieves rob best-priority-first.
type PrioBucketPool[N any] struct{ bucketQueue[N] }

// NewPrioBucketPool returns an empty priority pool.
func NewPrioBucketPool[N any]() *PrioBucketPool[N] {
	p := pad.New[PrioBucketPool[N]]()
	p.byPrio = true
	return p
}

// Pop implements Pool: the best-priority (lowest-Prio) task, FIFO
// within a priority. Unlike the DepthPool, owners and thieves agree on
// the order — best-first has one global notion of "next".
func (p *PrioBucketPool[N]) Pop() (Task[N], bool) { return p.Steal() }

// BestPrio reports the priority of the task Pop or Steal would return,
// or -1 if the pool is empty.
func (p *PrioBucketPool[N]) BestPrio() int { return p.StealRank() }
