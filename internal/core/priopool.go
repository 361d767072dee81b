package core

import (
	"sync"

	"yewpar/internal/pad"
)

// PrioBucketPool is the ordered-scheduling workpool: one FIFO bucket
// per priority (Task.Prio, lower = better), with Pop and Steal both
// returning the best-priority task, FIFO within a priority. It replaces
// the mutex+heap PrioPool that best-first scheduling was first built
// on: priorities assigned by the ordering modes are small
// ints (a discrepancy count, or a clamped distance from the root
// bound), so a bucket array gives O(1) push and pop where the heap paid
// O(log n) plus far worse constants — and, sharded per worker inside a
// ShardedPool exactly like the DepthPool, the owner path runs with no
// contention at all while siblings and transport thieves rob
// best-priority-first through StealRank.
type PrioBucketPool[N any] struct {
	mu      sync.Mutex
	buckets [][]Task[N]
	heads   []int
	size    int
	min     int // lowest possibly-non-empty priority
}

// NewPrioBucketPool returns an empty priority pool.
func NewPrioBucketPool[N any]() *PrioBucketPool[N] { return pad.New[PrioBucketPool[N]]() }

// Push implements Pool, bucketing on the task's priority. Priorities
// outside [0, maxTaskPrio] are clamped, so a hostile or buggy value
// cannot grow the bucket array without bound.
func (p *PrioBucketPool[N]) Push(t Task[N]) {
	pr := int(clampPrio(int64(t.Prio)))
	p.mu.Lock()
	for len(p.buckets) <= pr {
		p.buckets = append(p.buckets, nil)
		p.heads = append(p.heads, 0)
	}
	p.buckets[pr] = append(p.buckets[pr], t)
	if pr < p.min {
		p.min = pr
	}
	p.size++
	p.mu.Unlock()
}

// takeAt removes the FIFO-front task of bucket pr (see
// DepthPool.takeAt for the retained-capacity policy).
func (p *PrioBucketPool[N]) takeAt(pr int) Task[N] {
	t := p.buckets[pr][p.heads[pr]]
	var zero Task[N]
	p.buckets[pr][p.heads[pr]] = zero // release node for GC
	p.heads[pr]++
	if p.heads[pr] == len(p.buckets[pr]) {
		if cap(p.buckets[pr]) > bucketRetainCap {
			p.buckets[pr] = nil
		} else {
			p.buckets[pr] = p.buckets[pr][:0]
		}
		p.heads[pr] = 0
	}
	p.size--
	return t
}

// take returns the best-priority task, advancing the min cursor.
func (p *PrioBucketPool[N]) take() (Task[N], bool) {
	for pr := p.min; pr < len(p.buckets); pr++ {
		if p.heads[pr] < len(p.buckets[pr]) {
			p.min = pr
			return p.takeAt(pr), true
		}
	}
	p.min = len(p.buckets)
	var zero Task[N]
	return zero, false
}

// Pop implements Pool: the best-priority (lowest-Prio) task, FIFO
// within a priority. Unlike the DepthPool, owners and thieves agree on
// the order — best-first has one global notion of "next".
func (p *PrioBucketPool[N]) Pop() (Task[N], bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.take()
}

// Steal implements Pool; identical to Pop.
func (p *PrioBucketPool[N]) Steal() (Task[N], bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.take()
}

// Size implements Pool.
func (p *PrioBucketPool[N]) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.size
}

// BestPrio reports the priority of the task Pop or Steal would return,
// or -1 if the pool is empty.
func (p *PrioBucketPool[N]) BestPrio() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	for pr := p.min; pr < len(p.buckets); pr++ {
		if p.heads[pr] < len(p.buckets[pr]) {
			p.min = pr
			return pr
		}
	}
	p.min = len(p.buckets)
	return -1
}

// StealRank implements stealRanked: the pool ranks its work by
// priority.
func (p *PrioBucketPool[N]) StealRank() int { return p.BestPrio() }

// SpillBatch implements spiller: it removes up to max tasks from the
// worst-priority (highest) buckets first — the work every scheduler
// here would serve last — and returns them.
func (p *PrioBucketPool[N]) SpillBatch(max int) []Task[N] {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []Task[N]
	for pr := len(p.buckets) - 1; pr >= 0 && len(out) < max; pr-- {
		for p.heads[pr] < len(p.buckets[pr]) && len(out) < max {
			out = append(out, p.takeAt(pr))
		}
	}
	return out
}
