package core

import (
	"sync"
	"sync/atomic"

	"yewpar/internal/pad"
)

// chunkTasks is the number of tasks in one chunk of a bucketQueue: one
// short of 64, so that the tasks and the link together fill the
// allocator size class 64 tasks alone would (exactly, when a Task's size
// is a power of two) instead of spilling into the next one.
const chunkTasks = 63

// chunk is the unit a bucketQueue allocates, links and recycles.
type chunk[N any] struct {
	tasks [chunkTasks]Task[N]
	next  *chunk[N]
}

// fifo is one key's queue: a linked list of chunks, read at head[hi]
// and written at tail[ti]. Every chunk before the tail is full; an
// empty fifo holds no chunk at all.
type fifo[N any] struct {
	head, tail *chunk[N]
	hi, ti     int
}

// bucketQueue is the bucketed workpool: an array of FIFOs indexed by a
// small integer key, each made of fixed-size chunks that an emptied FIFO
// hands to the queue's free list and a growing one takes back from it.
//
// Keyed on Task.Depth (DepthPoolKind) it is the paper's order-preserving
// workpool. Within a depth tasks leave in insertion order, so the
// sibling spawn order — which encodes the application's search
// heuristic — is always respected (the conventional deque of Section
// 2.3 inverts it: an owner's LIFO pop returns the heuristically *worst*
// sibling first). Owners pop from the deepest non-empty depth
// (continuing depth-first, like the sequential search would), while
// thieves steal from the shallowest (the expected-largest subtrees, in
// heuristic order).
//
// Keyed on Task.Prio, clamped (PrioBucketKind; lower = better), it is
// the ordered-scheduling workpool: owners and thieves agree on the
// order — best-first has one global notion of "next". Priorities
// assigned by the ordering modes are small ints (a discrepancy count, or
// a clamped distance from the root bound), so a bucket array gives O(1)
// push and pop where a heap pays O(log n) plus far worse constants.
//
// A task is copied once, into its slot: put is O(1) in the worst case
// (no backing array ever doubles under the lock), and the queue's
// footprint is the largest frontier it has held, rounded up to a chunk
// per key — whatever a wide level needed is what the deeper levels
// reuse once it drains. put, take, minKey and maxKey expect mu held; the
// exported methods take it.
//
// A queue is one shard of a ShardedPool, and carries the shard's task
// counters: kept off the lock's cache line, because whoever sums them
// (ShardedPool.Tasks) takes no lock and must not pull the line the owner
// locks on every push and pop. Both only grow: pushed is raised before a
// push lands and removed after a removal has happened, so pushed -
// removed is never below the shard's true backlog (and never negative),
// and sums of the two taken at different moments still bound the backlog
// in between.
type bucketQueue[N any] struct {
	mu     sync.Mutex
	byPrio bool // key on Task.Prio, clamped, instead of Task.Depth
	fifos  []fifo[N]
	free   *chunk[N]
	min    int // no key below min holds a task
	max    int // no key above max holds a task
	n      pad.Isolated[struct {
		pushed, removed atomic.Int64
		peak            atomic.Int64 // high-water mark of pushed - removed
	}]
}

// Push implements Pool.
func (q *bucketQueue[N]) Push(t Task[N]) {
	q.count(1)
	q.mu.Lock()
	q.put(t)
	q.mu.Unlock()
}

// PushBatch is Push for a run of tasks, in order, under one lock.
func (q *bucketQueue[N]) PushBatch(ts []Task[N]) {
	q.count(int64(len(ts)))
	q.mu.Lock()
	for i := range ts {
		q.put(ts[i])
	}
	q.mu.Unlock()
}

// count raises pushed by k ahead of a push and keeps the peak.
func (q *bucketQueue[N]) count(k int64) {
	if c := q.n.V.pushed.Add(k) - q.n.V.removed.Load(); c > q.n.V.peak.Load() {
		storeMax(&q.n.V.peak, c)
	}
}

// put appends t to its key's FIFO. Priorities outside [0, maxTaskPrio]
// are clamped, so a hostile or buggy value cannot grow the FIFO array
// without bound.
func (q *bucketQueue[N]) put(t Task[N]) {
	key := t.Depth
	if q.byPrio {
		key = int(clampPrio(int64(t.Prio)))
	}
	for len(q.fifos) <= key {
		q.fifos = append(q.fifos, fifo[N]{})
	}
	f := &q.fifos[key]
	if f.tail == nil || f.ti == chunkTasks {
		c := q.free
		if c != nil {
			q.free, c.next = c.next, nil
		} else {
			c = new(chunk[N])
		}
		if f.tail == nil {
			f.head = c
		} else {
			f.tail.next = c
		}
		f.tail, f.ti = c, 0
	}
	f.tail.tasks[f.ti] = t
	f.ti++
	q.min, q.max = min(q.min, key), max(q.max, key)
}

// take removes the front task of key's FIFO, which must not be empty.
func (q *bucketQueue[N]) take(key int) Task[N] {
	f := &q.fifos[key]
	c := f.head
	t := c.tasks[f.hi]
	c.tasks[f.hi] = Task[N]{} // release the node for GC
	f.hi++
	if f.hi == chunkTasks || (c == f.tail && f.hi == f.ti) {
		if f.head, f.hi = c.next, 0; f.head == nil {
			f.tail = nil
		}
		c.next, q.free = q.free, c
	}
	return t
}

// minKey returns the lowest key holding a task, or -1, advancing the
// min cursor past the empty keys it scanned.
func (q *bucketQueue[N]) minKey() int {
	for k := q.min; k < len(q.fifos); k++ {
		if q.fifos[k].head != nil {
			q.min = k
			return k
		}
	}
	q.min = len(q.fifos)
	return -1
}

// maxKey is minKey from the other end.
func (q *bucketQueue[N]) maxKey() int {
	for k := min(q.max, len(q.fifos)-1); k >= 0; k-- {
		if q.fifos[k].head != nil {
			q.max = k
			return k
		}
	}
	q.max = -1
	return -1
}

// Pop implements Pool, for the shard's owner: the oldest task of the
// deepest depth, or of the best priority.
func (q *bucketQueue[N]) Pop() (Task[N], bool) {
	q.mu.Lock()
	var k int
	if q.byPrio {
		k = q.minKey()
	} else {
		k = q.maxKey()
	}
	if k < 0 {
		q.mu.Unlock()
		return Task[N]{}, false
	}
	t := q.take(k)
	q.mu.Unlock()
	q.n.V.removed.Add(1)
	return t, true
}

// StealRun is what one steal may take, by a sibling or a peer locality
// alike: it appends to out, oldest first, up to max tasks that all hold
// the queue's steal rank — its lowest non-empty key, the shallowest
// depth or the best priority — and never more than half of those that do
// (rounded up, so a lone task still travels). Stopping at the rank keeps
// the heuristic order a thief inherits — it gets the best work and only
// the best work — and stopping at half leaves the victim, which is
// producing that work, its share of it. The FIFO is measured here, a
// chunk at a time and no further than decides the run, so that put and
// take keep no count.
func (q *bucketQueue[N]) StealRun(max int, out []Task[N]) []Task[N] {
	q.mu.Lock()
	k := q.minKey()
	if k < 0 {
		q.mu.Unlock()
		return out
	}
	f := &q.fifos[k]
	n := f.ti - f.hi
	for c := f.head; c != f.tail && n/2 < max; c = c.next {
		n += chunkTasks
	}
	n = min(max, (n+1)/2)
	for i := 0; i < n; i++ {
		out = append(out, q.take(k))
	}
	q.mu.Unlock()
	q.n.V.removed.Add(int64(n))
	return out
}

// Size is the shard's backlog, from its counters: exact when nobody is
// mid-operation, otherwise never below the truth.
func (q *bucketQueue[N]) Size() int {
	removed := q.n.V.removed.Load()
	return int(q.n.V.pushed.Load() - removed)
}

// StealRank reports the rank of the tasks StealRun would take — their
// depth, or under PrioBucketKind their priority — or -1 when the queue
// is empty. Lower ranks are stolen first; the same rank is what
// localities advertise to peers for priority-aware victim selection.
func (q *bucketQueue[N]) StealRank() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.minKey()
}

// SpillBatch removes up to max of the queue's coldest tasks, highest
// keys first — the deepest depth or the worst priority, the work a thief
// would take last and the cheapest to park on disk — for the memory
// governor. They stay registered live work; the caller owns re-admitting
// them.
func (q *bucketQueue[N]) SpillBatch(max int) []Task[N] {
	q.mu.Lock()
	var out []Task[N]
	for len(out) < max {
		k := q.maxKey()
		if k < 0 {
			break
		}
		out = append(out, q.take(k))
	}
	q.mu.Unlock()
	q.n.V.removed.Add(int64(len(out)))
	return out
}
