package core

import (
	"sync/atomic"

	"yewpar/internal/pad"
)

// Task is a unit of spawned work: an unvisited search-tree node, its
// absolute depth, and its scheduling priority. Depth orders the default
// pool so that tasks near the root — heuristically the largest
// subtrees — are scheduled first. Prio (lower = better; see Order) is
// assigned under an ordered scheduling mode — the task's path
// discrepancy, or its distance from the root bound — and is what the
// priority pools bucket on; it is zero, and ignored, when ordering is
// off.
type Task[N any] struct {
	Node  N
	Depth int
	Prio  int32
	// fam is the supervision family of the hand-over this task
	// descends from (nil for tasks with only local ancestry): the
	// counter that, fully drained, acks the hand-over's origin and
	// retires the ledger copy covering this subtree. Spawns propagate
	// it parent → child; it never crosses the wire (a receiver opens
	// its own family).
	fam *family
}

// Pool is one shard of a workpool as its owning worker drives it, which
// is all that is called through an interface (a benchmark's probe of the
// owner path); the engine holds its shards and pools by concrete type.
type Pool[N any] interface {
	Push(t Task[N])
	Pop() (Task[N], bool)
}

var _ Pool[int] = (*bucketQueue[int])(nil)

// newPool returns an empty bucketed queue keyed as kind says, its header
// allocated isolated: it is written by its owner and its thieves on
// every operation.
func newPool[N any](kind PoolKind) *bucketQueue[N] {
	q := pad.New[bucketQueue[N]]()
	q.byPrio = kind == PrioBucketKind
	return q
}

// ShardedPool is one locality's workpool, split into per-worker shards
// so that owner pushes and pops never contend on a shared mutex — or on
// anything else: each shard (a bucketQueue, header and task counters
// alike) sits on cache lines of its own, and there is no aggregate word
// that every push and pop must update. The pool itself is the thief's
// view of the shards: a steal — a sibling's or a peer locality's, there
// is one rule (stealRun) — takes a run from the shard holding the best
// rank (preserving the depth-first/FIFO heuristic order the depth pool
// guarantees within a shard), and tasks arriving without an owning
// worker — the root seed, the extras of an adopted steal reply, a
// replayed ledger entry — are spread round-robin. Owner-side traffic
// goes straight to the worker's own Shard.
type ShardedPool[N any] struct {
	shards []*bucketQueue[N]
	// next is the round-robin cursor for unowned pushes: written by
	// transport goroutines, so kept off every line owners read.
	next pad.Isolated[atomic.Uint32]
	// sampled is what readers of Tasks leave behind for PeakTasks: the
	// largest removed-sum any finished read has seen, and the largest
	// backlog any read has proven possible since.
	sampled pad.Isolated[struct{ removed, peak atomic.Int64 }]
}

// NewShardedPool returns a pool of n shards of the given kind. n < 1 is
// treated as 1 (the single shared pool of the pre-sharding design).
func NewShardedPool[N any](kind PoolKind, n int) *ShardedPool[N] {
	p := pad.New[ShardedPool[N]]()
	p.shards = make([]*bucketQueue[N], max(n, 1))
	for i := range p.shards {
		p.shards[i] = newPool[N](kind)
	}
	return p
}

// Shards returns the shard count.
func (p *ShardedPool[N]) Shards() int { return len(p.shards) }

// Shard returns shard i for uncontended owner push/pop.
func (p *ShardedPool[N]) Shard(i int) *bucketQueue[N] { return p.shards[i] }

// Push spreads unowned tasks round-robin across shards. Owners push on
// their own shard instead.
func (p *ShardedPool[N]) Push(t Task[N]) {
	p.shards[int(p.next.V.Add(1)-1)%len(p.shards)].Push(t)
}

// PushBatch lands the whole run on the next shard of the round-robin, so
// it keeps its order.
func (p *ShardedPool[N]) PushBatch(ts []Task[N]) {
	p.shards[int(p.next.V.Add(1)-1)%len(p.shards)].PushBatch(ts)
}

// StealExcept is a steal of one task: the oldest of the best rank across
// all shards but except (-1 for none).
func (p *ShardedPool[N]) StealExcept(except int) (Task[N], bool) {
	var one [1]Task[N]
	if run := p.stealRun(except, 1, one[:0]); len(run) > 0 {
		return run[0], true
	}
	return Task[N]{}, false
}

// StealRun is what a peer locality's steal takes: a run (see
// bucketQueue.StealRun) of up to max tasks, appended to out.
func (p *ShardedPool[N]) StealRun(max int, out []Task[N]) []Task[N] {
	return p.stealRun(-1, max, out)
}

// stealRun is the one steal, a worker's from its siblings (except is its
// own, already empty, shard) and a peer locality's (except is -1) alike:
// the run comes from the shard holding the best rank, under that shard's
// lock alone — half of one worker's best bucket, whatever its siblings
// hold at the same rank. Two shards at the same rank tie-break by index,
// and the owner can empty the chosen shard between the ranking and the
// steal, in which case the scan retries: every retry means someone else
// made progress, so the loop terminates.
func (p *ShardedPool[N]) stealRun(except, max int, out []Task[N]) []Task[N] {
	for n := len(out); len(out) == n; {
		best, _ := p.bestShard(except)
		if best < 0 {
			break
		}
		out = p.shards[best].StealRun(max, out)
	}
	return out
}

// bestShard returns the shard other than except holding the best steal
// rank (ties to the lowest index) and that rank, or -1 and -1 when all of
// them are empty.
func (p *ShardedPool[N]) bestShard(except int) (best, rank int) {
	best, rank = -1, -1
	for i, q := range p.shards {
		if i == except {
			continue
		}
		if d := q.StealRank(); d >= 0 && (best < 0 || d < rank) {
			best, rank = i, d
		}
	}
	return best, rank
}

// StealRank is the best (lowest) rank across all shards, -1 when the
// whole pool is empty. This is the value a locality advertises to peers
// for priority-aware victim selection. The empty case — the common one
// on the hot idle-scan path — is answered from the shard counters
// without touching any shard lock.
func (p *ShardedPool[N]) StealRank() int {
	if p.Tasks() <= 0 {
		return -1
	}
	_, rank := p.bestShard(-1)
	return rank
}

// Size is the total backlog across shards, summed from the shard
// counters (no shard locks).
func (p *ShardedPool[N]) Size() int { return int(p.Tasks()) }

// Tasks reports the resident-task count, summed from the shard
// counters. Readers pay for the sum — pulling one line per shard — so
// that writers pay nothing shared. Removals are summed before pushes,
// both only grow, and the removed-sum of an earlier read is a floor
// for every later moment: so pushed minus that floor bounds the
// backlog at every instant between the two reads, which is what
// PeakTasks needs from a caller that samples often.
func (p *ShardedPool[N]) Tasks() int64 {
	floor := p.sampled.V.removed.Load()
	var removed, pushed int64
	for _, q := range p.shards {
		removed += q.n.V.removed.Load()
	}
	for _, q := range p.shards {
		pushed += q.n.V.pushed.Load()
	}
	storeMax(&p.sampled.V.peak, pushed-floor)
	storeMax(&p.sampled.V.removed, removed)
	return pushed - removed
}

// PeakTasks reports an upper bound on the high-water mark of resident
// tasks — never an under-report, and nothing a push or pop pays for
// beyond its shard's own line. It is the smaller of two bounds: the
// sum of the shards' own high-water marks (exact when one shard holds
// the frontier at its peak, as when a spawn loop floods its owner's
// shard; loose when shards peak at different moments), and the largest
// backlog the reads of Tasks left possible between them (tight when
// the pool is read after every spawn, as the memory governor does
// under a budget; useless when nobody reads it).
func (p *ShardedPool[N]) PeakTasks() int64 {
	p.Tasks() // close the window since the last read
	var n int64
	for _, q := range p.shards {
		n += q.n.V.peak.Load()
	}
	return min(n, p.sampled.V.peak.Load())
}

// SpillBatch removes up to max of the coldest tasks across shards, an
// even quota from each so no one shard loses its hot work to make the
// batch.
func (p *ShardedPool[N]) SpillBatch(max int) []Task[N] {
	if max <= 0 {
		return nil
	}
	quota := max/len(p.shards) + 1
	var out []Task[N]
	for _, q := range p.shards {
		if len(out) >= max {
			break
		}
		out = append(out, q.SpillBatch(min(quota, max-len(out)))...)
	}
	return out
}
