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

// Pool is a locality's workpool. Pop is used by local workers, Steal by
// remote ones; both must be safe for concurrent use. PushBatch is Push
// for a run of tasks, in order, at the cost of one Push.
type Pool[N any] interface {
	Push(t Task[N])
	PushBatch(ts []Task[N])
	Pop() (Task[N], bool)
	Steal() (Task[N], bool)
	// StealRun is Steal for what one remote steal may take: it appends to
	// out, in Steal's order, up to max tasks that all hold the pool's
	// steal rank, and never more than half of those that do (rounded up,
	// so a lone task still travels). Stopping at the rank keeps the
	// heuristic order a thief inherits — it gets the best work and only
	// the best work — and stopping at half leaves the victim, which is
	// producing that work, its share of it.
	StealRun(max int, out []Task[N]) []Task[N]
	Size() int
	// StealRank reports the rank of the task Steal would return — its
	// depth, or under PrioBucketKind its priority — or -1 when the
	// pool is empty. Lower ranks are stolen first; the same rank is what
	// localities advertise to peers for priority-aware victim selection.
	StealRank() int
	// SpillBatch removes up to max of the pool's coldest tasks — deepest
	// depth, or worst priority — for the memory governor to park on disk.
	// They stay registered live work; the caller owns re-admitting them.
	SpillBatch(max int) []Task[N]
}

// newPool returns an empty bucketed queue keyed as kind says, its header
// allocated isolated: it is written by its owner and its thieves on
// every operation.
func newPool[N any](kind PoolKind) *bucketQueue[N] {
	q := pad.New[bucketQueue[N]]()
	q.byPrio = kind == PrioBucketKind
	return q
}

// poolShard is one shard of a ShardedPool: a queue plus its own task
// counters, so that every push, pop, steal, and spill — including owner
// traffic through Shard(i) — is counted at the shard boundary without
// touching a word any other shard's owner writes. Both counters only
// grow: pushed is raised before a push lands and removed after a
// removal has happened, so pushed - removed is never below the shard's
// true backlog (and never negative), and sums of the two taken at
// different moments still bound the backlog in between (see Tasks).
type poolShard[N any] struct {
	inner   *bucketQueue[N]
	pushed  atomic.Int64
	removed atomic.Int64
	peak    atomic.Int64 // high-water mark of pushed - removed
}

func (p *poolShard[N]) Push(t Task[N]) {
	p.count(1)
	p.inner.Push(t)
}

func (p *poolShard[N]) PushBatch(ts []Task[N]) {
	p.count(int64(len(ts)))
	p.inner.PushBatch(ts)
}

// count raises pushed by k ahead of a push and keeps the peak.
func (p *poolShard[N]) count(k int64) {
	if c := p.pushed.Add(k) - p.removed.Load(); c > p.peak.Load() {
		storeMax(&p.peak, c)
	}
}

func (p *poolShard[N]) Pop() (Task[N], bool) {
	t, ok := p.inner.Pop()
	if ok {
		p.removed.Add(1)
	}
	return t, ok
}

func (p *poolShard[N]) Steal() (Task[N], bool) {
	t, ok := p.inner.Steal()
	if ok {
		p.removed.Add(1)
	}
	return t, ok
}

func (p *poolShard[N]) StealRun(max int, out []Task[N]) []Task[N] {
	n := len(out)
	out = p.inner.StealRun(max, out)
	p.removed.Add(int64(len(out) - n))
	return out
}

func (p *poolShard[N]) Size() int { return p.inner.Size() }

func (p *poolShard[N]) StealRank() int { return p.inner.StealRank() }

func (p *poolShard[N]) SpillBatch(max int) []Task[N] {
	out := p.inner.SpillBatch(max)
	p.removed.Add(int64(len(out)))
	return out
}

// ShardedPool splits one locality's workpool into per-worker shards so
// that owner pushes and pops never contend on a shared mutex — or on
// anything else: each shard (pool header and task counters alike) sits
// on cache lines of its own, and there is no aggregate word that every
// push and pop must update. It implements Pool as the locality's
// transport-facing aggregate: a remote thief's Steal takes the
// shallowest task across all shards (preserving the depth-first/FIFO
// heuristic order the depth pool guarantees within a shard), and tasks
// arriving without an owning worker — the root seed, the extras of an
// adopted steal reply — are spread round-robin. Owner-side
// traffic goes straight to Shard(i); an idle owner robs its siblings
// with StealExcept before paying a transport round trip.
type ShardedPool[N any] struct {
	shards []pad.Isolated[poolShard[N]] // header read on every owner operation
	// next is the round-robin cursor for unowned pushes: written by
	// transport goroutines, so kept off the line owners read shards from.
	next pad.Isolated[atomic.Uint32]
	// sampled is what readers of Tasks leave behind for PeakTasks: the
	// largest removed-sum any finished read has seen, and the largest
	// backlog any read has proven possible since.
	sampled pad.Isolated[struct{ removed, peak atomic.Int64 }]
}

// NewShardedPool returns a pool of n shards of the given kind. n < 1 is
// treated as 1 (the single shared pool of the pre-sharding design).
func NewShardedPool[N any](kind PoolKind, n int) *ShardedPool[N] {
	if n < 1 {
		n = 1
	}
	p := pad.New[ShardedPool[N]]()
	p.shards = make([]pad.Isolated[poolShard[N]], n)
	for i := range p.shards {
		p.shards[i].V.inner = newPool[N](kind)
	}
	return p
}

// Shards returns the shard count.
func (p *ShardedPool[N]) Shards() int { return len(p.shards) }

// Shard returns shard i for uncontended owner push/pop.
func (p *ShardedPool[N]) Shard(i int) Pool[N] { return &p.shards[i].V }

// Push implements Pool: unowned tasks are spread round-robin across
// shards. Owners push on their own shard via Shard instead.
func (p *ShardedPool[N]) Push(t Task[N]) {
	i := int(p.next.V.Add(1)-1) % len(p.shards)
	p.shards[i].V.Push(t)
}

// PushBatch implements Pool: the whole run lands on the next shard of
// the round-robin, so it keeps its order.
func (p *ShardedPool[N]) PushBatch(ts []Task[N]) {
	i := int(p.next.V.Add(1)-1) % len(p.shards)
	p.shards[i].V.PushBatch(ts)
}

// Pop implements Pool: the first task found scanning shards in order.
// The engine's owner path uses Shard(i).Pop directly; this aggregate
// form exists for Pool-interface completeness (tests, tooling).
func (p *ShardedPool[N]) Pop() (Task[N], bool) {
	for i := range p.shards {
		if t, ok := p.shards[i].V.Pop(); ok {
			return t, true
		}
	}
	var zero Task[N]
	return zero, false
}

// Steal implements Pool: the shallowest available task across all
// shards, FIFO within a depth — what a single depth pool's Steal
// guaranteed, now approximated across shards (two shards at the same
// minimum depth tie-break by shard index, and a concurrent owner pop
// can invalidate the snapshot between ranking and stealing, in which
// case the scan retries).
func (p *ShardedPool[N]) Steal() (Task[N], bool) {
	return p.StealExcept(-1)
}

// StealExcept is Steal skipping one shard: an idle owner robbing its
// siblings passes its own (already empty) shard index.
func (p *ShardedPool[N]) StealExcept(except int) (Task[N], bool) {
	for {
		best := p.bestShard(except)
		if best < 0 {
			return Task[N]{}, false
		}
		if t, ok := p.shards[best].V.Steal(); ok {
			return t, true
		}
		// Lost a race with the shard's owner; every retry means someone
		// else made progress, so the loop terminates.
	}
}

// StealRun implements Pool: the run comes from the shard Steal would
// have robbed, under that shard's lock alone — half of one worker's
// best bucket, whatever its siblings hold at the same rank.
func (p *ShardedPool[N]) StealRun(max int, out []Task[N]) []Task[N] {
	for n := len(out); len(out) == n; {
		best := p.bestShard(-1)
		if best < 0 {
			break
		}
		out = p.shards[best].V.StealRun(max, out)
	}
	return out
}

// bestShard returns the shard other than except holding the best steal
// rank (ties to the lowest index), or -1 when all of them are empty.
func (p *ShardedPool[N]) bestShard(except int) int {
	best, bestRank := -1, int(^uint(0)>>1)
	for i := range p.shards {
		if i == except {
			continue
		}
		if d := p.shards[i].V.StealRank(); d >= 0 && d < bestRank {
			best, bestRank = i, d
		}
	}
	return best
}

// StealRank implements Pool: the best (lowest) rank across all
// shards, -1 when the whole pool is empty. This is the value a locality
// advertises to peers for priority-aware victim selection. The empty
// case — the common one on the hot idle-scan path — is answered from
// the shard counters without touching any shard lock.
func (p *ShardedPool[N]) StealRank() int {
	if p.Tasks() <= 0 {
		return -1
	}
	best := -1
	for i := range p.shards {
		if d := p.shards[i].V.StealRank(); d >= 0 && (best < 0 || d < best) {
			best = d
		}
	}
	return best
}

// Size implements Pool: total backlog across shards, summed from the
// shard counters (no shard locks).
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
	for i := range p.shards {
		removed += p.shards[i].V.removed.Load()
	}
	for i := range p.shards {
		pushed += p.shards[i].V.pushed.Load()
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
	for i := range p.shards {
		n += p.shards[i].V.peak.Load()
	}
	return min(n, p.sampled.V.peak.Load())
}

// SpillBatch implements Pool: up to max of the coldest tasks across
// shards, an even quota from each so no one shard loses its hot work to
// make the batch.
func (p *ShardedPool[N]) SpillBatch(max int) []Task[N] {
	if max <= 0 {
		return nil
	}
	quota := max/len(p.shards) + 1
	var out []Task[N]
	for i := range p.shards {
		if len(out) >= max {
			break
		}
		n := quota
		if rem := max - len(out); n > rem {
			n = rem
		}
		out = append(out, p.shards[i].V.SpillBatch(n)...)
	}
	return out
}
