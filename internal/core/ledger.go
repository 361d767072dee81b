package core

import (
	"sync"
	"sync/atomic"

	"yewpar/internal/dist"
)

// The supervised-task ledger is the engine half of the fault-tolerance
// protocol (the transport half is death detection and the kAck/kDeath
// vocabulary of wire protocol v4). Branch-and-bound task execution is
// idempotent and replay-safe — re-running a subtree can change which
// nodes are visited, never the answer — so a locality that hands a
// task over the wire retains a copy keyed by a freshly minted
// hand-over id. The copy is retired when the thief acks the id, which
// it does only once the entire subtree rooted at the task has
// completed (tracked by the family counters below). When a peer dies,
// the unacked entries handed to it are exactly the subtree roots the
// dead rank was holding, and re-enqueueing them locally loses nothing:
// the stronger incumbent accumulated since the original hand-over
// usually makes the replay far cheaper than the first attempt.
//
// Accounting is what makes this safe for termination detection. A
// handed-over task's registration (+1 by whoever spawned it here)
// stays outstanding until the ack arrives — the ledger entry *is* the
// registration's continuation — so replaying an entry is
// accounting-neutral, and the coordinator can reconcile a death by
// dropping only the dead rank's own contribution.

// family supervises one received hand-over: the counter covers the
// received task itself, every locally spawned descendant task, and
// every descendant re-handed to another peer (whose own ledger entry
// defers the decrement until its ack). When the counter drains, the
// whole subtree has provably completed — here or downstream — and the
// origin is acked. Chaining entries to families makes supervision
// transitive: an origin's entry survives until its subtree is done
// everywhere, so even a chain of deaths can be replayed from the
// earliest survivor. An enumeration's family folds its subtree's value:
// its tasks' as they finish, and a re-handed descendant's as its ack
// retires the entry — only then, so a replay's value replaces a dead
// thief's and is never added to it. The drain's ack carries the total.
type family struct {
	id      uint64
	pending atomic.Int64
	mu      sync.Mutex
	val     any // the fold so far, a *M kept with the family; nil is the monoid's zero
}

// freeList recycles small objects for one locality: get returns one as
// put left it, or a new zero one. (Not a sync.Pool: the runtime keeps a
// used one reachable until the second collection after, and with it the
// locality it is a field of — a workpool, a frontier's worth of chunks.)
type freeList[T any] struct {
	mu   sync.Mutex
	free []*T
}

func (l *freeList[T]) get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.free); n > 0 {
		p := l.free[n-1]
		l.free = l.free[:n-1]
		return p
	}
	return new(T)
}

func (l *freeList[T]) put(p *T) {
	l.mu.Lock()
	l.free = append(l.free, p)
	l.mu.Unlock()
}

// ledgerEntry is one retained hand-over: who holds the task, the task
// itself (ready to re-enqueue), and the family whose drain the ack
// will continue.
type ledgerEntry[N any] struct {
	thief int
	task  Task[N]
	fam   *family
}

const ledgerCap = 16384 // a locality's ledger's cap (tests set their own)

// ledger is one locality's supervision table. Bounded: when cap
// entries are outstanding, further hand-overs are refused (the victim
// keeps its task and the thief looks elsewhere), which backpressures
// steal traffic rather than growing retention without limit.
type ledger[N any] struct {
	mu      sync.Mutex
	rank    int
	cap     int
	seq     uint64
	entries map[uint64]ledgerEntry[N]
	// dead is the fabric's record of dead ranks, by rank: read here,
	// written by locality.onDeath before it reaps.
	dead []atomic.Bool

	peak     int
	replayed int64
}

func newLedger[N any](rank, capacity int, dead []atomic.Bool) *ledger[N] {
	return &ledger[N]{rank: rank, cap: capacity, entries: make(map[uint64]ledgerEntry[N]), dead: dead}
}

// handOver mints an id and retains t under it. It refuses (id 0, false)
// when the thief is already known dead — the hand-over would be lost
// the moment it left — or when the ledger is at capacity.
func (l *ledger[N]) handOver(thief int, t Task[N]) (uint64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.refuses(thief) {
		return 0, false
	}
	return l.retain(thief, t), true
}

// handOverRun is handOver of the run a thief may take from pool (see
// bucketQueue.StealRun), taken into the empty scratch run: cut to the room the
// ledger has left and taken only once it cannot be refused, so a refusal or
// a short ledger leaves the pool in the order it had (pushed back, a task
// would go from the front of its FIFO to the tail). A run's ids are
// consecutive: task i of it is retained under id(seq+i). The ledger lock is
// held across the pool's, never the other way round.
func (l *ledger[N]) handOverRun(thief int, pool *ShardedPool[N], want int, run []Task[N]) (_ []Task[N], seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.refuses(thief) {
		return run, 0
	}
	run = pool.StealRun(min(want, l.cap-len(l.entries)), run)
	for _, t := range run {
		l.retain(thief, t)
	}
	return run, l.seq - uint64(len(run)) + 1
}

func (l *ledger[N]) refuses(thief int) bool {
	return l.dead[thief].Load() || len(l.entries) >= l.cap
}

// id is the hand-over id minted for the seq-th retention.
func (l *ledger[N]) id(seq uint64) uint64 { return dist.TaskID(l.rank, seq) }

func (l *ledger[N]) retain(thief int, t Task[N]) uint64 {
	l.seq++
	id := l.id(l.seq)
	l.entries[id] = ledgerEntry[N]{thief: thief, task: t, fam: t.fam}
	l.peak = max(l.peak, len(l.entries))
	return id
}

// retire removes an acked entry, returning the family its drain
// continues (nil when none) and whether the entry was still present.
// Acks for entries already replayed by a death race are ignored —
// retire is idempotent, which is what keeps a late ack from a
// half-dead peer from corrupting the count.
func (l *ledger[N]) retire(id uint64) (*family, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.entries[id]
	if !ok {
		return nil, false
	}
	delete(l.entries, id)
	return e.fam, true
}

// install retains a hand-over rank 0 minted, the root's, as held by thief,
// or by rank 0 when thief is unknown (-1) or dead, for rank 0's reap to
// replay: dead is read under the lock, so a holder's death is seen here or
// reaps the entry.
func (l *ledger[N]) install(id uint64, thief int, t Task[N]) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if thief < 0 || l.dead[thief].Load() {
		thief = 0
	}
	l.entries[id] = ledgerEntry[N]{thief: thief, task: t}
	l.peak = max(l.peak, len(l.entries))
}

// reap removes every entry a dead rank was holding, returning the
// retained tasks for local re-enqueueing. The rank is marked dead before
// the call, so no hand-over to it can be retained once reap holds the
// lock: a second reap finds nothing.
func (l *ledger[N]) reap(rank int) []Task[N] {
	l.mu.Lock()
	defer l.mu.Unlock()
	var tasks []Task[N]
	for id, e := range l.entries {
		if e.thief == rank {
			tasks = append(tasks, e.task)
			delete(l.entries, id)
		}
	}
	l.replayed += int64(len(tasks))
	return tasks
}

// stats reports the retention peak and replayed-task count.
func (l *ledger[N]) stats() (peak int, replayed int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.peak, l.replayed
}

// outstanding reports the current number of retained entries.
func (l *ledger[N]) outstanding() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}
