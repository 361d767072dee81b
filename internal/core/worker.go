package core

import (
	"math/rand"

	"yewpar/internal/pad"
)

// WorkerStats holds one worker's counters. Each worker writes only its
// own, inside its workerCtx, so the fields are plain integers; they are
// only read after all workers have joined.
type WorkerStats struct {
	Nodes         int64
	Prunes        int64
	Spawns        int64
	StealsOK      int64
	StealsFail    int64
	Backtracks    int64
	LocalSteals   int64 // robberies within the locality — a run from a sibling's shard, a split of a sibling's stack — one each, like StealsOK
	OrderedSteals int64 // transport steals whose victim was picked by priority summary
	// PrioHist counts spawned tasks by priority (ordered scheduling
	// only): bucket i holds priority i, the last bucket everything at
	// or beyond it.
	PrioHist [prioHistBuckets]int64
}

// prioHistBuckets is the spawned-priority histogram width.
const prioHistBuckets = 8

// notePrio records one spawned task's priority in the histogram.
func (w *WorkerStats) notePrio(prio int32) {
	i := int(prio)
	if i >= prioHistBuckets {
		i = prioHistBuckets - 1
	}
	if i < 0 {
		i = 0
	}
	w.PrioHist[i]++
}

// workerCtx is everything one worker mutates on its hot path, in one
// place: the cache-line discipline of this package is that whatever a
// worker writes per node or per task lives here (or in an isolated
// block only this context points to), and every context is allocated
// with pad.New, so no two workers' mutable words ever share a line.
// Coordinations receive the context and take all per-worker state from
// it — its locality and its own pool shard included; nothing per-worker
// is kept in parallel slices elsewhere.
type workerCtx[S, N any] struct {
	thief[N]
	// visitor is the search type's node-processing strategy. Its own
	// mutable state (an enumeration's accumulator) sits in an isolated
	// block of its own; its counters are this context's stats.
	visitor visitor[N]
	gens    genCache[S, N]     // generator recycling cache
	stack   []level[N]         // the shedding walk's stack, reused by every task
	dfs     []NodeGenerator[N] // the pure walk's stack, likewise
}

// thief is the part of a worker's context the search space's type does
// not reach — identity, place, counters, and steal state — which is what
// its locality (generic over the node type only) needs to serve it.
type thief[N any] struct {
	id       int
	loc      *locality[N]    // the locality the worker belongs to
	shard    *bucketQueue[N] // its own shard of loc's pool, shardIdx there
	shardIdx int
	stats    WorkerStats
	// finished counts the tasks this worker has completed and not yet
	// taken off its locality's live count (see settle).
	finished int64
	seed     int64
	rng      *rand.Rand       // steal victim order; built on first use
	victims  victimScratch    // victim-ranking buffers
	run      [shedRun]Task[N] // the run of tasks a shed is building, or a rob took
	// hungry is set while the worker has raised its locality's hungry word
	// and not run a task since (Stack-Stealing).
	hungry bool
}

// rand returns the worker's steal rng. Seeding one costs microseconds
// and 5 KB, which a worker that never looks for a victim (Sequential,
// or a single locality) need not pay.
func (th *thief[N]) rand() *rand.Rand {
	if th.rng == nil {
		th.rng = rand.New(rand.NewSource(th.seed))
	}
	return th.rng
}

// settle takes the tasks a worker has finished since it last settled
// off its locality's live count (see engine.finishTask).
func (th *thief[N]) settle() {
	if th.finished != 0 {
		th.loc.tr.AddTasks(-th.finished)
		th.finished = 0
	}
}

// newWorkers builds one isolated context per worker and spreads them
// round-robin over locs, then over the shards of each locality's pool
// (no locs, no place: a test's bare workers). visit constructs a
// worker's visitor around its counters.
func newWorkers[S, N any](space S, gf GenFactory[S, N], cfg Config, locs []*locality[N], visit func(th *thief[N]) visitor[N]) []*workerCtx[S, N] {
	ws := make([]*workerCtx[S, N], cfg.Workers)
	for w := range ws {
		c := pad.New[workerCtx[S, N]]()
		c.id = w
		if n := len(locs); n > 0 {
			c.loc = locs[w%n]
			c.shardIdx = (w / n) % c.loc.pool.Shards()
			c.shard = c.loc.pool.Shard(c.shardIdx)
			c.loc.thieves = append(c.loc.thieves, &c.thief)
		}
		c.seed = cfg.Seed + int64(w)*7919
		c.gens = genCache[S, N]{space: space, gf: gf}
		c.visitor = visit(&c.thief)
		ws[w] = c
	}
	return ws
}

// totalStats sums the workers' counters. Only valid after the workers
// have joined.
func totalStats[S, N any](ws []*workerCtx[S, N]) Stats {
	var s Stats
	for _, c := range ws {
		s.add(c.stats)
	}
	s.Workers = len(ws)
	return s
}
