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
	LocalSteals   int64 // tasks robbed from sibling shards, or split from a sibling's stack, in the locality
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
// it; nothing per-worker is kept in parallel slices elsewhere.
type workerCtx[S, N any] struct {
	thief
	// visitor is the search type's node-processing strategy. Its own
	// mutable state (an enumeration's accumulator) sits in an isolated
	// block of its own; its counters are this context's stats.
	visitor visitor[N]
	gens    genCache[S, N]     // generator recycling cache
	stack   []level[N]         // the shedding walk's stack, reused by every task
	dfs     []NodeGenerator[N] // the pure walk's stack, likewise
	run     [shedRun]Task[N]   // the run of tasks shed is building
}

// thief is the part of a worker's context no type parameter reaches —
// identity, counters, and steal state — which is what the topology
// (generic over the node type only) needs to serve the worker.
type thief struct {
	id    int
	stats WorkerStats
	// finished counts the tasks this worker has completed and not yet
	// taken off its locality's live count (see topology.settle).
	finished int64
	seed     int64
	rng      *rand.Rand    // steal victim order; built on first use
	victims  victimScratch // victim-ranking buffers
}

// rand returns the worker's steal rng. Seeding one costs microseconds
// and 5 KB, which a worker that never looks for a victim (Sequential,
// or a single locality) need not pay.
func (th *thief) rand() *rand.Rand {
	if th.rng == nil {
		th.rng = rand.New(rand.NewSource(th.seed))
	}
	return th.rng
}

// newWorkers builds one isolated context per worker. visit constructs
// worker w's visitor around the context's counters.
func newWorkers[S, N any](space S, gf GenFactory[S, N], cfg Config, visit func(w int, sh *WorkerStats) visitor[N]) []*workerCtx[S, N] {
	ws := make([]*workerCtx[S, N], cfg.Workers)
	for w := range ws {
		c := pad.New[workerCtx[S, N]]()
		c.id = w
		c.seed = cfg.Seed + int64(w)*7919
		c.gens = genCache[S, N]{space: space, gf: gf}
		c.visitor = visit(w, &c.stats)
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
