package core

import (
	"sync"
	"sync/atomic"
	"time"
)

// This file implements a simplified form of the replicable
// branch-and-bound skeleton of Archibald et al., "Replicable parallel
// branch and bound search" (JPDC 2018) — the specialised skeleton the
// paper's §2.1 cites as the cure for performance anomalies. Parallel
// B&B is normally nondeterministic: the visited-node count depends on
// when incumbent updates happen to arrive. The replicable variant
// trades some pruning for determinism:
//
//  1. The tree above d_cutoff is searched sequentially, producing the
//     task list in heuristic order and a starting incumbent.
//  2. Every task subtree is then searched in parallel, pruning ONLY
//     against the fixed phase-1 bound, with incumbent candidates kept
//     worker-local.
//  3. Local candidates merge after the barrier.
//
// Because no knowledge flows between tasks mid-round, the set of
// nodes visited is a pure function of the problem and d_cutoff —
// independent of worker count, scheduling, and timing. Speedups are
// lower than the anomalous skeletons (pruning is weaker), but every
// run does identical work: no detrimental or acceleration anomalies.

// ReplicableOpt runs the round-synchronous replicable optimisation
// search. cfg.DCutoff controls the split depth.
func ReplicableOpt[S, N any](space S, root N, p OptProblem[S, N], cfg Config) OptResult[N] {
	cfg = cfg.withDefaults()
	cancel := newCanceller()
	start := time.Now()

	// Phase 1: sequential prefix search on worker 0. The incumbent
	// here is plain single-threaded B&B, so this phase is
	// deterministic too. (Phase 2 replaces every worker's visitor per
	// task: the frozen bound does not exist yet.)
	inc, solo := newIncumbent[N](), soloLocality[N]()
	ws := newWorkers(space, p.Gen, cfg, nil, func(th *thief[N]) visitor[N] {
		return newOptVisitor(space, p, inc, solo, &th.stats)
	})
	var tasks []Task[N]
	collectPrefix(ws[0], root, 0, cfg.DCutoff, &tasks)

	// Phase 2: parallel round with a frozen bound.
	_, frozen, has := inc.result()
	if !has {
		frozen = -1 << 62
	}
	type localBest struct {
		node  N
		obj   int64
		found bool
	}
	locals := make([]localBest, cfg.Workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range ws {
		wg.Add(1)
		go func(c *workerCtx[S, N]) {
			defer wg.Done()
			// The worker's best lives on its stack and is published
			// once, at exit: locals' adjacent slots are never written
			// while anyone searches.
			var best localBest
			defer func() { locals[c.id] = best }()
			for {
				i := next.Add(1) - 1
				if int(i) >= len(tasks) {
					return
				}
				t := tasks[i]
				// A private incumbent seeded with the frozen bound,
				// reset per task so no knowledge leaks between tasks —
				// not even tasks run by the same worker — the property
				// that makes the visited set timing-free.
				priv, solo := newIncumbent[N](), soloLocality[N]()
				var zero N
				priv.strengthen(solo, frozen, zero)
				c.visitor = newOptVisitor(space, p, priv, solo, &c.stats)
				// The task root was already visited in phase 1; only
				// its subtree remains.
				expandBelow(c, cancel, t.Node)
				if n, obj, found := priv.result(); found && obj > frozen {
					if !best.found || obj > best.obj {
						best = localBest{node: n, obj: obj, found: true}
					}
				}
			}
		}(c)
	}
	wg.Wait()

	// Phase 3: merge.
	bestNode, bestObj, found := inc.result()
	for _, lb := range locals {
		if lb.found && (!found || lb.obj > bestObj) {
			bestNode, bestObj, found = lb.node, lb.obj, true
		}
	}
	stats := totalStats(ws)
	stats.Elapsed = time.Since(start)
	return OptResult[N]{Best: bestNode, Objective: bestObj, Found: found, Stats: stats}
}

// collectPrefix searches the tree above the cutoff sequentially
// (visiting and possibly pruning as usual) and appends the unvisited
// subtree roots at the cutoff depth to tasks, in traversal order. The
// recursion depth doubles as the cache level, so each level of the
// prefix reuses one generator.
func collectPrefix[S, N any](c *workerCtx[S, N], node N, depth, cutoff int, tasks *[]Task[N]) {
	if c.visitor.visit(node) != descend {
		return
	}
	if depth >= cutoff {
		*tasks = append(*tasks, Task[N]{Node: node, Depth: depth})
		c.stats.Spawns++
		return
	}
	g := c.gens.gen(depth, node)
	for g.HasNext() {
		collectPrefix(c, g.Next(), depth+1, cutoff, tasks)
	}
}
