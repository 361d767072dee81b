package core

import (
	"runtime"
	"sync"
	"time"
)

// This file implements the BestFirst extension coordination — not one
// of the paper's four, but the worked instance of its extensibility
// claim (Section 4: "new coordination methods may provide best-first
// search or random task creation"). Workers repeatedly take the most
// promising subtree and explore it depth-first for a backtrack budget,
// shedding the lowest-depth leftovers back into the pool with fresh
// priorities — a budget-style splitter married to best-first global
// ordering.
//
// The pool is a per-worker-sharded PrioBucketPool: the user-supplied
// priority (typically the optimisation bound) is mapped onto small
// bucket indices as its distance from the root's bound, owners push
// and pop their own shard without contention, and an idle worker robs
// its siblings best-priority-first — the same layout the ordered
// pool-based coordinations use, replacing the single global mutex+heap
// this coordination was originally built on (5× slower per push/pop
// and a scaling bottleneck with every worker on one lock).

// BestFirstOpt runs an optimisation search with best-bound-first task
// scheduling. The priority of a spawned subtree is p.Bound of its
// root, so globally promising regions are searched early, which finds
// strong incumbents fast and amplifies pruning. Requires p.Bound.
func BestFirstOpt[S, N any](space S, root N, p OptProblem[S, N], cfg Config) OptResult[N] {
	if p.Bound == nil {
		panic("core: BestFirstOpt requires a Bound function")
	}
	cfg = cfg.withDefaults()
	fab := newLoopbackFabric[N](cfg)
	defer fab.close()
	cancel := newCanceller()
	inc := newIncumbent[N](fab.trs)
	fab.bounds = inc
	ws := newWorkers(space, p.Gen, cfg, func(w int, sh *WorkerStats) visitor[N] {
		return newOptVisitor(space, p, inc, w%cfg.Localities, sh)
	})
	fab.start(cancel)
	start := time.Now()
	runBestFirst(func(n N) int64 { return p.Bound(space, n) }, cfg, ws, cancel, root)
	stats := totalStats(ws)
	stats.Elapsed = time.Since(start)
	stats.Broadcasts = inc.broadcasts()
	node, obj, has := inc.result()
	return OptResult[N]{Best: node, Objective: obj, Found: has, Stats: stats}
}

// runBestFirst drives workers over a per-worker-sharded priority pool.
// Tasks run depth-first for cfg.Budget backtracks; on exhaustion the
// bottom-most generator is drained back into the worker's shard,
// prioritised by each subtree root's own bound (bucketed as distance
// from the root bound: lower bucket = stronger bound = runs earlier).
func runBestFirst[S, N any](prio func(N) int64, cfg Config, workers []*workerCtx[S, N], cancel *canceller, root N) {
	ref := prio(root)
	taskPrio := func(n N) int32 { return clampPrio(ref - prio(n)) }
	pool := NewShardedPool[N](PrioBucketKind, cfg.Workers)
	pk := newParker(cfg.Workers)
	tr := newTracker()
	tr.add(1)
	pool.Shard(0).Push(Task[N]{Node: root, Depth: 0, Prio: taskPrio(root)})

	runTask := func(c *workerCtx[S, N], t Task[N]) {
		if trc := cfg.Trace; trc != nil {
			start := time.Now()
			defer func() { trc.record(c.id, t.Depth, start, time.Now()) }()
		}
		defer tr.finish()
		if cancel.cancelled() {
			return
		}
		v, sh, gc, sc := c.visitor, &c.stats, &c.gens, &c.scratch
		if v.visit(t.Node) != descend {
			return
		}
		stack := sc.stack[:0]
		defer func() { sc.stack = stack[:0] }()
		stack = append(stack, gc.gen(0, t.Node))
		backtracks := int64(0)
		for len(stack) > 0 {
			if cancel.cancelled() {
				return
			}
			if backtracks >= cfg.Budget {
				for i := 0; i < len(stack); i++ {
					if stack[i].HasNext() {
						for stack[i].HasNext() {
							child := stack[i].Next()
							tr.add(1)
							sh.Spawns++
							cp := taskPrio(child)
							sh.notePrio(cp)
							pool.Shard(c.id).Push(Task[N]{Node: child, Depth: t.Depth + i + 1, Prio: cp})
							pk.wake()
						}
						break
					}
				}
				backtracks = 0
				continue
			}
			g := stack[len(stack)-1]
			if !g.HasNext() {
				stack[len(stack)-1] = nil
				stack = stack[:len(stack)-1]
				sh.Backtracks++
				backtracks++
				continue
			}
			child := g.Next()
			switch v.visit(child) {
			case descend:
				stack = append(stack, gc.gen(len(stack), child))
			case pruneLevel:
				stack[len(stack)-1] = nil
				stack = stack[:len(stack)-1]
				sh.Backtracks++
				backtracks++
			}
		}
	}

	var wg sync.WaitGroup
	for _, c := range workers {
		wg.Add(1)
		go func(c *workerCtx[S, N]) {
			defer wg.Done()
			w, sh := c.id, &c.stats
			timer := newParkTimer()
			defer timer.Stop()
			idle := 0
			for {
				if cancel.cancelled() {
					return
				}
				t, ok := pool.Shard(w).Pop()
				if !ok {
					if t, ok = pool.StealExcept(w); ok {
						sh.LocalSteals++
					}
				}
				if ok {
					idle = 0
					runTask(c, t)
					continue
				}
				select {
				case <-tr.done:
					return
				case <-cancel.ch:
					return
				default:
				}
				idle++
				if idle <= 8 {
					runtime.Gosched()
					continue
				}
				backoff := idle - 9
				if backoff > 5 {
					backoff = 5
				}
				pk.park(timer, 20*time.Microsecond<<uint(backoff), tr.done, cancel.ch,
					func() bool { return pool.Size() == 0 })
			}
		}(c)
	}
	wg.Wait()
}
