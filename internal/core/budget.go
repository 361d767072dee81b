package core

// runBudget is the Budget coordination, implementing the (spawn-budget)
// rule (Listing 4): each task runs a sequential backtracking search,
// counting backtracks; when the count reaches the budget, the
// bottom-most non-exhausted generator — the unexplored nodes at lowest
// depth, i.e. closest to the root — is drained into the workpool in
// traversal order and the counter resets. Long-running tasks thereby
// periodically shed their largest pending subtrees. Generators come
// from the worker's recycling cache, one per stack level; draining a
// generator into the pool copies out node values only, so the
// generator itself never escapes the worker. The expansion stack (and
// the per-level discrepancy/yield counters ordered scheduling needs to
// stamp shed tasks with priorities) lives in the worker's reusable
// scratch, so running a task allocates nothing.
func runBudget[S, N any](e *engine[S, N], root N) {
	budget := e.cfg.Budget
	e.runPoolWorkers(root, func(c *workerCtx[S, N], t Task[N]) {
		defer e.finishTask(c.id, t)
		if e.cancel.cancelled() {
			return
		}
		v, sh, gc, sc := c.visitor, &c.stats, &c.gens, &c.scratch
		if v.visit(t.Node) != descend {
			return
		}
		stack := sc.stack[:0]
		disc := sc.disc[:0]
		yields := sc.yields[:0]
		defer func() {
			sc.stack, sc.disc, sc.yields = stack[:0], disc, yields
		}()
		stack = append(stack, gc.gen(0, t.Node))
		disc = append(disc, t.Prio)
		yields = append(yields, 0)
		backtracks := int64(0)
		for len(stack) > 0 {
			if e.cancel.cancelled() {
				return
			}
			if backtracks >= budget {
				if e.memPressured(c.id) {
					// Memory pressure suspends shedding: keep searching
					// this stack in place (the budget re-arms, so the
					// check repeats) until the pool is back under its
					// soft threshold.
					backtracks = 0
					continue
				}
				for i := 0; i < len(stack); i++ {
					if stack[i].HasNext() {
						for stack[i].HasNext() {
							child := stack[i].Next()
							e.spawnTask(c, Task[N]{
								Node:  child,
								Depth: t.Depth + i + 1,
								Prio:  e.prio.childPrio(disc[i], int(yields[i]), child),
								fam:   t.fam,
							})
							yields[i]++
						}
						break
					}
				}
				backtracks = 0
				continue
			}
			top := len(stack) - 1
			g := stack[top]
			if !g.HasNext() {
				stack[top] = nil
				stack = stack[:top]
				disc = disc[:top]
				yields = yields[:top]
				sh.Backtracks++
				backtracks++
				continue
			}
			child := g.Next()
			childIdx := yields[top]
			yields[top]++
			switch v.visit(child) {
			case descend:
				stack = append(stack, gc.gen(len(stack), child))
				disc = append(disc, discChild(disc[top], int(childIdx)))
				yields = append(yields, 0)
			case pruneLevel:
				stack[top] = nil
				stack = stack[:top]
				disc = disc[:top]
				yields = yields[:top]
				sh.Backtracks++
				backtracks++
			}
		}
	})
}
