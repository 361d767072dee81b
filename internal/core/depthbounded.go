package core

// runDepthBounded is the Depth-Bounded coordination, implementing the
// (spawn-depth) rule: every node at depth < d_cutoff has all its
// children spawned as tasks, queued in traversal order on the worker's
// pool shard; nodes at or below the cutoff are searched in place.
// Spawns happen as tasks execute rather than upfront, matching
// Section 4.2. Both the spawn loop and the in-place expansion draw
// generators from the worker's recycling cache (the task root expands
// at stack level 0, exactly like expandBelow's root). Under an ordered
// scheduling mode each spawned child carries its priority: its path
// discrepancy (the parent task's, plus one for every non-leftmost
// branch) or its bound distance, assigned by the engine's prioAssigner.
func runDepthBounded[S, N any](e *engine[S, N], root N) {
	e.runPoolWorkers(root, func(c *workerCtx[S, N], t Task[N]) {
		defer e.finishTask(c.id, t)
		if e.cancel.cancelled() {
			return
		}
		if c.visitor.visit(t.Node) != descend {
			return
		}
		// Memory pressure deepens the cutoff: above the budget's soft
		// threshold the worker searches in place instead of spawning,
		// trading parallel slack for zero frontier growth. Checked per
		// task, so relief is immediate once thieves or the spiller
		// bring the pool back down.
		if t.Depth < e.cfg.DCutoff && !e.memPressured(c.id) {
			g := c.gens.gen(0, t.Node)
			for i := 0; g.HasNext(); i++ {
				child := g.Next()
				e.spawnTask(c, Task[N]{
					Node:  child,
					Depth: t.Depth + 1,
					Prio:  e.prio.childPrio(t.Prio, i, child),
					fam:   t.fam,
				})
			}
			return
		}
		expandBelow(c, e.cancel, t.Node)
	})
}
