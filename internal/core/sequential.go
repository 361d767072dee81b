package core

// expandBelow performs the depth-first backtracking traversal of
// Listing 2 over the subtree strictly below root. The caller must have
// visited root already (and received prune == false). A stack of lazy
// node generators drives the traversal: advancing the top generator is
// the (expand) rule, popping an exhausted generator is (backtrack), and
// an empty stack is (terminate). Generators come from the worker's
// recycling cache, one per stack level, so applications implementing
// ResettableGenerator expand without per-node generator allocations.
func expandBelow[S, N any](c *workerCtx[S, N], cancel *canceller, root N) {
	gc, v, sh := &c.gens, c.visitor, &c.stats
	stack := make([]NodeGenerator[N], 0, 32)
	stack = append(stack, gc.genDFS(0, root))
	for len(stack) > 0 {
		if cancel.cancelled() {
			return
		}
		g := stack[len(stack)-1]
		if !g.HasNext() {
			stack[len(stack)-1] = nil
			stack = stack[:len(stack)-1]
			sh.Backtracks++
			continue
		}
		child := g.Next()
		switch v.visit(child) {
		case descend:
			stack = append(stack, gc.genDFS(len(stack), child))
		case pruneLevel:
			// Later siblings have no better bound: abandon the level.
			stack[len(stack)-1] = nil
			stack = stack[:len(stack)-1]
			sh.Backtracks++
		}
	}
}

// runSequential is the Sequential coordination: one worker, no spawn
// rules.
func runSequential[S, N any](c *workerCtx[S, N], cancel *canceller, root N) {
	if c.visitor.visit(root) != descend {
		return
	}
	expandBelow(c, cancel, root)
}
