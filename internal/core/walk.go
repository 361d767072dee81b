package core

import (
	"math"
	"sync/atomic"
	"time"
)

// This file is the paper's Figure 2 as code. Every coordination runs
// the same traversal rules — (expand), (backtrack), (prune),
// (terminate) — through one task body, and differs only in its spawn
// rule, which is a value: Listings 3 and 4 are Listing 2 plus the lines
// a spawnRule switches on. A rule that cannot fire mid-walk gets the
// pure depth-first loop; one that can gets the shedding walk. They are
// two functions that share no logic because folding the pure loop into
// the shedding one was measured at +6–9 % ns/node on the cheapest nodes
// any workload has (ROADMAP, per-node cost item (b)).

// spawnRule is what a coordination adds to sequential search. The zero
// rule spawns nothing: Sequential is that rule on one worker.
type spawnRule struct {
	depth  int   // (spawn-depth): a task shallower than this spawns all its root's children
	budget int64 // (spawn-budget): shed the lowest level every this many backtracks; 0 = never
	split  bool  // (spawn-stack): shed from the live stack when a thief finds the locality dry
	frozen bool  // Replicable: the root spawns every task, at depth, under one frozen bound (frozenTask)
}

// ruleFor derives a coordination's spawn rule. It is the extension
// point of Section 4 of the paper: a new coordination is a new rule
// value here, not a new task body.
func ruleFor(coord Coordination, cfg Config) spawnRule {
	switch coord {
	case Sequential:
		return spawnRule{}
	case DepthBounded:
		return spawnRule{depth: cfg.DCutoff}
	case Budget:
		return spawnRule{budget: cfg.Budget}
	case StackStealing:
		return spawnRule{split: true}
	case Replicable:
		return spawnRule{depth: cfg.DCutoff, frozen: true}
	default:
		panic("core: unknown coordination")
	}
}

// level is one level of a task's live depth-first stack: the lazy
// generator of the node expanded there, and the counters ordered
// scheduling needs to stamp a shed node with its priority. Each worker
// keeps one stack of them, whose backing array every task reuses.
type level[N any] struct {
	gen    NodeGenerator[N]
	disc   int32 // discrepancy of the node whose generator this is
	yields int32 // children gen has yielded so far
}

// runTask is the one task body. It visits the task root and then
// searches below it under the engine's spawn rule. Every task a worker
// obtains passes through here exactly once, which is what finishes it.
func (e *engine[S, N]) runTask(c *workerCtx[S, N], t Task[N]) {
	if tr := e.cfg.Trace; tr != nil {
		defer func(start time.Time) { tr.record(c.id, t.Depth, start, time.Now()) }(time.Now())
	}
	rule := e.rule
	var hungry *atomic.Int64 // the locality's, under a splitting rule
	if rule.split {
		hungry, c.hungry = &c.loc.hungry.V, false
		c.loc.active.V.Add(1)
		defer c.loc.leave()
	}
	if e.taskHook != nil {
		e.taskHook(1)
	}
	defer e.finishTask(c, t)
	if rule.frozen {
		e.frozenTask(c, &t)
		return
	}
	if e.cancel.cancelled() || c.visitor.visit(t.Node) != descend {
		return
	}
	switch {
	case t.Depth < rule.depth && !c.loc.mem.pressured():
		// (spawn-depth): every child of a node above the cutoff becomes
		// a task, queued in traversal order. Spawns happen as tasks
		// execute rather than upfront (Section 4.2). Memory pressure
		// deepens the cutoff: above the budget's soft threshold the
		// worker searches in place instead, trading parallel slack for
		// zero frontier growth. Checked per task, so relief is immediate
		// once thieves or the spiller bring the pool back down.
		e.shed(c, &t, []level[N]{{gen: c.gens.gen(0, t.Node), disc: t.Prio}}, math.MaxInt)
	case rule.budget == 0 && !rule.split:
		expandBelow(c, e.cancel, t.Node)
	default:
		e.shedWalk(c, &t, hungry)
	}
}

// frozenTask is Replicable's task body. The root task, phase 1, is the only
// task: it walks the prefix in place, freezes its incumbent as the round's
// bound, then spawns the cutoff nodes it kept, in runs. A cutoff task,
// phase 2, searches below its root. An optimisation prunes against its
// worker's own incumbent, reset to the frozen bound (none in phase 1) as a
// task starts and offered to the shared one as it ends.
func (e *engine[S, N]) frozenTask(c *workerCtx[S, N], t *Task[N]) {
	v, opt := c.visitor.(*optVisitor[S, N])
	if opt {
		v.inc.reset(v.loc, e.fab.frozen.Load())
		defer func() {
			if n, obj, ok := v.inc.result(); ok {
				e.fab.inc.strengthen(c.loc, obj, n)
			}
		}()
	}
	if t.Depth > 0 {
		expandBelow(c, e.cancel, t.Node)
		return
	}
	if e.cancel.cancelled() || c.visitor.visit(t.Node) != descend {
		return
	}
	var tasks []Task[N]
	e.prefix(c, t, t.Node, 0, t.Prio, &tasks)
	if opt {
		e.fab.frozen.Store(v.loc.bound.V.Load())
	}
	for k := 0; len(tasks) > 0; tasks = tasks[k:] {
		k = c.loc.mem.headroom(min(len(tasks), shedRun))
		c.spawn(t, tasks[:k])
	}
}

// prefix walks below node in place down to the cutoff, keeping each node
// there that its visit lets descend as a task of t's family, in traversal order. A
// pruned node is skipped; its later siblings are still visited.
func (e *engine[S, N]) prefix(c *workerCtx[S, N], t *Task[N], node N, depth int, disc int32, tasks *[]Task[N]) {
	g := c.gens.gen(depth, node)
	for i := 0; g.HasNext(); i++ {
		child := g.Next()
		switch {
		case c.visitor.visit(child) != descend:
		case depth+1 < e.rule.depth:
			e.prefix(c, t, child, depth+1, discChild(disc, i), tasks)
		default:
			prio := e.prio.childPrio(disc, i, child)
			*tasks = append(*tasks, Task[N]{Node: child, Depth: depth + 1, Prio: prio, fam: t.fam})
			if e.fab.ordered {
				c.stats.notePrio(prio)
			}
		}
	}
}

// expandBelow performs the depth-first backtracking traversal of
// Listing 2 over the subtree strictly below root. The caller must have
// visited root already (and received prune == false). A stack of lazy
// node generators drives the traversal: advancing the top generator is
// the (expand) rule, popping an exhausted generator is (backtrack), and
// an empty stack is (terminate). Generators come from the worker's
// recycling cache, one per stack level, so applications implementing
// ResettableGenerator expand without per-node generator allocations.
// Nothing can be shed from this walk, which is what lets it run its
// generators in ephemeral mode. Its stack is the worker's reusable one;
// entries are nil-ed as they pop, so none pins a recycled generator.
func expandBelow[S, N any](c *workerCtx[S, N], cancel *canceller, root N) {
	gc, v, sh := &c.gens, c.visitor, &c.stats
	stack := append(c.dfs[:0], gc.genDFS(0, root))
	defer func() {
		clear(stack) // a cancelled walk leaves its levels behind
		c.dfs = stack[:0]
	}()
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

// shedWalk is expandBelow for the rules that fire mid-walk: the same
// traversal, with the two shedding rules polled at the top of every
// step. (spawn-budget), Listing 4: once the task has backtracked
// rule.budget times, the lowest non-exhausted level — the unexplored
// nodes closest to the root, heuristically the largest pending
// subtrees — is drained into the worker's own pool and the count
// resets, so long-running tasks periodically shed. (spawn-stack),
// Listing 3: nothing is spawned proactively; while thieves that found the
// locality dry hold its hungry word up, the worker that lowers it by one
// sheds from that same level (feed). Shed nodes outlive the generator
// that yielded them, so this walk never uses ephemeral mode; its stack is
// the worker's reusable one, so running a task allocates nothing.
func (e *engine[S, N]) shedWalk(c *workerCtx[S, N], t *Task[N], hungry *atomic.Int64) {
	v, sh, gc := c.visitor, &c.stats, &c.gens
	budget := e.rule.budget
	if budget == 0 {
		budget = math.MaxInt64
	}
	stack := append(c.stack[:0], level[N]{gen: gc.gen(0, t.Node), disc: t.Prio})
	// The write-back is deferred, not placed after the loop, for what the
	// capture does: the stack header stays in memory instead of being
	// shuffled between registers around the loop's indirect calls, worth
	// 1 ns/node on knapsack's 28. The feed is out of line for the same
	// reason.
	defer func() { c.stack = stack[:0] }()
	backtracks := int64(0)
	for len(stack) > 0 {
		if e.cancel.cancelled() {
			return
		}
		if backtracks >= budget {
			// Memory pressure suspends shedding: keep searching this
			// stack in place (the budget re-arms, so the check repeats)
			// until the pool is back under its soft threshold.
			if !c.loc.mem.pressured() {
				e.shed(c, t, stack, math.MaxInt)
			}
			backtracks = 0
		}
		if hungry != nil && hungry.Load() > 0 {
			e.feed(c, t, stack)
		}
		top := &stack[len(stack)-1]
		if !top.gen.HasNext() {
			top.gen = nil
			stack = stack[:len(stack)-1]
			sh.Backtracks++
			backtracks++
			continue
		}
		child := top.gen.Next()
		top.yields++
		switch v.visit(child) {
		case descend:
			stack = append(stack, level[N]{gen: gc.gen(len(stack), child), disc: discChild(top.disc, int(top.yields-1))})
		case pruneLevel:
			top.gen = nil
			stack = stack[:len(stack)-1]
			sh.Backtracks++
			backtracks++
		}
	}
}

// splitWant is the most nodes one feed sheds under Chunked.
const splitWant = 64

// feed is (spawn-stack) as a shed: the worker that lowers its locality's
// hungry word by one answers a hunger. It sheds from its lowest live level
// onto its own shard — one node, or under Chunked up to splitWant — where
// a thief robs them as it robs any sibling's work, and a peer's steal
// waiting for them (ServeSplit) serves them. A stack with nothing left to
// shed answers with nothing: it wakes a thief, which, once every hunger is
// answered, looks further afield.
func (e *engine[S, N]) feed(c *workerCtx[S, N], t *Task[N], stack []level[N]) {
	l := c.loc
	if l.hungry.V.Add(-1) < 0 {
		l.hungry.V.Add(1) // a sibling lowered it first
		return
	}
	max, spawns := 1, c.stats.Spawns
	if e.cfg.Chunked {
		max = splitWant
	}
	e.shed(c, t, stack, max)
	if c.stats.Spawns == spawns {
		l.park.wake() // a shed's push wakes one otherwise
	}
	l.fedWaiters()
}

// shedRun is the most tasks shed registers and pushes at once.
const shedRun = 64

// shed is the one donation from a live stack, under every rule: the
// lowest level of task t's stack with unexplored nodes gives up to max
// of them, in traversal order, to the worker's own pool shard in runs of
// at most shedRun as they are generated (a level can be 100,000 nodes
// wide: nobody waits for, or buffers, the whole of it). Only that level
// donates, each run registered by spawn. Under a memory budget a run is
// no longer than the pool's headroom, so the hard threshold is overshot
// by one task at most. A node its bound prunes is visited here, not
// shed: as in Sequential, it counts, and under PruneLevel ends its level.
func (e *engine[S, N]) shed(c *workerCtx[S, N], t *Task[N], stack []level[N], max int) {
	loc, sh := c.loc, &c.stats
	for i := range stack {
		lv, n := &stack[i], 0
		for n < max && lv.gen.HasNext() {
			run := c.run[:0]
			room := loc.mem.headroom(min(max-n, shedRun))
			for len(run) < room && lv.gen.HasNext() {
				child, yield := lv.gen.Next(), int(lv.yields)
				lv.yields++
				if act := c.visitor.prunes(child); act != descend {
					if act == pruneLevel {
						lv.gen = EmptyGen[N]{} // exhausted: a later sibling is no better
					}
					continue
				}
				run = append(run, Task[N]{
					Node:  child,
					Depth: t.Depth + i + 1,
					Prio:  e.prio.childPrio(lv.disc, yield, child),
					fam:   t.fam,
				})
				if e.fab.ordered {
					sh.notePrio(run[len(run)-1].Prio)
				}
			}
			c.spawn(t, run)
			n += len(run)
		}
		if n > 0 {
			return
		}
	}
}

// spawn registers a run t spawned before anyone can see it — with the
// locality's live count, so termination cannot fire past it, and with t's
// supervision family, which a received subtree keeps open until done: one
// AddTasks and one family add — and puts it on the worker's own pool shard.
func (th *thief[N]) spawn(t *Task[N], run []Task[N]) {
	k := int64(len(run))
	th.loc.tr.AddTasks(k)
	if t.fam != nil {
		t.fam.pending.Add(k)
	}
	th.stats.Spawns += k
	th.shard.PushBatch(run)
	clear(run)         // the nodes are the shard's now
	th.loc.park.wake() // a parked sibling, if any, to come rob them
	// Memory governor, last-resort response: the spawner that pushed
	// the pool past its hard threshold spills the coldest tasks.
	th.loc.mem.maybeSpill()
}
