package core

import (
	"math"
	"reflect"
	"sort"
	"testing"
)

// newShedEngine builds a one-locality engine over int nodes, enough for
// shed: a fabric to register shed tasks with, a worker context to count
// them on and hold them in its shard, and a priority assigner for the
// given order.
func newShedEngine(t *testing.T, order Order) *engine[int, int] {
	t.Helper()
	cfg := Config{Workers: 2, Seed: 1, Order: order}.withDefaults()
	rule := spawnRule{split: true}
	fab := newFabric[int](nil, nil, rule, cfg)
	t.Cleanup(fab.close)
	ws := newWorkers[int, int](0, nil, cfg, fab.locs, func(th *thief[int]) visitor[int] { return &hookVisitor{shard: &th.stats} })
	return newEngine(rule, cfg, ws, fab, newPrioAssigner[int, int](cfg.Order, 0, 0, nil))
}

// split runs shed the way a feed does, for worker 0 running a task rooted
// at rootDepth, with fresh per-level discrepancy and yield counters, and
// takes what it shed back off the worker's shard.
func split(e *engine[int, int], gens []NodeGenerator[int], rootDepth, max int) (ts []Task[int], yields []int32) {
	task := Task[int]{Depth: rootDepth}
	stack := make([]level[int], len(gens))
	for i, g := range gens {
		stack[i].gen = g
	}
	e.shed(e.workers[0], &task, stack, max)
	for _, lv := range stack {
		yields = append(yields, lv.yields)
	}
	return drain(e.workers[0]), yields
}

// drain pops every task off c's shard, in node order: the pool's pop
// order is its own business, a shed's is traversal order.
func drain(c *workerCtx[int, int]) []Task[int] {
	var ts []Task[int]
	for t, ok := c.shard.Pop(); ok; t, ok = c.shard.Pop() {
		ts = append(ts, t)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].Node < ts[j].Node })
	return ts
}

func TestSplitTakesBottomMostNonEmpty(t *testing.T) {
	e := newShedEngine(t, OrderNone)
	stack := []NodeGenerator[int]{
		NewSliceGen[int](nil),      // exhausted: depth rootDepth+1
		NewSliceGen([]int{10, 11}), // bottom-most with work
		NewSliceGen([]int{20, 21, 22}),
	}
	ts, yields := split(e, stack, 5, 1)
	if len(ts) != 1 {
		t.Fatalf("unchunked split handed %d tasks", len(ts))
	}
	if ts[0].Node != 10 {
		t.Fatalf("split took %d, want first child of the lowest generator", ts[0].Node)
	}
	if ts[0].Depth != 5+1+1 {
		t.Fatalf("split task depth = %d, want rootDepth+index+1 = 7", ts[0].Depth)
	}
	if live := e.fab.net.Live(); live != 1 {
		t.Fatalf("split registered %d live tasks, want 1", live)
	}
	if sp := e.workers[0].stats.Spawns; sp != 1 {
		t.Fatalf("spawns = %d", sp)
	}
	if yields[1] != 1 || yields[0] != 0 || yields[2] != 0 {
		t.Fatalf("yield counters = %v, want only level 1 advanced", yields)
	}
	// the victim keeps the remaining sibling
	if !stack[1].HasNext() {
		t.Fatal("victim lost its remaining child")
	}
}

func TestSplitChunkedDrainsWholeLevel(t *testing.T) {
	e := newShedEngine(t, OrderNone)
	stack := []NodeGenerator[int]{
		NewSliceGen([]int{1, 2, 3}),
		NewSliceGen([]int{9}),
	}
	ts, _ := split(e, stack, 0, splitWant)
	if len(ts) != 3 {
		t.Fatalf("chunked split handed %d tasks, want 3", len(ts))
	}
	for i, want := range []int{1, 2, 3} {
		if ts[i].Node != want {
			t.Fatalf("chunked order broken: %v", ts)
		}
	}
	if stack[0].HasNext() {
		t.Fatal("lowest generator should be drained")
	}
	if !stack[1].HasNext() {
		t.Fatal("higher generator must be untouched")
	}

	// A level wider than the request's cap donates exactly the cap; the
	// victim keeps the rest.
	wide := make([]int, splitWant+5)
	for i := range wide {
		wide[i] = i
	}
	lowest := NewSliceGen(wide)
	ts, _ = split(e, []NodeGenerator[int]{lowest}, 0, splitWant)
	if len(ts) != splitWant || lowest.Remaining() != 5 {
		t.Fatalf("capped chunked split handed %d tasks and left %d, want %d and 5", len(ts), lowest.Remaining(), splitWant)
	}
	if live := e.fab.net.Live(); live != int64(3+splitWant) {
		t.Fatalf("splits registered %d live tasks, want %d", live, 3+splitWant)
	}
}

func TestSplitAllExhausted(t *testing.T) {
	e := newShedEngine(t, OrderNone)
	stack := []NodeGenerator[int]{NewSliceGen[int](nil)}
	if ts, _ := split(e, stack, 0, 1); ts != nil {
		t.Fatalf("split of empty stack handed %v", ts)
	}
	if live := e.fab.net.Live(); live != 0 {
		t.Fatalf("empty split registered %d live tasks", live)
	}
}

// A raised hungry word makes a running worker shed at its next step, from
// its lowest live level onto its own shard: one node, or under Chunked the
// level up to splitWant. The word goes down. With it down, nothing is shed.
func TestHungryWordMakesARunningWorkerShed(t *testing.T) {
	wide := splitWant + 5
	gf := func(_ int, n int) NodeGenerator[int] {
		if n != 0 {
			return EmptyGen[int]{}
		}
		kids := make([]int, wide)
		for i := range kids {
			kids[i] = i + 1
		}
		return NewSliceGen(kids)
	}
	for _, tc := range []struct {
		name           string
		raise, chunked bool
		want           int
	}{{"down", false, false, 0}, {"raised", true, false, 1}, {"raised/chunked", true, true, splitWant}} {
		t.Run(tc.name, func(t *testing.T) {
			e := newShedEngine(t, OrderNone)
			e.cfg.Chunked = tc.chunked
			c := e.workers[0]
			c.gens.gf = gf
			hungry := &c.loc.hungry.V
			c.visitor.(*hookVisitor).hook = func() {
				if c.stats.Nodes == 1 && tc.raise { // as the walk visits the root's first child
					hungry.Store(1)
				}
			}
			e.shedWalk(c, &Task[int]{Node: 0, Depth: 3}, hungry)
			shed := drain(c)
			if len(shed) != tc.want || hungry.Load() != 0 {
				t.Fatalf("shed %d nodes, word at %d; want %d, word down", len(shed), hungry.Load(), tc.want)
			}
			for i, st := range shed {
				if st.Node != 2+i || st.Depth != 4 {
					t.Fatalf("shed %+v, want the root's children from its second on, at depth 4", shed)
				}
			}
			if live, nodes := e.fab.net.Live(), c.stats.Nodes; live != int64(tc.want) || nodes != int64(wide-tc.want) {
				t.Fatalf("%d live registrations and %d nodes walked, want %d and %d", live, nodes, tc.want, wide-tc.want)
			}
		})
	}
}

// shed is one operation under both rules: what (spawn-budget) pushes on
// the worker's own pool is exactly what a chunked feed of the same live
// stack pushes, when the level is narrower than splitWant — the same
// nodes with the same depths and priorities, the same yield counters left
// behind, the same number of live registrations.
func TestBudgetShedEqualsChunkedFeed(t *testing.T) {
	for _, order := range []Order{OrderNone, OrderDiscrepancy} {
		// mid-walk: level 0 exhausted, level 1 part-consumed at
		// discrepancy 2, level 2 untouched
		liveAt := func() []level[int] {
			l1 := NewSliceGen([]int{10, 11, 12, 13})
			l1.Next()
			return []level[int]{
				{gen: NewSliceGen[int](nil), disc: 0, yields: 3},
				{gen: l1, disc: 2, yields: 1},
				{gen: NewSliceGen([]int{20, 21}), disc: 3, yields: 0},
			}
		}
		task := Task[int]{Depth: 4, Prio: 1}

		eb, sb := newShedEngine(t, order), liveAt()
		eb.shed(eb.workers[0], &task, sb, math.MaxInt)
		pushed := drain(eb.workers[0])

		es, ss := newShedEngine(t, order), liveAt()
		es.cfg.Chunked = true
		es.workers[0].loc.hungry.V.Store(1)
		es.feed(es.workers[0], &task, ss)
		handed := drain(es.workers[0])

		if !reflect.DeepEqual(pushed, handed) {
			t.Errorf("order %v: budget shed %+v, feed shed %+v", order, pushed, handed)
		}
		if len(handed) != 3 || handed[0].Node != 11 || handed[0].Depth != 4+1+1 {
			t.Errorf("order %v: shed %+v, want the three remaining nodes of level 1 at depth 6", order, handed)
		}
		for i := range ss {
			if want := []int32{3, 4, 0}[i]; sb[i].yields != want || ss[i].yields != want {
				t.Errorf("order %v: level %d yielded %d (budget) and %d (feed), want %d in both", order, i, sb[i].yields, ss[i].yields, want)
			}
		}
		if lb, ls := eb.fab.net.Live(), es.fab.net.Live(); lb != ls || ls != 3 {
			t.Errorf("order %v: %d (budget) and %d (feed) live registrations, want 3 and 3", order, lb, ls)
		}
		if b, s := eb.workers[0].stats, es.workers[0].stats; b != s {
			t.Errorf("order %v: worker counters differ: budget %+v, feed %+v", order, b, s)
		}
	}
}
