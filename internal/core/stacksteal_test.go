package core

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"time"
)

// newShedEngine builds a one-locality engine over int nodes, enough for
// shed: a fabric to register donated tasks with, a worker context to
// count them on, and a priority assigner for the given order.
func newShedEngine(t *testing.T, order Order) *engine[int, int] {
	t.Helper()
	cfg := Config{Workers: 2, Seed: 1, Order: order}.withDefaults()
	rule := spawnRule{split: true}
	fab := newFabric[int](nil, nil, rule, cfg)
	t.Cleanup(fab.close)
	ws := newWorkers[int, int](0, nil, cfg, fab.locs, func(th *thief[int]) visitor[int] { return &hookVisitor{shard: &th.stats} })
	return newEngine(rule, cfg, ws, fab, newPrioAssigner[int, int](cfg.Order, 0, 0, nil))
}

// split runs shed the way a claimed split request does, for worker 0
// running a task rooted at rootDepth, with fresh per-level discrepancy
// and yield counters.
func split(e *engine[int, int], gens []NodeGenerator[int], rootDepth, max int) (ts []Task[int], yields []int32) {
	task := Task[int]{Depth: rootDepth}
	stack := make([]level[int], len(gens))
	for i, g := range gens {
		stack[i].gen = g
	}
	e.shed(e.workers[0], &task, stack, max, func(run []Task[int]) { ts = append(ts, run...) })
	for _, lv := range stack {
		yields = append(yields, lv.yields)
	}
	return ts, yields
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

// shed is one operation under both rules: what (spawn-budget) pushes on
// the worker's own pool is exactly what an uncapped chunked split of
// the same live stack hands its thief — the same nodes with the same
// depths and priorities, the same yield counters left behind, the same
// number of live registrations.
func TestBudgetShedEqualsUncappedChunkedSplit(t *testing.T) {
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
		eb.shedToPool(eb.workers[0], &task, sb)
		var pushed []Task[int]
		for nt, ok := eb.workers[0].shard.Pop(); ok; nt, ok = eb.workers[0].shard.Pop() {
			pushed = append(pushed, nt)
		}
		// the pool's pop order is its own business; node order is traversal order
		sort.Slice(pushed, func(i, j int) bool { return pushed[i].Node < pushed[j].Node })

		es, ss := newShedEngine(t, order), liveAt()
		var handed []Task[int]
		es.shed(es.workers[0], &task, ss, math.MaxInt, func(run []Task[int]) { handed = append(handed, run...) })

		if !reflect.DeepEqual(pushed, handed) {
			t.Errorf("order %v: budget shed %+v, split handed %+v", order, pushed, handed)
		}
		if len(handed) != 3 || handed[0].Node != 11 || handed[0].Depth != 4+1+1 {
			t.Errorf("order %v: shed %+v, want the three remaining nodes of level 1 at depth 6", order, handed)
		}
		for i := range ss {
			if want := []int32{3, 4, 0}[i]; sb[i].yields != want || ss[i].yields != want {
				t.Errorf("order %v: level %d yielded %d (budget) and %d (split), want %d in both", order, i, sb[i].yields, ss[i].yields, want)
			}
		}
		if lb, ls := eb.fab.net.Live(), es.fab.net.Live(); lb != ls || ls != 3 {
			t.Errorf("order %v: %d (budget) and %d (split) live registrations, want 3 and 3", order, lb, ls)
		}
		if b, s := eb.workers[0].stats, es.workers[0].stats; b != s {
			t.Errorf("order %v: worker counters differ: budget %+v, split %+v", order, b, s)
		}
	}
}

// requestAsync posts a split request from its own goroutine, as an
// idle worker or a transport-serving goroutine would.
func requestAsync(g *splitGate[int], wait time.Duration) <-chan []Task[int] {
	out := make(chan []Task[int], 1)
	go func() { out <- g.request(1, wait, nil) }()
	return out
}

// takeSoon polls the gate the way a running worker does, until a
// posted request can be claimed.
func takeSoon(t *testing.T, g *splitGate[int]) *splitReq[int] {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if req := g.take(); req != nil {
			return req
		}
		time.Sleep(50 * time.Microsecond)
	}
	t.Fatal("posted split request never became claimable")
	return nil
}

func TestSplitGateIdleLocalityRefusesAtOnce(t *testing.T) {
	g := &splitGate[int]{}
	if ts := g.request(1, time.Hour, nil); ts != nil {
		t.Fatalf("gate with no running worker answered %v", ts)
	}
}

// A request that times out unclaimed is abandoned: no worker can claim
// it afterwards, so nobody splits (and registers) tasks for a requester
// that has left.
func TestSplitGateAbandonedRequestIsNeverClaimed(t *testing.T) {
	g := &splitGate[int]{}
	g.enter()
	defer g.exit()
	if ts := g.request(1, time.Millisecond, nil); ts != nil {
		t.Fatalf("unanswered request returned %v", ts)
	}
	if req := g.take(); req != nil {
		t.Fatal("a worker claimed a request its requester had abandoned")
	}
	if p := g.pending.V.Load(); p != 0 {
		t.Fatalf("pending = %d after the abandoned request was skipped", p)
	}
}

// A request claimed before its timeout but answered after it must still
// deliver: the answer carries registered tasks, and dropping them would
// leave the live count above zero forever.
func TestSplitGateLateAnswerToClaimedRequestIsDelivered(t *testing.T) {
	g := &splitGate[int]{}
	g.enter()
	defer g.exit()
	// The window must outlast a loaded host's scheduling hiccups: at 2 ms
	// the request timed out unclaimed about once in 300 runs.
	got := requestAsync(g, 50*time.Millisecond)
	req := takeSoon(t, g)
	time.Sleep(150 * time.Millisecond) // well past the requester's timeout
	req.resp <- []Task[int]{{Node: 42, Depth: 3}}
	select {
	case ts := <-got:
		if len(ts) != 1 || ts[0].Node != 42 {
			t.Fatalf("requester got %v, want the claimed split's task", ts)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("requester never returned the late answer")
	}
}

// The last worker out answers every pending request with nil, so
// thieves do not wait out their timeout against an idle locality.
func TestSplitGateLastWorkerOutAnswersPending(t *testing.T) {
	g := &splitGate[int]{}
	g.enter()
	g.enter()
	a, b := requestAsync(g, time.Hour), requestAsync(g, time.Hour)
	deadline := time.Now().Add(5 * time.Second)
	for g.pending.V.Load() != 2 {
		if time.Now().After(deadline) {
			t.Fatal("requests never posted")
		}
		time.Sleep(50 * time.Microsecond)
	}
	g.exit() // one worker still running: requests stay pending
	if p := g.pending.V.Load(); p != 2 {
		t.Fatalf("pending = %d after a non-last exit, want 2", p)
	}
	g.exit()
	for _, ch := range []<-chan []Task[int]{a, b} {
		select {
		case ts := <-ch:
			if ts != nil {
				t.Fatalf("idle locality answered %v, want nil", ts)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("pending request not answered when the locality went idle")
		}
	}
}
