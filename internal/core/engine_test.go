package core

import (
	"math"
	"sync/atomic"
	"testing"
	"time"
)

// hookVisitor descends everywhere, counting on the worker's own
// counters and calling hook (when set) on every visit.
type hookVisitor struct {
	shard *WorkerStats
	hook  func()
}

func (v *hookVisitor) visit(int) pruneAction {
	v.shard.Nodes++
	if v.hook != nil {
		v.hook()
	}
	return descend
}

func (v *hookVisitor) prunes(int) pruneAction { return descend }

// fanoutGen gives every node below limit fanout children (n*10+i), and
// the rest none: an int tree whose node value encodes its depth.
func fanoutGen(fanout, limit int) GenFactory[struct{}, int] {
	return func(_ struct{}, n int) NodeGenerator[int] {
		if n >= limit {
			return EmptyGen[int]{}
		}
		kids := make([]int, fanout)
		for i := range kids {
			kids[i] = n*10 + i
		}
		return NewSliceGen(kids)
	}
}

// newTestEngine builds an engine over a started loopback fabric; hook,
// when set, is called on every visit with the fabric's canceller.
func newTestEngine(cfg Config, rule spawnRule, gf GenFactory[struct{}, int], hook func(*canceller)) (*engine[struct{}, int], *fabric[int]) {
	fab := newFabric[int](nil, nil, rule, cfg)
	ws := newWorkers(struct{}{}, gf, cfg, fab.locs, func(th *thief[int]) visitor[int] {
		v := &hookVisitor{shard: &th.stats}
		if hook != nil {
			v.hook = func() { hook(fab.cancel) }
		}
		return v
	})
	e := newEngine(rule, cfg, ws, fab, newPrioAssigner[struct{}, int](cfg.Order, struct{}{}, 0, nil))
	fab.start()
	return e, fab
}

func TestRunPoolWorkersExecutesAllSpawns(t *testing.T) {
	cfg := Config{Workers: 4, Trace: NewTrace(4)}.withDefaults()
	// a two-level tree of tasks: root 1, then 10..12, then 100..122
	e, fab := newTestEngine(cfg, spawnRule{depth: 2}, fanoutGen(3, 100), nil)
	e.runPoolWorkers(1)
	// 1 root + 3 + 9 = 13 tasks
	if n := cfg.Trace.Summary().Tasks; n != 13 {
		t.Fatalf("executed %d tasks, want 13", n)
	}
	if st := totalStats(e.workers); st.Spawns != 12 || st.Nodes != 13 {
		t.Fatalf("spawned %d tasks and visited %d nodes, want 12 and 13", st.Spawns, st.Nodes)
	}
	select {
	case <-fab.home.tr.Done():
	default:
		t.Fatal("live-task count not quiescent after join")
	}
	if err := fab.home.quiescent(); err != nil {
		t.Fatal(err)
	}
}

func TestRunPoolWorkersCancelStopsEarly(t *testing.T) {
	cfg := Config{Workers: 4}.withDefaults()
	var visits atomic.Int64
	hook := func(cancel *canceller) {
		if visits.Add(1) == 5 {
			cancel.cancel() // simulate a decision witness
		}
	}
	// endless task fan-out: only cancellation can stop this
	e, _ := newTestEngine(cfg, spawnRule{depth: math.MaxInt}, fanoutGen(2, math.MaxInt), hook)
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.runPoolWorkers(1)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation did not stop the workers")
	}
}

// testWorkers builds the workers of a started loopback fabric for cfg,
// with no visitor: what the locality-level tests steal through.
func testWorkers[N any](cfg Config) (*fabric[N], []*workerCtx[struct{}, N]) {
	fab := newFabric[N](nil, nil, spawnRule{}, cfg)
	ws := newWorkers[struct{}, N](struct{}{}, nil, cfg, fab.locs, func(*thief[N]) visitor[N] { return nil })
	fab.start()
	return fab, ws
}

func TestTopologyLocalFirst(t *testing.T) {
	cfg := Config{Workers: 4, Localities: 2, Seed: 9}.withDefaults()
	fab, ws := testWorkers[int](cfg)
	defer fab.close()
	th := &ws[0].thief
	sh := &th.stats
	// worker 0 is locality 0; push one task in each pool
	fab.locs[0].pool.Push(Task[int]{Node: 100})
	fab.locs[1].pool.Push(Task[int]{Node: 200})
	task, ok := th.loc.popOrSteal(th)
	if !ok || task.Node != 100 {
		t.Fatalf("worker 0 took %d, want its local task 100", task.Node)
	}
	if sh.StealsOK != 0 {
		t.Fatal("local pop counted as a steal")
	}
	// local pool now empty: next take must be a remote steal through
	// the loopback transport
	task, ok = th.loc.popOrSteal(th)
	if !ok || task.Node != 200 {
		t.Fatalf("worker 0 stole %d, want remote task 200", task.Node)
	}
	if sh.StealsOK != 1 {
		t.Fatalf("remote steal not recorded: %+v", sh)
	}
}

func TestTopologyEmptyEverywhere(t *testing.T) {
	cfg := Config{Workers: 2, Localities: 2}.withDefaults()
	fab, ws := testWorkers[int](cfg)
	defer fab.close()
	th := &ws[0].thief
	if _, ok := th.loc.popOrSteal(th); ok {
		t.Fatal("popOrSteal invented a task")
	}
	if th.stats.StealsFail == 0 {
		t.Fatal("failed remote probe not recorded")
	}
}

func TestTopologyWorkerAssignment(t *testing.T) {
	cfg := Config{Workers: 5, Localities: 2}.withDefaults()
	fab, ws := testWorkers[int](cfg)
	defer fab.close()
	want := []int{0, 1, 0, 1, 0}
	for w, loc := range want {
		if ws[w].loc != fab.locs[loc] {
			t.Fatalf("worker %d at locality %d, want %d", w, ws[w].loc.rank, loc)
		}
	}
}
