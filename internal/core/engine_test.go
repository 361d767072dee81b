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

// newTestEngine builds an engine over a started loopback fabric.
func newTestEngine(cfg Config, rule spawnRule, gf GenFactory[struct{}, int], hook func(), cancel *canceller) (*engine[struct{}, int], *fabric[int]) {
	fab := newLoopbackFabric[int](cfg)
	ws := newWorkers(struct{}{}, gf, cfg, func(_ int, sh *WorkerStats) visitor[int] {
		return &hookVisitor{shard: sh, hook: hook}
	})
	e := newEngine(rule, cfg, ws, cancel, fab, newPrioAssigner[struct{}, int](cfg.Order, struct{}{}, 0, nil))
	fab.start(cancel)
	return e, fab
}

func TestRunPoolWorkersExecutesAllSpawns(t *testing.T) {
	cfg := Config{Workers: 4, Trace: NewTrace(4)}.withDefaults()
	// a two-level tree of tasks: root 1, then 10..12, then 100..122
	e, fab := newTestEngine(cfg, spawnRule{depth: 2}, fanoutGen(3, 100), nil, newCanceller())
	e.runPoolWorkers(1)
	// 1 root + 3 + 9 = 13 tasks
	if n := cfg.Trace.Summary().Tasks; n != 13 {
		t.Fatalf("executed %d tasks, want 13", n)
	}
	if st := totalStats(e.workers); st.Spawns != 12 || st.Nodes != 13 {
		t.Fatalf("spawned %d tasks and visited %d nodes, want 12 and 13", st.Spawns, st.Nodes)
	}
	select {
	case <-fab.trs[0].Done():
	default:
		t.Fatal("live-task count not quiescent after join")
	}
}

func TestRunPoolWorkersCancelStopsEarly(t *testing.T) {
	cfg := Config{Workers: 4}.withDefaults()
	cancel := newCanceller()
	var visits atomic.Int64
	hook := func() {
		if visits.Add(1) == 5 {
			cancel.cancel() // simulate a decision witness
		}
	}
	// endless task fan-out: only cancellation can stop this
	e, _ := newTestEngine(cfg, spawnRule{depth: math.MaxInt}, fanoutGen(2, math.MaxInt), hook, cancel)
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

// testThief is worker w's steal state as newWorkers would build it.
func testThief(w int, cfg Config) *thief {
	return &newWorkers(struct{}{}, nil, Config{Workers: w + 1, Seed: cfg.Seed},
		func(int, *WorkerStats) visitor[int] { return nil })[w].thief
}

// newTestTopology builds a topology over a started loopback fabric.
func newTestTopology(cfg Config) *topology[int] {
	fab := newLoopbackFabric[int](cfg)
	tp := newTopology(fab, cfg)
	fab.start(newCanceller())
	return tp
}

func TestTopologyLocalFirst(t *testing.T) {
	cfg := Config{Workers: 4, Localities: 2, Seed: 9}.withDefaults()
	tp := newTestTopology(cfg)
	th := testThief(0, cfg)
	sh := &th.stats
	// worker 0 is locality 0; push one task in each pool
	tp.pools[0].Push(Task[int]{Node: 100})
	tp.pools[1].Push(Task[int]{Node: 200})
	task, ok := tp.popOrSteal(th)
	if !ok || task.Node != 100 {
		t.Fatalf("worker 0 took %d, want its local task 100", task.Node)
	}
	if sh.StealsOK != 0 {
		t.Fatal("local pop counted as a steal")
	}
	// local pool now empty: next take must be a remote steal through
	// the loopback transport
	task, ok = tp.popOrSteal(th)
	if !ok || task.Node != 200 {
		t.Fatalf("worker 0 stole %d, want remote task 200", task.Node)
	}
	if sh.StealsOK != 1 {
		t.Fatalf("remote steal not recorded: %+v", sh)
	}
}

func TestTopologyEmptyEverywhere(t *testing.T) {
	cfg := Config{Workers: 2, Localities: 2}.withDefaults()
	tp := newTestTopology(cfg)
	th := testThief(0, cfg)
	sh := &th.stats
	if _, ok := tp.popOrSteal(th); ok {
		t.Fatal("popOrSteal invented a task")
	}
	if sh.StealsFail == 0 {
		t.Fatal("failed remote probe not recorded")
	}
}

func TestTopologyWorkerAssignment(t *testing.T) {
	cfg := Config{Workers: 5, Localities: 2}.withDefaults()
	tp := newTestTopology(cfg)
	want := []int{0, 1, 0, 1, 0}
	for w, loc := range want {
		if tp.locality(w) != loc {
			t.Fatalf("worker %d at locality %d, want %d", w, tp.locality(w), loc)
		}
	}
}
