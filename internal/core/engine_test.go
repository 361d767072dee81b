package core

import (
	"sync/atomic"
	"testing"
	"time"
)

// trivialVisitor descends everywhere and counts nothing beyond the
// worker's own counters.
type trivialVisitor struct{ shard *WorkerStats }

func (v *trivialVisitor) visit(int) pruneAction {
	v.shard.Nodes++
	return descend
}

// newTestEngine builds an engine over a started loopback fabric.
func newTestEngine(cfg Config, cancel *canceller) (*engine[struct{}, int], *fabric[int]) {
	gf := func(struct{}, int) NodeGenerator[int] { return EmptyGen[int]{} }
	fab := newLoopbackFabric[int](cfg)
	ws := newWorkers(struct{}{}, gf, cfg, func(_ int, sh *WorkerStats) visitor[int] {
		return &trivialVisitor{shard: sh}
	})
	e := newEngine(cfg, ws, cancel, fab, newPrioAssigner[struct{}, int](cfg.Order, struct{}{}, 0, nil))
	fab.start(cancel)
	return e, fab
}

func TestRunPoolWorkersExecutesAllSpawns(t *testing.T) {
	cfg := Config{Workers: 4}.withDefaults()
	cancel := newCanceller()
	e, fab := newTestEngine(cfg, cancel)

	var executed atomic.Int64
	e.runPoolWorkers(0, func(c *workerCtx[struct{}, int], task Task[int]) {
		defer e.finishTask(c.id, task)
		executed.Add(1)
		// fan out a small two-level tree of tasks
		if task.Depth < 2 {
			for i := 0; i < 3; i++ {
				e.spawnTask(c, Task[int]{Node: task.Node*10 + i, Depth: task.Depth + 1})
			}
		}
	})
	// 1 root + 3 + 9 = 13 tasks
	if executed.Load() != 13 {
		t.Fatalf("executed %d tasks, want 13", executed.Load())
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
	e, _ := newTestEngine(cfg, cancel)

	var executed atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.runPoolWorkers(0, func(c *workerCtx[struct{}, int], task Task[int]) {
			defer e.finishTask(c.id, task)
			if executed.Add(1) == 5 {
				cancel.cancel() // simulate a decision witness
				return
			}
			// endless task fan-out: only cancellation can stop this
			for i := 0; i < 2; i++ {
				e.spawnTask(c, Task[int]{Node: task.Node + 1, Depth: task.Depth + 1})
			}
		})
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
