package core

import (
	"runtime"
	"sync"
	"time"
)

// engine is one search as its workers run it: the fabric (the
// process-wide state and the localities, each whole before any worker
// exists), the worker contexts, the priority assigner of the ordered
// scheduling modes, and the coordination itself, as a spawn rule
// (walk.go).
type engine[S, N any] struct {
	cfg     Config
	workers []*workerCtx[S, N]
	cancel  *canceller // the fabric's: read once per node
	fab     *fabric[N]
	prio    *prioAssigner[S, N] // task priorities (Config.Order)
	rule    spawnRule           // what the coordination adds to sequential search
	// taskHook, set only by tests, hears +1 as a worker starts a task
	// and -1 as it finishes one.
	taskHook func(delta int)
}

func newEngine[S, N any](rule spawnRule, cfg Config, ws []*workerCtx[S, N], fab *fabric[N], prio *prioAssigner[S, N]) *engine[S, N] {
	return &engine[S, N]{rule: rule, cfg: cfg, workers: ws, cancel: fab.cancel, fab: fab, prio: prio}
}

// finishTask completes one task. Every task a worker obtains is finished
// exactly once, after any children it sheds are registered. Its fold is
// committed and its supervision family drained at once — the last drain acks the
// hand-over's origin — but the live count hears later: the worker counts
// its finishes on its own context, and thief.settle takes them off in
// one AddTasks the moment its own shard comes up empty — before it robs
// a sibling, touches the transport or parks — and when it exits.
//
// The accounting invariant: a registration (the root, a run of shed
// tasks, an adopted steal) reaches AddTasks before the work it covers is
// visible to anyone, and is never deferred; a completion is only ever
// late. So the count a termination detector sees is never below the
// number of unfinished tasks: it reaches zero one settle after the last
// task finished, never before. A worker with unsettled finishes is
// running its own shard's work or about to settle, so no detector waits
// on a count nobody will lower.
func (e *engine[S, N]) finishTask(c *workerCtx[S, N], t Task[N]) {
	if e.taskHook != nil {
		e.taskHook(-1)
	}
	c.finished++
	if e.fab.tally != nil {
		e.fab.tally.close(c.visitor, t.fam)
	}
	c.loc.famDone(t.fam)
}

// runPoolWorkers seeds the root task (on the locality that owns the
// root) and runs one worker per context, each executing runTask on
// every task it obtains, until global termination or cancellation.
func (e *engine[S, N]) runPoolWorkers(root N) {
	// Calibrate the memory governors' per-task byte estimate from the
	// root node, and guarantee their spill directories are removed on
	// every exit path — normal termination, cancellation, and a killed
	// rank whose workers drain here once its transport is closed.
	for _, l := range e.fab.locs {
		l.mem.calibrate(root)
		defer l.mem.close()
	}
	home := e.fab.home
	if home.rank == 0 {
		home.tr.AddTasks(1)
		home.pool.Push(Task[N]{Node: root, Depth: 0})
	}
	done := home.tr.Done()
	// A death heard once the workers have stopped is only recorded
	// (locality.OnDeath): after Done no ledger holds an entry to replay.
	defer func() {
		e.fab.life.Lock()
		e.fab.stopped = true
		e.fab.life.Unlock()
	}()

	// Idle pacing: a worker that finds nothing yields a few rounds
	// (steal response stays far below task granularity while work is
	// flowing), then parks on its locality's parker with an
	// exponentially growing timeout. Parked workers cost nothing; the
	// next local push or adopted task wakes one, and the timeout
	// re-probes remote peers that cannot notify us. Over a
	// wire transport each failed steal round already costs network
	// round trips, so parking starts longer to spare the coordinator.
	parkBase := 20 * time.Microsecond
	if e.fab.wire {
		parkBase = 500 * time.Microsecond
	}

	if len(e.workers) == 0 {
		// Pure coordinator (a standby deployment's rank 0): no local
		// workers, but the transport keeps serving steals against the
		// seeded root, and deaths are heard until global termination —
		// the ledger's replays are what make this rank's hand-over
		// survivable.
		select {
		case <-done:
		case <-e.cancel.ch:
		}
		return
	}

	var wg sync.WaitGroup
	for _, c := range e.workers {
		wg.Add(1)
		go func(c *workerCtx[S, N]) {
			defer wg.Done()
			defer c.settle()
			stillIdle := func() bool { return c.loc.backlog() == 0 }
			timer := newParkTimer()
			defer timer.Stop()
			idle := 0
			for {
				if e.cancel.cancelled() {
					return
				}
				t, ok := c.loc.popOrSteal(&c.thief)
				if ok {
					idle = 0
					e.runTask(c, t)
					continue
				}
				select {
				case <-done:
					return
				case <-e.cancel.ch:
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
				c.loc.park.park(timer, parkBase<<uint(backoff), done, e.cancel.ch, stillIdle)
			}
		}(c)
	}
	wg.Wait()
}
