package core

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"yewpar/internal/pad"
)

// stealReq is a thief's request for work. The victim replies exactly
// once on resp with a (possibly empty) batch of tasks; resp is buffered
// so victims never block.
type stealReq[N any] struct {
	resp chan []Task[N]
}

// ssWorker is one Stack-Stealing worker's communication endpoint: the
// one piece of per-worker state other workers touch (thieves send on
// reqs and read serving), so each is isolated rather than part of the
// worker's private context.
type ssWorker[N any] struct {
	reqs    chan stealReq[N]
	serving atomic.Bool // true while running a search (has a stack to split)
}

// ssState is the shared state of one Stack-Stealing run.
type ssState[S, N any] struct {
	cfg     Config
	tr      *tracker
	cancel  *canceller
	workers []*workerCtx[S, N]
	ws      []pad.Isolated[ssWorker[N]]
}

// loc is the simulated locality of worker w.
func (st *ssState[S, N]) loc(w int) int { return w % st.cfg.Localities }

// runStackStealing is the Stack-Stealing coordination of Listing 3,
// implementing the (spawn-stack) rule: work is split only on demand,
// when an idle thief asks a victim, which scans its generator stack
// bottom-up and hands over the first unexplored node (or all nodes at
// that lowest depth when Chunked). Thieves steal directly from victims
// over channels — there is no workpool; the response channel plays the
// transit-buffer role the semantics gives the task queue. Initial work
// is pushed: the root's children are distributed round-robin.
func runStackStealing[S, N any](cfg Config, workers []*workerCtx[S, N], cancel *canceller, root N) {
	st := &ssState[S, N]{
		cfg:     cfg,
		tr:      newTracker(),
		cancel:  cancel,
		workers: workers,
		ws:      make([]pad.Isolated[ssWorker[N]], cfg.Workers),
	}
	for i := range st.ws {
		st.ws[i].V.reqs = make(chan stealReq[N], cfg.Workers)
	}

	// Visit the root on the coordinator, then work-push its children.
	c0 := workers[0]
	initial := make([][]Task[N], cfg.Workers)
	count := 0
	if c0.visitor.visit(root) == descend && !cancel.cancelled() {
		g := c0.gens.gf(c0.gens.space, root)
		for g.HasNext() {
			child := g.Next()
			st.tr.add(1)
			c0.stats.Spawns++
			initial[count%cfg.Workers] = append(initial[count%cfg.Workers], Task[N]{Node: child, Depth: 1})
			count++
		}
	}
	if count == 0 {
		return
	}

	var wg sync.WaitGroup
	for w, c := range workers {
		wg.Add(1)
		go func(c *workerCtx[S, N], initial []Task[N]) {
			defer wg.Done()
			me := &st.ws[c.id].V
			for _, t := range initial {
				st.search(c, me, t)
			}
			st.stealLoop(c, me)
			st.drainRequests(me)
		}(c, initial[w])
	}
	wg.Wait()
}

// stealLoop is the thief side: pick a random serving victim (local
// locality preferred, remote charged StealLatency), send a request,
// and run whatever comes back. While waiting, keep answering our own
// incoming requests with "no work" so thieves never deadlock on each
// other.
func (st *ssState[S, N]) stealLoop(c *workerCtx[S, N], me *ssWorker[N]) {
	sh := &c.stats
	idle := 0
	for {
		st.drainRequests(me)
		if st.cancel.cancelled() || st.tr.quiescent() {
			return
		}
		victim := st.pickVictim(c.id, c.rand())
		if victim < 0 {
			idle++
			st.backoff(idle)
			continue
		}
		req := stealReq[N]{resp: make(chan []Task[N], 1)}
		select {
		case st.ws[victim].V.reqs <- req:
		default:
			idle++
			st.backoff(idle)
			continue
		}
		waiting := true
		for waiting {
			select {
			case ts := <-req.resp:
				waiting = false
				if len(ts) == 0 {
					sh.StealsFail++
					idle++
					st.backoff(idle)
					break
				}
				sh.StealsOK++
				idle = 0
				for _, t := range ts {
					st.search(c, me, t)
				}
			case <-st.tr.done:
				// Tasks can never be stranded in req.resp here: a
				// victim registers handed-over tasks with the tracker
				// before replying, so live work keeps done open.
				return
			case <-st.cancel.ch:
				return
			case other := <-me.reqs:
				other.resp <- nil
			}
		}
	}
}

func (st *ssState[S, N]) backoff(idle int) {
	if idle > 16 {
		time.Sleep(20 * time.Microsecond)
	} else {
		runtime.Gosched()
	}
}

// pickVictim chooses a random victim that is currently serving,
// preferring the thief's own locality; remote picks are charged the
// simulated steal latency.
func (st *ssState[S, N]) pickVictim(w int, r *rand.Rand) int {
	var locals, remotes []int
	for i := range st.ws {
		if i == w || !st.ws[i].V.serving.Load() {
			continue
		}
		if st.loc(i) == st.loc(w) {
			locals = append(locals, i)
		} else {
			remotes = append(remotes, i)
		}
	}
	if len(locals) > 0 {
		return locals[r.Intn(len(locals))]
	}
	if len(remotes) > 0 {
		if st.cfg.StealLatency > 0 {
			time.Sleep(st.cfg.StealLatency)
		}
		return remotes[r.Intn(len(remotes))]
	}
	return -1
}

// search is the victim side (Listing 3): a sequential backtracking
// search that polls for steal requests on every expansion step.
func (st *ssState[S, N]) search(c *workerCtx[S, N], me *ssWorker[N], t Task[N]) {
	if tr := st.cfg.Trace; tr != nil {
		start := time.Now()
		defer func() { tr.record(c.id, t.Depth, start, time.Now()) }()
	}
	defer st.tr.finish()
	me.serving.Store(true)
	defer me.serving.Store(false)
	if st.cancel.cancelled() {
		return
	}
	v, sh, gc := c.visitor, &c.stats, &c.gens
	if v.visit(t.Node) != descend {
		return
	}
	// Generators are recycled per stack level; split() drains node
	// values out of them, so handed-over work never aliases the cache.
	stack := make([]NodeGenerator[N], 0, 32)
	stack = append(stack, gc.gen(0, t.Node))
	for len(stack) > 0 {
		if st.cancel.cancelled() {
			return
		}
		select {
		case req := <-me.reqs:
			req.resp <- st.split(stack, t.Depth, sh)
		default:
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
			stack = append(stack, gc.gen(len(stack), child))
		case pruneLevel:
			stack[len(stack)-1] = nil
			stack = stack[:len(stack)-1]
			sh.Backtracks++
		}
	}
}

// split scans the generator stack bottom-up — nodes closest to the
// root first — and hands over the first unexplored node, or the whole
// remaining lowest generator when Chunked. Handed-over tasks are
// registered with the tracker before they leave the victim.
func (st *ssState[S, N]) split(stack []NodeGenerator[N], rootDepth int, sh *WorkerStats) []Task[N] {
	for i, g := range stack {
		if !g.HasNext() {
			continue
		}
		var ts []Task[N]
		if st.cfg.Chunked {
			for g.HasNext() {
				ts = append(ts, Task[N]{Node: g.Next(), Depth: rootDepth + i + 1})
			}
		} else {
			ts = append(ts, Task[N]{Node: g.Next(), Depth: rootDepth + i + 1})
		}
		st.tr.add(int64(len(ts)))
		sh.Spawns += int64(len(ts))
		return ts
	}
	return nil
}

// drainRequests answers all pending steal requests with "no work".
func (st *ssState[S, N]) drainRequests(me *ssWorker[N]) {
	for {
		select {
		case req := <-me.reqs:
			req.resp <- nil
		default:
			return
		}
	}
}
