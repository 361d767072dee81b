package core

import (
	"sync"
	"sync/atomic"
	"time"

	"yewpar/internal/pad"
)

// This file is the thief's side of the Stack-Stealing coordination
// (Listing 3, the (spawn-stack) rule), served on demand through the
// locality fabric: no task is spawned proactively; an idle worker first
// drains its locality's pool, then asks a local running sibling to
// split, and finally sends a kSplit over the transport, which the
// victim locality answers by splitting the bottom of one of its
// workers' live generator stacks (shedWalk and shed, in walk.go) and
// exporting the node(s) through the ordinary hand-over (ledger + codec)
// path. One implementation serves loopback and TCP deployments,
// and gives memory-starved localities a way to pull work that was never
// materialised as tasks.

const (
	// splitServeWait bounds how long a transport-serving goroutine
	// waits for a running worker to answer a remote kSplit. Workers
	// poll their gate every expansion step, so the wait only runs out
	// when the locality went idle after the request was posted.
	splitServeWait = 10 * time.Millisecond
	// splitLocalWait bounds an idle worker's wait on its own locality's
	// gate before falling through to the transport ring.
	splitLocalWait = 2 * time.Millisecond
	// splitWant is the default cap on tasks per split hand-over; the
	// victim donates one node unless Chunked, which donates the whole
	// lowest stack level up to this cap.
	splitWant = 64
)

// splitGate is one locality's rendezvous between work-starved thieves
// and its running workers' live generator stacks. Thieves post
// requests; every running worker polls the gate once per expansion
// step (one atomic load when idle) and the first to claim a request —
// a CAS, so a timed-out requester can abandon it instead — answers
// with the split of its own stack.
type splitGate[N any] struct {
	mu   sync.Mutex
	reqs []*splitReq[N]
	// Shared by design, so each alone on its line: pending is read by
	// every running worker once per expansion step, active is bumped by
	// every worker once per task — together, the per-task writes would
	// evict the per-node read.
	pending pad.Isolated[atomic.Int64] // len(reqs): the workers' poll fast path
	active  pad.Isolated[atomic.Int64] // workers currently running a task
}

type splitReq[N any] struct {
	max     int
	claimed atomic.Bool
	resp    chan []Task[N] // buffered 1; sent exactly once, by the claimant
}

// splittable reports whether any worker currently holds a live stack.
func (g *splitGate[N]) splittable() bool { return g.active.V.Load() > 0 }

// request posts a split request and waits for a running worker to
// answer. Returns nil when the locality has no running workers, no
// worker answered within wait, or abort fired first. The returned
// tasks are registered live work owned by the caller.
func (g *splitGate[N]) request(max int, wait time.Duration, abort <-chan struct{}) []Task[N] {
	if g.active.V.Load() == 0 {
		return nil
	}
	req := &splitReq[N]{max: max, resp: make(chan []Task[N], 1)}
	g.mu.Lock()
	g.reqs = append(g.reqs, req)
	g.pending.V.Store(int64(len(g.reqs)))
	g.mu.Unlock()
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case ts := <-req.resp:
		return ts
	case <-timer.C:
	case <-abort:
	}
	if req.claimed.CompareAndSwap(false, true) {
		return nil // abandoned before any worker claimed it
	}
	// A worker won the claim race; its answer is imminent and carries
	// registered tasks that must not be dropped.
	return <-req.resp
}

// take claims one pending request, skipping abandoned ones. Callers
// that get a request MUST send on its resp channel exactly once.
func (g *splitGate[N]) take() *splitReq[N] {
	if g.pending.V.Load() == 0 {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for len(g.reqs) > 0 {
		req := g.reqs[0]
		g.reqs = g.reqs[1:]
		g.pending.V.Store(int64(len(g.reqs)))
		if req.claimed.CompareAndSwap(false, true) {
			return req
		}
	}
	return nil
}

// enter and exit bracket a worker running a task. The last worker out
// answers every pending request with nothing, so thieves are not left
// waiting out their timeout against a locality that just went idle.
func (g *splitGate[N]) enter() { g.active.V.Add(1) }

func (g *splitGate[N]) exit() {
	if g.active.V.Add(-1) > 0 {
		return
	}
	for {
		req := g.take()
		if req == nil {
			return
		}
		req.resp <- nil
	}
}
