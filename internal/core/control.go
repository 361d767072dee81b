package core

import (
	"sync"
	"sync/atomic"

	"yewpar/internal/pad"
)

// canceller implements the global short-circuit of the (shortcircuit)
// rule: a decision search that reaches the greatest element cancels all
// outstanding work. When a broadcast hook is wired (fabric.start), a
// locally originated cancel also reaches every peer locality; cancels
// received FROM a peer latch without re-broadcasting (cancelQuiet).
// Every worker reads flag once per node, so the canceller is allocated
// isolated: a neighbour written per node would turn that read into a
// cache miss.
type canceller struct {
	flag  atomic.Bool
	ch    chan struct{}
	once  sync.Once
	bcast func()
}

func newCanceller() *canceller {
	c := pad.New[canceller]()
	c.ch = make(chan struct{})
	return c
}

func (c *canceller) cancel() {
	first := false
	c.once.Do(func() {
		c.flag.Store(true)
		close(c.ch)
		first = true
	})
	// Broadcast outside the Once: a loopback peer's OnCancel calls
	// cancelQuiet on this same canceller synchronously, which would
	// deadlock inside Do.
	if first && c.bcast != nil {
		c.bcast()
	}
}

// cancelQuiet latches the cancellation without notifying peers.
func (c *canceller) cancelQuiet() {
	c.once.Do(func() {
		c.flag.Store(true)
		close(c.ch)
	})
}

func (c *canceller) cancelled() bool { return c.flag.Load() }

// tracker counts live tasks for distributed termination detection: a
// task is registered (add) before it becomes visible to any worker and
// deregistered (finish) after it has completed, including spawning its
// children. The done channel closes exactly when the last task
// finishes, which is sound because children are always added before
// their parent finishes, so the count cannot touch zero early. The
// count is shared by design — every worker updates it per task — so
// the tracker is allocated isolated.
type tracker struct {
	live atomic.Int64
	done chan struct{}
	once sync.Once
}

func newTracker() *tracker {
	t := pad.New[tracker]()
	t.done = make(chan struct{})
	return t
}

func (t *tracker) add(n int64) { t.live.Add(n) }

func (t *tracker) finish() {
	if t.live.Add(-1) == 0 {
		t.once.Do(func() { close(t.done) })
	}
}

func (t *tracker) quiescent() bool {
	select {
	case <-t.done:
		return true
	default:
		return false
	}
}
