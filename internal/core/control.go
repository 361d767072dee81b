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
