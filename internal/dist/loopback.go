package dist

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"yewpar/internal/pad"
)

// LoopbackOptions tunes the in-process network.
type LoopbackOptions struct {
	// Fault, if non-nil, injects network faults into the in-process
	// links, and is the only thing that delays one. A link's latency is
	// slept on the thief's goroutine before each steal across it is
	// served, and delays every bound broadcast, cancel and ack over it:
	// peers prune against stale bounds in the meantime. Steals across a
	// severed partition fail like a timed-out wire steal, and the other
	// messages are queued and delivered at Heal. Loopback partitions are
	// payload-plane only — no liveness watchdog runs here, so a
	// partition never kills a rank, which is exactly the contract the
	// session layer gives the wire transports under LinkGrace.
	Fault *FaultPlan
}

// LoopbackNetwork is a set of in-process localities connected by
// direct calls: the Transport implementation backing single-process
// runs, where "localities" are groups of goroutines sharing an address
// space. Fault injection (LoopbackOptions.Fault) makes it a faithful
// stand-in for a real network's latency and partitions in experiments.
// Its localities never die, so it has no half of the fault contract —
// deaths, takeovers and the gather are the TCP endpoint's alone.
type LoopbackNetwork struct {
	opts LoopbackOptions
	trs  []*loopback

	// The live count is shared by design (every rank's workers update
	// it per task) and so sits alone on its line.
	live     pad.Isolated[atomic.Int64]
	done     chan struct{}
	doneOnce sync.Once
}

// NewLoopback creates a connected network of n localities.
func NewLoopback(n int, opts LoopbackOptions) *LoopbackNetwork {
	if n <= 0 {
		panic(fmt.Sprintf("dist: loopback network of %d localities", n))
	}
	net := &LoopbackNetwork{opts: opts, trs: make([]*loopback, n), done: make(chan struct{})}
	for i := range net.trs {
		net.trs[i] = &loopback{net: net, rank: i}
	}
	return net
}

// Transports returns the network's localities, indexed by rank.
func (ln *LoopbackNetwork) Transports() []Transport {
	ts := make([]Transport, len(ln.trs))
	for i, tr := range ln.trs {
		ts[i] = tr
	}
	return ts
}

// Close closes every locality of the network.
func (ln *LoopbackNetwork) Close() error {
	for _, tr := range ln.trs {
		tr.Close()
	}
	return nil
}

// Live reports the global live-task count, every rank's AddTasks summed.
func (ln *LoopbackNetwork) Live() int64 { return ln.live.V.Load() }

func (ln *LoopbackNetwork) addTasks(delta int64) {
	if ln.live.V.Add(delta) == 0 && delta < 0 {
		ln.doneOnce.Do(func() { close(ln.done) })
	}
}

// loopback is one locality's endpoint in a LoopbackNetwork.
type loopback struct {
	net    *LoopbackNetwork
	rank   int
	h      atomic.Value // Handler
	closed atomic.Bool
	ctr    wireCounters
}

var _ Transport = (*loopback)(nil)

// Root is not ok: rank 0 never dies, so nobody takes its role.
func (t *loopback) Root() (int, uint64, bool) { return -1, 0, false }

// Suspected: a peer across a severed loopback partition is
// quarantined — the victim order skips it until the heal.
func (t *loopback) Suspected(rank int) bool {
	return t.net.opts.Fault.Severed(t.rank, rank)
}

// Wire reports logical message counts: the frames a wire
// transport would have sent for the same traffic, and payload bytes
// only — engine runs hand nodes over by reference (no Payload), so
// they report zero bytes, which is the truth of shared memory.
// AddTasks counts no frames: in-process accounting needs none, and over
// TCP no delta leaves its rank either (the wave sums them).
func (t *loopback) Wire() WireStats { return t.ctr.snapshot() }

func (t *loopback) Rank() int { return t.rank }

func (t *loopback) Size() int { return len(t.net.trs) }

func (t *loopback) Start(h Handler) { t.h.Store(h) }

func (t *loopback) handler() Handler {
	if t.closed.Load() {
		return nil
	}
	h, _ := t.h.Load().(Handler)
	return h
}

// BestKnown retains nothing: in-process localities share the incumbent.
func (t *loopback) BestKnown() (int64, []byte, bool) { return 0, nil, false }

// PeerBestPrio asks the victim's handler
// directly: shared memory needs no piggybacked summary, so the loopback
// network's answer is exact where a wire transport's is a hint.
func (t *loopback) PeerBestPrio(rank int) (int, bool) {
	if rank < 0 || rank >= len(t.net.trs) || rank == t.rank {
		return 0, false
	}
	sr, ok := t.net.trs[rank].handler().(StealRanker)
	if !ok {
		return 0, false
	}
	p, has := sr.BestStealPrio()
	if !has {
		return PrioNone, true
	}
	if p < 0 {
		p = 0
	}
	return p, true
}

// Steal is one steal exchange, the wire's in-process: the latency charged
// once, the victim asked for a run of up to DefaultStealBatch the way a
// link's read loop asks it (a dry StackSplitter waits for a shed), the run
// adopted by the thief's handler the way a steal reply is — the
// requester's task returned, the extras enqueued.
func (t *loopback) Steal(victim int) (WireTask, bool, error) {
	if victim < 0 || victim >= len(t.net.trs) || victim == t.rank {
		return WireTask{}, false, fmt.Errorf("dist: steal from invalid rank %d", victim)
	}
	// A closed endpoint has no handler to adopt a run with: it is
	// refused before the victim parts with anything.
	th := t.handler()
	if th == nil {
		return WireTask{}, false, nil
	}
	if p := t.net.opts.Fault; p != nil {
		// A steal is a synchronous call: across a partition it fails, and
		// the link's delay is the thief's to sleep.
		act, severed := p.act(t.rank, victim)
		if severed {
			return WireTask{}, false, nil
		}
		time.Sleep(act.delay)
	}
	vh := t.net.trs[victim].handler()
	ts, _ := collectSteal(vh, t.rank, DefaultStealBatch, nil, nil)
	if sp, ok := vh.(StackSplitter); ok && len(ts) == 0 {
		ts = sp.ServeSplit(t.rank, DefaultStealBatch)
	}
	t.ctr.framesSent.Add(1) // the request
	t.ctr.framesRecv.Add(1) // the reply
	if len(ts) == 0 {
		return WireTask{}, false, nil
	}
	t.ctr.stealReplies.Add(1)
	t.ctr.stealTasks.Add(int64(len(ts)))
	for i := range ts {
		// Logical bytes moved, credited to the sent side (the only
		// side Stats aggregates). Real engine runs pass nodes by
		// reference (nil Payload) and truthfully report zero.
		t.ctr.bytesSent.Add(int64(len(ts[i].Payload)))
	}
	return adoptTasks(th, ts, true), true, nil
}

// deliver hands the link one message for peer's handler — a bound
// (kBound: obj), a cancel (kCancel) or a completion ack (kAck: a). It
// arrives at Heal when a partition severs the link (the loopback model
// of a session replaying its backlog), after the link's delay when it
// has one, and otherwise now, on the caller's goroutine — every message
// of a run without a plan, so that path builds no closure.
func (t *loopback) deliver(peer *loopback, k kind, obj int64, a ack) {
	t.ctr.framesSent.Add(1)
	if plan := t.net.opts.Fault; plan != nil {
		later := func() { t.arrive(peer, k, obj, a) }
		if act, severed := plan.act(t.rank, peer.rank); severed {
			plan.OnHeal(later)
			return
		} else if act.delay > 0 {
			time.AfterFunc(act.delay, later)
			return
		}
	}
	t.arrive(peer, k, obj, a)
}

// arrive is deliver's far end. A peer closed by now gets nothing.
func (t *loopback) arrive(peer *loopback, k kind, obj int64, a ack) {
	switch h := peer.handler(); {
	case h == nil:
	case k == kBound:
		h.OnBound(t.rank, obj)
	case k == kCancel:
		h.OnCancel(t.rank)
	default:
		deliverAck(h, t.rank, a.ID, a.Val)
	}
}

// BroadcastBound delivers obj to every peer; the node is not retained
// (BestKnown).
func (t *loopback) BroadcastBound(obj int64, _ []byte) error {
	for _, peer := range t.net.trs {
		if peer.rank != t.rank {
			t.deliver(peer, kBound, obj, ack{})
		}
	}
	return nil
}

func (t *loopback) Cancel(int64, []byte) error {
	for _, peer := range t.net.trs {
		if peer.rank != t.rank {
			t.deliver(peer, kCancel, 0, ack{})
		}
	}
	return nil
}

// Ack delivers a hand-over completion ack to the origin's handler.
// Until a delayed or partitioned ack arrives the origin's ledger entry
// stays registered, exactly like a suspended session holding the ack
// in its retransmit log.
func (t *loopback) Ack(origin int, id uint64) error { return t.AckValue(origin, id, nil) }

func (t *loopback) AckValue(origin int, id uint64, val []byte) error {
	if origin < 0 || origin >= len(t.net.trs) || origin == t.rank {
		return fmt.Errorf("dist: ack to invalid rank %d", origin)
	}
	t.deliver(t.net.trs[origin], kAck, 0, ack{id, val})
	return nil
}

func (t *loopback) AddTasks(delta int64) { t.net.addTasks(delta) }

func (t *loopback) Done() <-chan struct{} { return t.net.done }

// Promoted is false: rank 0 never dies, so nobody takes its role.
func (t *loopback) Promoted() bool { return false }

// Standby is false: rank 0 never dies, so it runs workers like any rank.
func (t *loopback) Standby() bool { return false }

// Gather is an error: a single-process search's localities share its
// result, and only a deployment of processes gathers one.
func (t *loopback) Gather([]byte) ([][]byte, error) {
	return nil, errors.New("dist: no gather on an in-process loopback network")
}

// Close detaches the locality: steals against it and deliveries to it
// find no handler.
func (t *loopback) Close() error {
	t.closed.Store(true)
	return nil
}
