package dist

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"yewpar/internal/pad"
)

// LoopbackOptions tunes the in-process network.
type LoopbackOptions struct {
	// Wave selects mesh-style termination: instead of closing Done when
	// the globally shared live-task count hits zero, each rank keeps
	// its own counter and a Safra-style token wave (wave.go) detects
	// quiescence — the in-process model of the mesh topology, and the
	// reference implementation the wave's property tests drive. The
	// shared counters are still maintained for LiveAt observability,
	// but they no longer decide termination.
	Wave bool
	// Fault, if non-nil, injects network faults into the in-process
	// links, and is the only thing that delays one. A link's latency is
	// slept on the thief's goroutine before each steal across it is
	// served, and delays every bound broadcast, cancel and ack over it:
	// peers prune against stale bounds in the meantime. Steals across a
	// severed partition fail like a timed-out wire steal, and the other
	// messages are queued and delivered at Heal. Loopback partitions are
	// payload-plane only — no liveness watchdog runs here, so a
	// partition never kills a rank (deaths stay 0), which is exactly the
	// contract the session layer gives the wire transports under
	// LinkGrace.
	Fault *FaultPlan
}

// LoopbackNetwork is a set of in-process localities connected by
// direct calls: the Transport implementation backing single-process
// runs, where "localities" are groups of goroutines sharing an address
// space. Fault injection (LoopbackOptions.Fault) makes it a faithful
// stand-in for a real network in experiments, and its simplicity makes
// it the reference implementation for the Transport conformance suite —
// including the fault-tolerance contract, via the injectable Kill.
type LoopbackNetwork struct {
	opts LoopbackOptions
	trs  []*loopback

	// The live count is shared by design (every rank's workers update
	// it per task) and so sits alone on its line; the per-rank
	// contributions are each written by one rank's workers only, and
	// are kept off live's line and off each other's.
	live     pad.Isolated[atomic.Int64]
	liveAt   []pad.Isolated[atomic.Int64] // per-rank contribution to live (reconciled on death)
	done     chan struct{}
	doneOnce sync.Once

	// promoted is the rank that adopted the coordinator role after
	// Kill(0), -1 while rank 0 lives. The loopback stand-in for v7
	// failover: shared memory needs no state replication, so takeover
	// is just the gather responsibility moving to the lowest survivor.
	promoted atomic.Int32
	root     *rootHolder // who holds rank 0's supervised hand-over (stealVia)

	inc incumbentBox

	gatherMu    sync.Mutex
	blobs       [][]byte
	contributed []bool
	have        int
	gathered    chan struct{}
}

// NewLoopback creates a connected network of n localities.
func NewLoopback(n int, opts LoopbackOptions) *LoopbackNetwork {
	if n <= 0 {
		panic(fmt.Sprintf("dist: loopback network of %d localities", n))
	}
	net := &LoopbackNetwork{
		opts:        opts,
		trs:         make([]*loopback, n),
		liveAt:      make([]pad.Isolated[atomic.Int64], n),
		done:        make(chan struct{}),
		blobs:       make([][]byte, n),
		contributed: make([]bool, n),
		gathered:    make(chan struct{}),
	}
	net.promoted.Store(-1)
	for i := range net.trs {
		net.trs[i] = &loopback{net: net, rank: i, deaths: newDeathBox(n)}
	}
	net.root = &rootHolder{dead: func(r int) bool { return net.trs[r].closed.Load() }, rank: -1}
	if opts.Wave {
		for i := range net.trs {
			t := net.trs[i]
			t.wave = newWaveNode(i, n, func(to int, tok waveToken) {
				peer := net.trs[to]
				if !peer.closed.Load() {
					// Asynchronous like a wire: the token leaves this
					// goroutine, and a send to a dying rank is simply
					// lost (the watchdog regenerates the probe).
					go peer.wave.onToken(tok)
				}
			}, func() {
				net.doneOnce.Do(func() { close(net.done) })
			})
		}
		go net.waveLoop()
	}
	return net
}

// waveLoop paces every live rank's wave, standing in for the wire
// transports' flush-quantum tickers.
func (ln *LoopbackNetwork) waveLoop() {
	t := time.NewTicker(time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-ln.done:
			return
		case <-t.C:
			anyLive := false
			for _, tr := range ln.trs {
				if !tr.closed.Load() {
					anyLive = true
					tr.wave.tick()
				}
			}
			if !anyLive {
				return
			}
		}
	}
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

// Kill simulates the death of a locality mid-search, the loopback
// stand-in for a SIGKILLed worker process: the rank's handler hears a
// cancel and is detached (steals against it fail, deliveries to it are
// dropped), its own outgoing operations become no-ops (a zombie caller
// can no longer touch the shared search state), its outstanding
// live-task contribution is reconciled away, its gather slot is filled
// with nil, and every survivor is notified through Deaths. Idempotent.
func (ln *LoopbackNetwork) Kill(rank int) {
	if rank < 0 || rank >= len(ln.trs) {
		return
	}
	t := ln.trs[rank]
	// Its search stops as a killed process's does (one a cancel ends
	// would never tell it to).
	t.arrive(t, kCancel, 0, 0)
	// The gate write-lock excludes every in-flight AddTasks of the dying
	// endpoint: once closed is set under it no zombie delta — a late +1,
	// or the finishes its workers had counted but not yet settled — can
	// land after the reconciliation below and wedge or zero the count.
	t.gateMu.Lock()
	if !t.closed.CompareAndSwap(false, true) {
		t.gateMu.Unlock()
		return
	}
	t.gateMu.Unlock()
	ln.contribute(rank, nil)
	ln.root.judge(rank, ln.seedRoot, func() {
		for _, peer := range ln.trs {
			if peer.rank != rank && !peer.closed.Load() {
				peer.deaths.announce(rank)
				if ln.opts.Wave {
					// Survivors drop the corpse from the ring; the lowest
					// surviving rank inherits the initiator role.
					peer.wave.markDead(rank)
				}
			}
		}
	})
	if rank == 0 {
		// Coordinator death: the lowest survivor adopts the terminal
		// collective (Gather) and the result-owner role.
		for r := 1; r < len(ln.trs); r++ {
			if !ln.trs[r].closed.Load() {
				ln.promoted.Store(int32(r))
				break
			}
		}
	}
	ln.reconcile(rank)
}

// seedRoot registers the root at the lowest live rank, rank 0's
// successor, whose engine seeds it again (rootHolder.judge, ReseedRoot).
func (ln *LoopbackNetwork) seedRoot() bool {
	for r := 1; r < len(ln.trs); r++ {
		if !ln.trs[r].closed.Load() {
			ln.addTasks(r, 1)
			ln.trs[r].reseed.Store(true)
			return true
		}
	}
	return false
}

// LiveAt reports a rank's current contribution to the global live-task
// count. Tests use it to kill a rank at a moment it provably holds
// registered work.
func (ln *LoopbackNetwork) LiveAt(rank int) int64 {
	if rank < 0 || rank >= len(ln.liveAt) {
		return 0
	}
	return ln.liveAt[rank].V.Load()
}

// reconcile removes a dead rank's outstanding live-task contribution:
// the tasks it was holding can never complete here. Tasks it received
// from survivors stay covered by their victims' ledger registrations,
// which is what makes the survivors' replay accounting-neutral.
func (ln *LoopbackNetwork) reconcile(rank int) {
	removed := ln.liveAt[rank].V.Swap(0)
	if removed == 0 {
		return
	}
	if ln.live.V.Add(-removed) == 0 && removed > 0 {
		ln.zero()
	}
}

// zero is live reaching zero: on a star, the end of the search. (A root
// that died with rank 0 is registered again first: seedRoot.)
func (ln *LoopbackNetwork) zero() {
	if !ln.opts.Wave {
		ln.doneOnce.Do(func() { close(ln.done) })
	}
}

func (ln *LoopbackNetwork) addTasks(rank int, delta int64) {
	// The shared counters stay maintained for LiveAt observability, but
	// in wave mode they never decide termination: that is the ring's
	// job, fed through each rank's own counter.
	ln.liveAt[rank].V.Add(delta)
	if ln.live.V.Add(delta) == 0 && delta < 0 {
		ln.zero()
	}
	if ln.opts.Wave {
		ln.trs[rank].wave.add(delta)
	}
}

// contribute records one locality's gather payload (or its death, with
// a nil payload); the last contribution releases rank 0.
func (ln *LoopbackNetwork) contribute(rank int, blob []byte) {
	ln.gatherMu.Lock()
	defer ln.gatherMu.Unlock()
	if ln.contributed[rank] {
		return
	}
	ln.contributed[rank] = true
	ln.blobs[rank] = blob
	ln.have++
	if ln.have == len(ln.trs) {
		close(ln.gathered)
	}
}

// loopback is one locality's endpoint in a LoopbackNetwork.
type loopback struct {
	net  *LoopbackNetwork
	rank int
	h    atomic.Value // Handler
	// gateMu orders AddTasks against Kill: accounting holds the read
	// side, Kill sets closed under the write side, so no delta from a
	// dying endpoint can slip past the death reconciliation.
	gateMu sync.RWMutex
	closed atomic.Bool
	// cancelFrom (sender rank+1) keeps a cancel for the Start after it:
	// lost, the rank searched on for a witness found (wires wait for Start).
	cancelFrom atomic.Int32
	deaths     *deathBox
	ctr        wireCounters
	wave       *waveNode // nil unless LoopbackOptions.Wave
	reseed     atomic.Bool
}

var _ Transport = (*loopback)(nil)

// AcksRelayed is false: loopback acks go straight to their origin — no
// coordinator whose death could eat one in flight.
func (t *loopback) AcksRelayed() bool { return false }

func (t *loopback) ReseedRoot() bool { return t.reseed.CompareAndSwap(true, false) }

// Suspected: a peer across a severed loopback partition is
// quarantined — the victim order skips it until the heal.
func (t *loopback) Suspected(rank int) bool {
	return t.net.opts.Fault.Severed(t.rank, rank)
}

// Wire reports logical message counts: the frames a wire
// transport would have sent for the same traffic, and payload bytes
// only — engine runs hand nodes over by reference (no Payload), so
// they report zero bytes, which is the truth of shared memory.
// AddTasks counts no frames — in-process accounting needs none, which
// is exactly the gap the TCP transport's delta coalescing narrows.
func (t *loopback) Wire() WireStats { return t.ctr.snapshot() }

func (t *loopback) Rank() int { return t.rank }

func (t *loopback) Size() int { return len(t.net.trs) }

func (t *loopback) Start(h Handler) {
	t.h.Store(h)
	if from := t.cancelFrom.Load(); from > 0 {
		h.OnCancel(int(from) - 1)
	}
}

func (t *loopback) handler() Handler {
	if t.closed.Load() {
		return nil
	}
	h, _ := t.h.Load().(Handler)
	return h
}

// BestKnown answers from the network-level retention
// cell (shared: any endpoint answers, rank 0 is the one that asks).
func (t *loopback) BestKnown() (int64, []byte, bool) { return t.net.inc.best() }

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

func (t *loopback) Steal(victim int) (WireTask, bool, error) { return t.stealVia(false, victim) }

// SplitSteal is Steal with split semantics: the victim's handler may
// fall back to splitting a running worker's live generator stack when
// its pool is dry.
func (t *loopback) SplitSteal(victim int) (WireTask, bool, error) { return t.stealVia(true, victim) }

// stealVia is one steal exchange, the wire's in-process: the latency
// charged once, the victim asked for a run of up to DefaultStealBatch
// through the collect helpers a link's read loop uses, the run adopted by
// the thief's handler the way a steal reply is — the requester's task
// returned, the extras enqueued.
func (t *loopback) stealVia(split bool, victim int) (WireTask, bool, error) {
	if victim < 0 || victim >= len(t.net.trs) || victim == t.rank {
		return WireTask{}, false, fmt.Errorf("dist: steal from invalid rank %d", victim)
	}
	// A killed rank's zombie worker has no handler to adopt a run with:
	// it is refused before the victim parts with anything.
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
	var ts []WireTask
	if split {
		ts = collectSplit(vh, t.rank, DefaultStealBatch)
	} else {
		ts, _ = collectSteal(vh, t.rank, DefaultStealBatch, nil, nil)
	}
	t.ctr.framesSent.Add(1) // the request
	t.ctr.framesRecv.Add(1) // the reply
	if len(ts) == 0 || t.net.trs[victim].closed.Load() {
		// A victim killed while serving is refused like a dead one: its
		// stamp may be a bound whose broadcast, and node, its death dropped.
		return WireTask{}, false, nil
	}
	if victim == 0 && ts[0].ID != 0 {
		// Rank 0's supervised hand-over, the root: this rank holds it from
		// here, a +1 of its own covering it until the engine registers the
		// run (rootHolder).
		t.AddTasks(1)
		defer t.AddTasks(-1)
		t.net.root.hold(t.rank)
	}
	if t.wave != nil {
		// Blacken BEFORE the stolen tasks become visible: work just
		// migrated here behind any token that already passed.
		t.wave.blacken()
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
// (kBound: obj), a cancel (kCancel) or a completion ack (kAck: id). It
// arrives at Heal when a partition severs the link (the loopback model
// of a session replaying its backlog), after the link's delay when it
// has one, and otherwise now, on the caller's goroutine — every message
// of a run without a plan, so that path builds no closure.
func (t *loopback) deliver(peer *loopback, k kind, obj int64, id uint64) {
	t.ctr.framesSent.Add(1)
	if plan := t.net.opts.Fault; plan != nil {
		later := func() { t.arrive(peer, k, obj, id) }
		if act, severed := plan.act(t.rank, peer.rank); severed {
			plan.OnHeal(later)
			return
		} else if act.delay > 0 {
			time.AfterFunc(act.delay, later)
			return
		}
	}
	t.arrive(peer, k, obj, id)
}

// arrive is deliver's far end. A peer that has died by now gets nothing;
// one not yet started gets a cancel at Start (latched before its handler
// is read here, so one of the two delivers it).
func (t *loopback) arrive(peer *loopback, k kind, obj int64, id uint64) {
	if k == kCancel {
		peer.cancelFrom.Store(int32(t.rank) + 1)
	}
	switch h := peer.handler(); {
	case h == nil:
	case k == kBound:
		h.OnBound(t.rank, obj)
	case k == kCancel:
		h.OnCancel(t.rank)
	default:
		h.OnAck(t.rank, id)
	}
}

func (t *loopback) BroadcastBound(obj int64, node []byte) error {
	if t.closed.Load() {
		return nil
	}
	t.net.inc.keep(obj, node)
	for _, peer := range t.net.trs {
		if peer.rank != t.rank {
			t.deliver(peer, kBound, obj, 0)
		}
	}
	return nil
}

func (t *loopback) Cancel(obj int64, witness []byte) error {
	if t.closed.Load() {
		return nil
	}
	t.net.inc.keep(obj, witness)
	for _, peer := range t.net.trs {
		if peer.rank != t.rank {
			t.deliver(peer, kCancel, 0, 0)
		}
	}
	return nil
}

// Ack delivers a hand-over completion ack to the origin's handler.
// Acks from or to a dead rank are dropped: a zombie must not retire a
// survivor's ledger entry (the entry is what replays the subtree it
// was holding), and a dead origin has no ledger left. Until a held ack
// arrives the origin's ledger entry stays registered, exactly like a
// suspended session holding the ack in its retransmit log.
func (t *loopback) Ack(origin int, id uint64) error {
	if origin < 0 || origin >= len(t.net.trs) || origin == t.rank {
		return fmt.Errorf("dist: ack to invalid rank %d", origin)
	}
	if t.closed.Load() {
		return nil
	}
	t.deliver(t.net.trs[origin], kAck, 0, id)
	return nil
}

// AddTasks attributes the delta to this rank; a killed endpoint's
// late accounting is discarded (its contribution was reconciled away).
// The gate read-lock makes discarding exact: Kill cannot reconcile
// between the closed check and the count update.
func (t *loopback) AddTasks(delta int64) {
	t.gateMu.RLock()
	defer t.gateMu.RUnlock()
	if t.closed.Load() {
		return
	}
	t.net.addTasks(t.rank, delta)
}

func (t *loopback) Done() <-chan struct{} { return t.net.done }

func (t *loopback) Deaths() <-chan int { return t.deaths.ch }

// Promoted reports whether this rank adopted the coordinator role
// after a Kill(0).
func (t *loopback) Promoted() bool { return int(t.net.promoted.Load()) == t.rank }

func (t *loopback) Gather(payload []byte) ([][]byte, error) {
	collector := t.rank == 0 || t.Promoted()
	if !collector {
		t.ctr.framesSent.Add(1)
		t.ctr.bytesSent.Add(int64(len(payload)))
	}
	t.net.contribute(t.rank, payload)
	if !collector {
		return nil, nil
	}
	<-t.net.gathered
	t.net.gatherMu.Lock()
	defer t.net.gatherMu.Unlock()
	return t.net.blobs, nil
}

// Close detaches the locality. After normal termination it only
// releases the endpoint; before termination it is a death — the
// locality is abandoning live work — and takes the same path as Kill:
// survivors are notified, the rank's outstanding live contribution is
// reconciled away, and a pending Gather sees a nil payload in its
// slot.
func (t *loopback) Close() error {
	select {
	case <-t.net.done:
		if t.closed.CompareAndSwap(false, true) {
			t.net.contribute(t.rank, nil)
		}
	default:
		t.net.Kill(t.rank)
	}
	return nil
}
