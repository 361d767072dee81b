package dist

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// endpoint is the wire transport: one locality's end of a TCP
// deployment, in either role.
//
// Its centre is the rank-indexed link table. Registration completes a
// mesh: every rank links to every other, so a frame for rank r leaves
// on the link to r, and nothing is ever relayed.
//
// The coordinator is a role, not a type: the endpoint whose rank equals
// coord holds the incumbent retention, sinks the terminal Gather, owns
// death authority (liveness watchdog, kDeath fan-out), concludes
// termination, replicates its residual state to a standby, and keeps
// the listener that took registrations open for session resumes. Rank 0
// holds the role from registration; with WireOptions.Standby a survivor
// acquires it in place when rank 0 dies (failover.go).
type endpoint struct {
	rank, size int
	opts       WireOptions
	spec       string // the deployment spec, with the options folded in

	h        atomic.Value // Handler
	selfPrio func() int64 // the summary stamp hook shared by every link
	started  chan struct{}
	stOnce   sync.Once

	// links is the link table: links[r] is the direct connection to
	// rank r (nil only at links[rank]). A slot is written once, at
	// registration or a peer dial, and read from every goroutine, hence
	// atomic. A dead link stays in its slot.
	links []atomic.Pointer[wconn]
	// coord is the rank holding the coordinator role: 0 until a
	// takeover elects a survivor.
	coord atomic.Int32

	wave     *waveNode
	done     chan struct{}
	doneOnce sync.Once
	deaths   deathBox

	pending pendingSteals
	ackMu   sync.Mutex
	ackBuf  []ack // coalesced completion acks, drained by the flush tick
	// The flush loop's drain scratch: the next ackBuf, and the acks sorted
	// by the link they leave on.
	ackSpare []ack
	ackOut   map[*wconn][]ack
	// rootAck is the last ack this rank sent towards rank 0 under Standby,
	// which a takeover hands the new coordinator (handOver).
	rootAck atomic.Pointer[ack]
	// peerPrio[rank] is the rank's last advertised best stealable
	// priority: >= 0 a priority, PrioNone an empty pool, prioUnknown
	// nothing heard yet.
	peerPrio []atomic.Int64
	ctr      wireCounters

	// Coordinator-role state. Every endpoint carries it — it is inert
	// until frames that feed it arrive, which they only do where the
	// role is — so acquiring the role allocates nothing.
	inc      incumbentBox
	gatherMu sync.Mutex
	blobs    [][]byte
	contrib  []bool
	have     int
	gotAll   chan struct{}
	// cancelled marks a cancel sent or heard here, which a takeover
	// passes on to the new coordinator (handOver).
	cancelled atomic.Bool

	// Failover state (nil/zero unless WireOptions.Standby).
	epoch atomic.Uint32 // 0 while rank 0 lives, 1 after the takeover
	repl  *hubRepl      // rank 0 only: paces the snapshots sent to the standby
	// root is who holds rank 0's supervised hand-over, as of the last kHeld
	// at rank 0. replica is the last snapshot at the standby (nil until one
	// arrives), which a takeover seeds the role and Root from; succ marks
	// the rank that takes the role over, from before its engine hears of
	// rank 0's death.
	root    atomic.Pointer[heldRoot]
	replica atomic.Pointer[HubSnapshot]
	succ    atomic.Bool

	// ln took the registrations (rank 0) or the peer dials; afterwards it
	// serves session resumes (and is already closed on a worker without
	// LinkGrace, which nothing dials again).
	ln       net.Listener
	sessions *sessRegistry // sessions this endpoint accepts resumes for (LinkGrace > 0)

	stop chan struct{} // closed by Close: ends the pacing loops
	// closed is set by Close (before Done, as its first act): from then
	// on no link sends (wconn.halted).
	closed atomic.Bool
}

var _ Transport = (*endpoint)(nil)

func newEndpoint(opts WireOptions, spec string) *endpoint {
	e := &endpoint{
		opts:    opts,
		spec:    spec,
		ackOut:  make(map[*wconn][]ack),
		started: make(chan struct{}),
		done:    make(chan struct{}),
		gotAll:  make(chan struct{}),
		stop:    make(chan struct{}),
	}
	e.selfPrio = selfPrioFn(&e.h)
	if opts.LinkGrace > 0 {
		e.sessions = newSessRegistry()
	}
	return e
}

// init sizes the endpoint once its place in the deployment is known
// (immediately at the coordinator, from the welcome at a worker).
func (e *endpoint) init(rank, size int) {
	e.rank, e.size = rank, size
	e.links = make([]atomic.Pointer[wconn], size)
	e.peerPrio = newPeerPrios(size)
	e.deaths = make(deathBox, size)
	e.blobs = make([][]byte, size)
	e.contrib = make([]bool, size)
	e.wave = newWaveNode(rank, size, e.sendToken, e.terminate)
	if e.opts.Standby && rank == 0 {
		e.repl = &hubRepl{}
	}
}

// hook points a connection's summary stamp and its halt at this
// endpoint.
func (e *endpoint) hook(cn *wconn) {
	cn.ps = e.selfPrio
	cn.psFrom = e.rank
	cn.halt = &e.closed
}

// install enters a link into the table, during registration: no Close
// can race it.
func (e *endpoint) install(peer int, cn *wconn) {
	cn.attachFault(e.opts.Fault, e.rank, peer)
	e.links[peer].Store(cn)
}

// acceptSession registers the accepting side of a resumable link under
// the id its handshake named. No-op without LinkGrace.
func (e *endpoint) acceptSession(cn *wconn, id uint64) {
	if e.sessions == nil || id == 0 {
		return
	}
	s := newSession(id, e.opts.LinkGrace)
	s.rank = e.rank
	cn.sess = s
	e.sessions.add(id, cn)
}

// run starts the pacing loops once registration is complete.
func (e *endpoint) run() {
	go e.flushLoop()
	go e.pingLoop()
	if e.isCoord() {
		go e.livenessLoop()
	}
	if e.sessions != nil && e.ln != nil {
		// The listener's second life: resume handshakes for the sessions
		// of the links it accepted.
		go acceptResumes(e.ln, e.sessions, &e.closed)
	}
}

func (e *endpoint) isCoord() bool { return int(e.coord.Load()) == e.rank }

func (e *endpoint) isDone() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// link is the live direct link to rank, nil when the table has none
// or it is dead.
func (e *endpoint) link(rank int) *wconn {
	if rank < 0 || rank >= e.size {
		return nil
	}
	if cn := e.links[rank].Load(); cn != nil && !cn.dead.Load() {
		return cn
	}
	return nil
}

// coordLink is the link coordinator traffic leaves on, nil at the
// coordinator itself and while a takeover is re-pointing it.
func (e *endpoint) coordLink() *wconn { return e.link(int(e.coord.Load())) }

// sendToken is the wave's wire. A failed send is deliberately dropped:
// the receiver is dying, and the wave's watchdog regenerates the probe
// under a fresh round.
func (e *endpoint) sendToken(to int, tok waveToken) {
	if cn := e.link(to); cn != nil {
		cn.send(tokenFrame(e.rank, to, tok))
	}
}

// fanOut sends a frame on every live link except the one to `except`.
func (e *endpoint) fanOut(f *frame, except int) {
	for r := range e.links {
		if r == except {
			continue
		}
		if cn := e.link(r); cn != nil {
			cn.send(f)
		}
	}
}

func (e *endpoint) Rank() int { return e.rank }
func (e *endpoint) Size() int { return e.size }

func (e *endpoint) Wire() WireStats { return e.ctr.snapshot() }

func (e *endpoint) BestKnown() (int64, []byte, bool) { return e.inc.best() }

func (e *endpoint) Promoted() bool { return e.rank != 0 && e.isCoord() }

func (e *endpoint) Standby() bool { return e.opts.Standby }

func (e *endpoint) Root() (int, uint64, bool) {
	if !e.succ.Load() {
		return -1, 0, false
	}
	if s := e.replica.Load(); s != nil {
		return s.Holder, s.RootID, true
	}
	return -1, 0, true
}

func (e *endpoint) PeerBestPrio(rank int) (int, bool) { return peerBestPrio(e.peerPrio, rank) }

// Suspected is true while the link to rank is quarantined by the
// coordinator's two-phase watchdog or mid-resume on a suspended session.
func (e *endpoint) Suspected(rank int) bool {
	cn := e.link(rank)
	return cn != nil && cn.suspectedPeer()
}

func (e *endpoint) Start(hd Handler) {
	e.h.Store(hd)
	e.stOnce.Do(func() { close(e.started) })
}

// handler blocks until Start (or Close) and returns the attached
// handler, nil only when the endpoint was closed before Start. The
// read loops run from registration on, so that is where a frame that
// needs the engine waits for it.
func (e *endpoint) handler() Handler {
	<-e.started
	hd, _ := e.h.Load().(Handler)
	return hd
}

// retain keeps a published (obj, node) pair if it is the best so far,
// and marks an improvement for the standby's next snapshot. Rank 0 also
// hands the pair to the standby at once: a snapshot can lag by a quantum,
// and a finder's own kBound to the standby may be slower.
func (e *endpoint) retain(obj int64, node []byte) {
	if e.inc.keep(obj, node) != nil && e.repl != nil {
		e.repl.bump()
		if cn := e.standby(); cn != nil {
			cn.send(&frame{Kind: kBound, From: e.rank, Obj: obj, Blob: node})
		}
	}
}

// readLoop serves one link until it fails: every frame kind, from
// every kind of peer.
func (e *endpoint) readLoop(peer int, cn *wconn) {
	// One frame for the life of the loop (recv resets it), so a frame
	// read costs no allocation. Nothing below keeps &f, or anything f
	// points to (recv's ownership rule), past its iteration.
	var f frame
	// Every steal reply this link serves is built in these two: send has
	// encoded a reply by the time it returns.
	var served []WireTask
	var payloads []byte
	for {
		if err := cn.recv(&f); err != nil {
			e.linkLost(peer, cn)
			return
		}
		if f.HasPS {
			notePeerPrio(e.peerPrio, f.From, f.PS)
		}
		switch f.Kind {
		case kSteal:
			thief, seq, want, hd := f.From, f.Seq, f.Want, e.handler()
			served, payloads = collectSteal(hd, thief, want, served[:0], payloads[:0])
			if sp, ok := hd.(StackSplitter); ok && len(served) == 0 {
				// Served off the read loop: the wait for a running worker's
				// shed may block briefly, and this loop must keep draining
				// the link's other traffic.
				go func() { e.reply(cn, thief, seq, sp.ServeSplit(thief, max(want, 1))) }()
				break
			}
			e.reply(cn, thief, seq, served)
		case kStealR:
			if len(f.Tasks) > 0 {
				e.wave.blacken()
			}
			// The engine takes the whole reply here, before its image is read
			// over; the first task travels on, decoded, to a requester that
			// is still waiting.
			ps := e.pending.claim(f.Seq)
			first := adoptTasks(e.handler(), f.Tasks, ps != nil)
			if e.opts.Standby && f.From == 0 && len(f.Tasks) > 0 && f.Tasks[0].ID != 0 {
				// The root is registered here now: name this rank its holder.
				cn.send(&frame{Kind: kHeld, From: e.rank, Seq: f.Tasks[0].ID})
			}
			if ps != nil {
				ps.n = len(f.Tasks)
				ps.ch <- first
			}
		case kBound:
			// The node is retained before the bound is heard, so the
			// optimum outlives its finder and no rank prunes with a
			// bound whose node it does not hold.
			if len(f.Blob) > 0 {
				e.retain(f.Obj, f.Blob)
			}
			if hd := e.handler(); hd != nil {
				hd.OnBound(f.From, f.Obj)
			}
		case kToken:
			e.wave.onToken(frameToken(&f))
		case kCancel:
			if len(f.Blob) > 0 {
				e.retain(f.Obj, f.Blob)
				f.Blob = nil // the fan-out carries the objective alone
			}
			e.cancelled.Store(true)
			if hd := e.handler(); hd != nil {
				hd.OnCancel(f.From)
			}
			if e.isCoord() {
				e.endSearch(&f, peer)
			}
		case kAck:
			e.onAcks(f.From, f.Acks)
		case kGather:
			e.contribute(f.From, append([]byte{}, f.Blob...))
		case kDeath:
			if f.Want == e.rank {
				// The coordinator mourned this rank while it ran, and its
				// survivors replay what it held: it crash-stops rather than
				// outlive the verdict, and never takes the role over.
				e.deaths.announce(e.rank)
				e.Close()
				break
			}
			e.died(f.Want, nil)
		case kTerminate:
			// A share goes to the rank that ended the search, whose kTerminate
			// can overtake this rank's view of rank 0's death.
			e.coord.Store(int32(f.From))
			e.terminate()
		case kLeave:
			cn.left.Store(true)
		case kHubSnap:
			// A decoded snapshot aliases what it was parsed from, so a copy
			// of the receive image is parsed; a garbled one is strictly
			// worse than the last good one, and is dropped.
			if snap, err := DecodeHubSnapshot(append([]byte(nil), f.Blob...)); err == nil {
				e.replica.Store(snap)
			}
		case kHeld:
			e.root.Store(&heldRoot{f.From, f.Seq})
			e.repl.bump()
		}
	}
}

// reply answers a steal request on the link it arrived on.
func (e *endpoint) reply(cn *wconn, thief int, seq uint64, tasks []WireTask) {
	cn.send(&frame{Kind: kStealR, From: e.rank, To: thief, Seq: seq, Tasks: tasks})
}

// linkLost reacts to a failed link. What it means depends on who was
// behind it and who is asking.
func (e *endpoint) linkLost(peer int, cn *wconn) {
	// No reply can arrive for a request that left on this link.
	e.pending.fail(func(ps *pendingSteal) bool { return ps.via == cn })
	switch coord := int(e.coord.Load()); {
	case coord == e.rank:
		e.died(peer, cn)
	case coord == peer:
		if !e.takeover(cn) {
			// The coordinator is gone for good: registration, incumbent
			// retention and death authority went with it. No work or
			// termination signal can ever arrive, so release everyone.
			e.doneOnce.Do(func() { close(e.done) })
		}
	default:
		// A link between workers. While rank 0 lives, death
		// authority stays with it — its watchdog sees the same broken
		// worker — and only its kDeath retires the rank everywhere.
		// After a takeover every survivor sees the same break and reaches
		// the same verdict without waiting for the promoted rank's
		// fan-out, as takeover does for a break rank 0 died before
		// judging (lost, stored before the epoch is read, so one of the
		// two sees the other).
		cn.lost.Store(true)
		e.judgeLost(peer, cn)
	}
}

// judgeLost mourns the peer behind a lost worker link once a takeover has
// ended rank 0's authority; a peer that said kLeave first finished and
// exited, it did not die.
func (e *endpoint) judgeLost(peer int, cn *wconn) {
	if e.epoch.Load() == 1 && cn.lost.Load() && !cn.left.Load() {
		e.died(peer, cn)
	}
}

// died runs the death protocol for rank; cn is its link when the
// caller watched it fail, nil for a death learned second-hand (a
// kDeath). After normal termination a
// lost link is just the expected disconnect. Before it, the
// supervised-task protocol takes over: pending steals aimed at the
// rank fail fast, the engine is told (DeathHearer) so its ledger replays
// the subtree roots the dead rank was holding, its gather slot is filled so
// the terminal collective cannot block on it, and its outstanding
// live-task contribution is reconciled away — the survivors' ledger
// registrations keep everything replayable counted, so the search ends
// exactly when the surviving work (replays included) is done. The
// coordinator additionally tells everyone else.
func (e *endpoint) died(rank int, cn *wconn) {
	if rank < 0 || rank >= e.size || rank == e.rank {
		return
	}
	if cn == nil {
		if cn = e.links[rank].Load(); cn != nil {
			cn.close()
		}
	}
	if cn != nil {
		if !cn.mourned.CompareAndSwap(false, true) {
			return
		}
		cn.dead.Store(true)
	}
	e.pending.fail(func(ps *pendingSteal) bool { return ps.victim == rank })
	if e.isDone() {
		// It shut down normally; it has contributed its gather payload
		// already, or never will.
		e.contribute(rank, nil)
		return
	}
	e.announceDeath(rank)
	if e.isCoord() {
		e.fanOut(&frame{Kind: kDeath, From: e.rank, Want: rank}, rank)
	}
	e.contribute(rank, nil)
	e.wave.markDead(rank)
}

// terminate ends the search here and, from the coordinator, everywhere.
// It is the wave's conclusion and the reaction to a kTerminate.
func (e *endpoint) terminate() {
	e.doneOnce.Do(func() {
		close(e.done)
		if e.isCoord() {
			e.fanOut(&frame{Kind: kTerminate, From: e.rank}, e.rank)
		}
	})
}

// endSearch is a cancel at the coordinator: it reaches every rank but
// except at once, and Done follows it on every link.
func (e *endpoint) endSearch(cancel *frame, except int) {
	e.fanOut(cancel, except)
	e.terminate()
}

func (e *endpoint) Steal(victim int) (WireTask, bool, error) {
	if victim < 0 || victim >= e.size || victim == e.rank {
		return WireTask{}, false, fmt.Errorf("dist: steal from invalid rank %d", victim)
	}
	cn := e.link(victim)
	if cn == nil || !cn.reachable() || cn.suspect.Load() {
		// Dead, or quarantined behind a suspended session (a request
		// would sit in the retransmit log until the link heals): fail
		// fast and keep expanding the local frontier instead.
		return WireTask{}, false, nil
	}
	ps := e.pending.register(victim, cn)
	first, got := WireTask{}, false
	if cn.send(&frame{Kind: kSteal, From: e.rank, To: victim, Seq: ps.seq, Want: e.opts.StealBatch}) == nil {
		ps.timer.Reset(stealTimeout)
		select {
		case first = <-ps.ch:
			got = true
		case <-e.done:
			// Global termination: no reply can matter (and none may
			// come — a victim that finished may already have shut down
			// without a death fan-out to fail this request).
		case <-ps.timer.C:
		}
	}
	if !got {
		if e.pending.release(ps, false) {
			return WireTask{}, false, nil
		}
		// The reply was claimed for this request as it gave up, and its
		// first task is already registered here: take it after all.
		first = <-ps.ch
	}
	n := ps.n
	e.pending.release(ps, true)
	if n == 0 {
		return WireTask{}, false, nil
	}
	e.ctr.stealReplies.Add(1)
	e.ctr.stealTasks.Add(int64(n))
	return first, true, nil
}

// BroadcastBound publishes a bound the one way every rank does: it keeps
// the node (a takeover and the gather hand it on) and sends it, with the
// bound, as a kBound on every link, so every rank that hears the bound
// holds its node. A survivor that prunes with a bound whose node died
// with its finder never finds that node again.
func (e *endpoint) BroadcastBound(obj int64, node []byte) error {
	e.retain(obj, node)
	e.fanOut(&frame{Kind: kBound, From: e.rank, Obj: obj, Blob: node}, e.rank)
	return nil
}

// Cancel ends the search at the coordinator, which retains the witness.
// The finder retains it too, for a takeover to hand over (handOver).
func (e *endpoint) Cancel(obj int64, witness []byte) error {
	e.retain(obj, witness)
	e.cancelled.Store(true)
	if e.isCoord() {
		e.endSearch(&frame{Kind: kCancel, From: e.rank, Obj: obj}, e.rank)
		return nil
	}
	if cn := e.coordLink(); cn != nil {
		return cn.send(&frame{Kind: kCancel, From: e.rank, Obj: obj, Blob: witness})
	}
	return nil // takeover in flight: it passes the cancel on
}

// Ack queues a hand-over completion ack towards the origin's ledger.
// Acks coalesce: the flush tick drains the buffer into one kAck batch
// per link per quantum, so the no-failure cost of
// supervision is one small frame per quantum instead of one per stolen
// task. Retirement latency only delays ledger turnover, never
// correctness.
func (e *endpoint) Ack(origin int, id uint64) error { return e.AckValue(origin, id, nil) }

// AckValue is Ack carrying the acked family's value, which it keeps.
func (e *endpoint) AckValue(origin int, id uint64, val []byte) error {
	if origin < 0 || origin >= e.size || origin == e.rank {
		return fmt.Errorf("dist: ack to invalid rank %d", origin)
	}
	e.bufferAcks(ack{id, val})
	return nil
}

func (e *endpoint) bufferAcks(acks ...ack) {
	e.ackMu.Lock()
	e.ackBuf = append(e.ackBuf, acks...)
	e.ackMu.Unlock()
}

// onAcks takes an incoming batch apart: each id names its own origin.
// This rank's are delivered; the rest are acks of rank 0's root sent to
// the coordinator role under Standby, and join the buffer, values
// copied, for the next drain to hand to whichever rank holds the role.
func (e *endpoint) onAcks(from int, acks []ack) {
	hd := e.handler()
	for _, a := range acks {
		if TaskOrigin(a.ID) != e.rank {
			e.bufferAcks(ack{a.ID, bytes.Clone(a.Val)})
			continue
		}
		deliverAck(hd, from, a.ID, a.Val)
	}
}

// drainAcks sends the coalesced acks, one batch per origin's link. The
// buffer it empties and
// the per-link batches it builds are kept for the next drain: a quantum's
// acks cost no allocation.
func (e *endpoint) drainAcks() {
	e.ackMu.Lock()
	acks := e.ackBuf
	e.ackBuf = e.ackSpare[:0]
	e.ackMu.Unlock()
	e.ackSpare = acks
	if len(acks) == 0 {
		return
	}
	// What cannot leave now goes back into the buffer for the next drain
	// (bufferAcks appends to the other array, never acks). Under Standby an
	// ack for rank 0 is kept (handOver) and goes to the coordinator role,
	// which after a takeover holds rank 0's ledger entry (Root) — this
	// rank's own handler, at the rank that took it.
	for _, a := range acks {
		dest := TaskOrigin(a.ID)
		if dest == 0 && e.opts.Standby {
			kept := a
			e.rootAck.Store(&kept)
			if dest = int(e.coord.Load()); dest == e.rank {
				deliverAck(e.handler(), e.rank, a.ID, a.Val)
				continue
			}
		}
		switch cn := e.link(dest); {
		case cn != nil:
			e.ackOut[cn] = append(e.ackOut[cn], a)
		case dest >= 0 && dest < e.size && !e.deaths.isDead(dest) && !e.isDone():
			// No way there right now, but nobody said the origin died: a
			// takeover is re-pointing the coordinator link. Keep the ack
			// for the next drain — its origin's ledger entry, and the
			// live count under it, wait on it.
			e.bufferAcks(a)
		}
		// Otherwise the origin is dead: its ledger died with it, and the
		// subtree the ack certifies was completed by the sender anyway.
	}
	for cn, acks := range e.ackOut {
		e.ackOut[cn] = acks[:0]
		if cn.dead.Load() {
			delete(e.ackOut, cn)
		}
		for len(acks) > 0 {
			n := min(len(acks), maxStealBatch)
			if cn.send(&frame{Kind: kAck, From: e.rank, Acks: acks[:n]}) != nil {
				e.bufferAcks(acks...)
				break
			}
			acks = acks[n:]
		}
	}
}

// flushLoop is the pool-quantum tick. It must outlive termination
// detection (termination *requires* the final acks to land), so it
// stops only when the endpoint closes.
func (e *endpoint) flushLoop() {
	t := time.NewTicker(e.opts.FlushQuantum)
	defer t.Stop()
	for {
		select {
		case <-e.stop:
			return
		case <-t.C:
			e.flushTick()
		}
	}
}

// flushTick puts one quantum's coalesced traffic on the wire: the acks,
// the standby's snapshot and the wave's pacing.
func (e *endpoint) flushTick() {
	e.drainAcks()
	e.flushRepl()
	e.wave.tick()
}

// pingLoop keeps the coordinator link audibly alive: whenever nothing
// has been sent on it for a heartbeat, an empty kPing goes out. The
// coordinator's watchdog reads silence beyond
// LivenessTimeout as death. Idle at the coordinator itself.
func (e *endpoint) pingLoop() {
	t := time.NewTicker(e.opts.Heartbeat)
	defer t.Stop()
	var lastSent uint64
	for {
		select {
		case <-e.stop:
			return
		case <-t.C:
			cn := e.coordLink()
			if cn == nil {
				continue
			}
			// Anything sent since the last tick is heartbeat enough.
			if n := cn.nSent.Load(); n != lastSent {
				lastSent = n
				continue
			}
			cn.send(&frame{Kind: kPing, From: e.rank})
			lastSent = cn.nSent.Load()
		}
	}
}

// livenessLoop is the coordinator's watchdog: a link silent past
// LivenessTimeout is declared dead by closing it, which fails its read
// loop into linkLost — the same path a broken connection takes, so
// wedged-but-connected workers and SIGKILLed ones converge. A rank that
// is only slow must not outlive the verdict, so it is told first: its own
// kDeath goes ahead of the close, behind whatever the link still carries
// (closeBehind), and the rank crash-stops on it. It runs
// until Close, NOT until termination: the gather phase after Done must
// also be able to give up on a worker that wedges before contributing
// (worker pings keep flowing until the worker itself closes).
func (e *endpoint) livenessLoop() {
	t := time.NewTicker(e.opts.Heartbeat)
	defer t.Stop()
	// Per-rank watchdog state: the link watched, its recv-counter value
	// last seen and when that last changed. The clock lives here, on
	// the watchdog's tick, so the frame hot path pays one counter
	// increment and no time.Now().
	watched := make([]*wconn, e.size)
	seen := make([]uint64, e.size)
	changed := make([]time.Time, e.size)
	told := make([]bool, e.size)
	for {
		select {
		case <-e.stop:
			return
		case now := <-t.C:
			for rank := range watched {
				cn := e.link(rank)
				if cn == nil {
					continue
				}
				if n := cn.nRecvd.Load(); cn != watched[rank] || n != seen[rank] {
					watched[rank], seen[rank], changed[rank] = cn, n, now
					cn.suspect.Store(false)
					continue
				}
				switch silent, grace := now.Sub(changed[rank]), e.opts.LinkGrace; {
				case told[rank]:
				case silent > e.opts.LivenessTimeout+grace:
					told[rank] = true
					cn.send(&frame{Kind: kDeath, From: e.rank, Want: rank})
					cn.closeBehind()
				case silent > e.opts.LivenessTimeout:
					// Two-phase mourning: quarantine first. The rank drops
					// out of victim orders and steal routing, but its
					// session — and everything queued on it — survives
					// until the grace window closes.
					cn.suspect.Store(true)
				}
			}
		}
	}
}

func (e *endpoint) AddTasks(delta int64) { e.wave.add(delta) }

func (e *endpoint) Done() <-chan struct{} { return e.done }

// contribute fills a gather slot (first write wins).
func (e *endpoint) contribute(rank int, blob []byte) {
	if rank < 0 || rank >= e.size {
		return
	}
	e.gatherMu.Lock()
	defer e.gatherMu.Unlock()
	if e.contrib[rank] {
		return
	}
	e.contrib[rank] = true
	e.blobs[rank] = blob
	e.have++
	if e.have == e.size {
		close(e.gotAll)
	}
}

// Gather waits for Done, which no takeover follows, so a share goes to the
// coordinator that ended the search, behind the sender's bounds and
// cancels: once every live rank's has landed, BestKnown is complete. A
// closed endpoint has nothing to gather, and one the coordinator mourned
// says so (ErrMourned).
func (e *endpoint) Gather(payload []byte) ([][]byte, error) {
	<-e.done
	switch {
	case e.deaths.isDead(e.rank):
		return nil, ErrMourned
	case e.closed.Load():
		return nil, errors.New("dist: gather on a closed endpoint")
	}
	if !e.isCoord() {
		cn := e.coordLink()
		if cn == nil {
			return nil, errors.New("dist: sending gather payload: no link to the coordinator")
		}
		// The best node this rank holds goes ahead of its share: one whose
		// finder died before its kBound reached the coordinator is here.
		if obj, node, ok := e.inc.best(); ok {
			cn.send(&frame{Kind: kBound, From: e.rank, Obj: obj, Blob: node})
		}
		if err := cn.send(&frame{Kind: kGather, From: e.rank, Blob: payload}); err != nil {
			return nil, fmt.Errorf("dist: sending gather payload: %w", err)
		}
		return nil, nil
	}
	e.contribute(e.rank, payload)
	<-e.gotAll
	return e.blobs, nil
}

// closeLinks tears down every link and the listener.
func (e *endpoint) closeLinks() {
	for r := range e.links {
		if cn := e.links[r].Load(); cn != nil {
			cn.close()
		}
	}
	if e.ln != nil {
		e.ln.Close()
	}
}

// Close is a crash before Done and a clean exit after it. Before Done its
// first act marks the endpoint closed, after which nothing leaves it: no
// final flush of acks, no kTerminate, no reply or handshake. Done is
// released, so that this rank's read loops, failing as its links go,
// neither mourn nor take over; then every link and the listener are shut
// at once, which the survivors mourn as they would a SIGKILLed process.
// After Done a rank first says kLeave on every link: after a takeover
// the survivors classify broken peer links
// themselves, and a rank whose kTerminate is still queued behind other
// traffic must read this exit as a finished peer leaving, not a death to
// replay. TCP ordering puts the kLeave ahead of the close on every link.
func (e *endpoint) Close() error {
	if e.isDone() && !e.closed.Load() {
		e.fanOut(&frame{Kind: kLeave, From: e.rank}, e.rank)
	}
	if !e.closed.CompareAndSwap(false, true) {
		return nil
	}
	e.stOnce.Do(func() { close(e.started) }) // unblock read loops parked on the handler
	close(e.stop)
	e.doneOnce.Do(func() { close(e.done) })
	e.closeLinks()
	return nil
}
