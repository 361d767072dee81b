package dist

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// meshGossipFan is how many random peers a fresh bound is pushed to on
// a mesh.
const meshGossipFan = 2

// Anti-entropy pacing on a mesh: every rank pushes its best bound to
// one random peer per interval, so a bound the epidemic fan-out missed
// still reaches everyone. The coordinator never pushes eagerly —
// de-loading it is the mesh's whole point, and the piggyback layer
// spreads its bounds for free (every steal reply it serves stamps pb,
// every task it hands over carries a bound snapshot) — so its tick is
// tighter, to bound the latency of the one case piggybacks miss: an
// improvement at an otherwise quiet coordinator. Carried-bound
// suppression makes a no-news tick free at either pace.
const (
	meshGossipInterval      = 25 * time.Millisecond
	meshCoordGossipInterval = 5 * time.Millisecond
)

// endpoint is the wire transport: one locality's end of a TCP
// deployment, in either topology and either role.
//
// Its centre is the rank-indexed link table. A frame for rank r leaves
// on the direct link when the table has one and on the coordinator's
// link otherwise (route), and an endpoint that reads a routed frame
// addressed to someone else relays it by the same rule. On a mesh every
// rank links to every other and nothing is ever relayed; the star is
// the mesh with one link per worker, so everything between workers
// crosses the coordinator, which holds the only full table.
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
	spec       string // the topology-folded deployment spec
	mesh       bool

	h        atomic.Value // Handler
	selfPrio func() int64 // the summary stamp hook shared by every link
	started  chan struct{}
	stOnce   sync.Once

	// links is the link table: links[r] is the direct connection to
	// rank r, nil when there is none (links[rank] always). A slot is
	// written once per link (registration, a mesh peer dial, a
	// post-takeover rejoin) and read from every goroutine, hence
	// atomic. A dead link stays in its slot: it still means "r was
	// reached directly", so nothing detours around a corpse.
	links []atomic.Pointer[wconn]
	// coord is the rank holding the coordinator role: 0 until a
	// takeover elects a survivor.
	coord atomic.Int32

	term detector
	// count is term when term is the counted detector (the star), nil
	// on a mesh: the takeover re-seeds it through methods the wave has
	// no counterpart for.
	count    *liveCount
	done     chan struct{}
	doneOnce sync.Once
	deaths   *deathBox

	pending pendingSteals
	ackMu   sync.Mutex
	ackBuf  []uint64 // coalesced completion acks, drained by the flush tick
	// The flush loop's drain scratch: the next ackBuf, and the ids sorted
	// by the link they leave on.
	ackSpare []uint64
	ackOut   map[*wconn][]uint64
	pbStamp  atomic.Int64 // best bound known; stamped on outgoing frames
	pbSeen   atomic.Int64 // best bound delivered to the handler
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
	epoch     atomic.Uint32 // 0 while rank 0 lives, 1 after the takeover
	peerAddrs []string      // rank-indexed listener addresses (mesh peers, standby promotion)
	repl      *hubRepl      // rank 0 only: paces the snapshots sent to the standby
	// root is who holds rank 0's supervised hand-over, as of each kHeld at
	// rank 0 and each snapshot at the standby. replica is the last snapshot
	// (nil until one arrives), which a takeover seeds the role from; succ
	// marks the rank that took the role over.
	root    *rootHolder
	replica atomic.Pointer[HubSnapshot]
	succ    atomic.Bool
	reseed  atomic.Bool // ReseedRoot's

	// ln took the registrations (rank 0), the mesh peer dials, or is
	// the promotion listener a standby worker pre-bound; afterwards it
	// serves rejoins and session resumes (and is already closed on a
	// mesh worker without LinkGrace, which nothing dials again). nil on
	// a plain star worker.
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
		mesh:    opts.Topology == TopologyMesh,
		ackOut:  make(map[*wconn][]uint64),
		started: make(chan struct{}),
		done:    make(chan struct{}),
		gotAll:  make(chan struct{}),
		stop:    make(chan struct{}),
	}
	e.pbStamp.Store(math.MinInt64)
	e.pbSeen.Store(math.MinInt64)
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
	e.deaths = newDeathBox(size)
	e.root = &rootHolder{dead: e.deaths.isDead, rank: -1}
	e.blobs = make([][]byte, size)
	e.contrib = make([]bool, size)
	if e.mesh {
		e.term = waveDetector{newWaveNode(rank, size, e.sendToken, e.terminate)}
	} else {
		e.count = newLiveCount(rank, size, e.sendCoord, e.terminate)
		e.term = e.count
	}
	if e.opts.Standby && rank == 0 {
		e.repl = &hubRepl{}
	}
}

// hook points a connection's per-send stamps and its halt at this
// endpoint. toCoord marks the link a counting worker's deltas drain into.
func (e *endpoint) hook(cn *wconn, toCoord bool) {
	cn.pb = &e.pbStamp
	cn.ps = e.selfPrio
	cn.psFrom = e.rank
	cn.halt = &e.closed
	if toCoord && e.count != nil {
		cn.pending = &e.count.pending
		if e.opts.Standby {
			cn.cum = &e.count.cum
		}
	}
}

// install enters a link into the table.
func (e *endpoint) install(peer int, cn *wconn) {
	cn.attachFault(e.opts.Fault, e.rank, peer)
	e.links[peer].Store(cn)
	if e.closed.Load() {
		// A rejoin that raced Close, whose teardown missed this link: a
		// closed endpoint keeps no link open (or its peer would hear of
		// its death only by the liveness timeout).
		cn.close()
	}
}

// acceptSession registers the accepting side of a resumable link under
// the id its handshake carried. No-op without LinkGrace.
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
	if e.mesh {
		go e.gossipLoop()
	}
	if e.isCoord() {
		go e.livenessLoop()
	}
	if e.sessions != nil && e.ln != nil && (e.isCoord() || e.mesh) {
		// The listener's second life: resume handshakes for the sessions
		// of the links it accepted. (A standby star worker's listener
		// stays quiet until a promotion opens its rejoin window.)
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

// route is the link a frame for rank leaves on: the direct link when
// the table has one, the coordinator's otherwise. nil when rank is
// unreachable (its direct link is dead, or there is no coordinator link
// to relay over).
func (e *endpoint) route(rank int) *wconn {
	if rank < 0 || rank >= e.size || rank == e.rank {
		return nil
	}
	if cn := e.links[rank].Load(); cn != nil {
		if cn.dead.Load() {
			return nil
		}
		return cn
	}
	return e.coordLink()
}

// sendCoord is the counted detector's wire: a frame towards the
// coordinator.
func (e *endpoint) sendCoord(f *frame) error {
	cn := e.coordLink()
	if cn == nil {
		return errNoCoord
	}
	return cn.send(f)
}

var errNoCoord = errors.New("dist: no route to coordinator")

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

// AcksRelayed: on a star every worker's acks to fellow workers cross
// rank 0, so its death can eat one in flight.
func (e *endpoint) AcksRelayed() bool { return !e.mesh && e.rank != 0 }

func (e *endpoint) ReseedRoot() bool { return e.reseed.CompareAndSwap(true, false) }

func (e *endpoint) PeerBestPrio(rank int) (int, bool) { return peerBestPrio(e.peerPrio, rank) }

// Suspected is true while the link a steal to rank would leave on is
// quarantined by the coordinator's two-phase watchdog or mid-resume on
// a suspended session. (Behind a worker's single star link that is
// every peer at once.)
func (e *endpoint) Suspected(rank int) bool {
	cn := e.route(rank)
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

// meldBound merges a learned bound into the piggyback stamp and, when
// the engine has not yet been told anything at least as strong,
// delivers it, reporting whether it was news. The delivery gate absorbs
// the repetition piggybacking creates (every frame restates the
// sender's best) while never filtering a peer's genuine improvement;
// own broadcasts raise only pbStamp, so a peer's weaker but never-heard
// bound still reaches the handler.
func (e *endpoint) meldBound(from int, obj int64) bool {
	raiseMax(&e.pbStamp, obj)
	if !raiseMax(&e.pbSeen, obj) {
		return false
	}
	if hd := e.handler(); hd != nil {
		hd.OnBound(from, obj)
	}
	return true
}

// retain keeps a published (obj, node) pair if it is the best so far,
// and marks an improvement for the standby's next snapshot. Rank 0 also
// hands the pair to the standby at once, before its caller passes the
// bound on: a snapshot can lag by a quantum (see standbyBound).
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
	// One frame for the life of the loop (recv resets it): it escapes
	// through the detector interface, and must not cost an allocation
	// per frame read. Nothing below keeps &f, or anything f points to
	// (recv's ownership rule), past its iteration.
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
		// Header batching first: the detector's share (a coalesced delta
		// must hit the count before any task in this frame moves on),
		// then the piggybacked bound, merged before serving steals so a
		// reply never carries staler knowledge than its request. Both
		// are cleared: a relayed frame is re-stamped by this endpoint.
		e.term.onFrame(&f)
		if f.HasPB {
			e.meldBound(f.From, f.PB)
			f.HasPB = false
		}
		// The priority summary is NOT cleared: it describes the origin
		// locality, so a relayed frame must deliver it unchanged.
		if f.HasPS && f.From != e.rank {
			notePeerPrio(e.peerPrio, f.From, f.PS)
		}
		switch f.Kind {
		case kSteal, kSplit:
			if f.To != e.rank {
				e.relay(cn, &f)
				break
			}
			thief, seq, want := f.From, f.Seq, f.Want
			if f.Kind == kSteal {
				served, payloads = collectSteal(e.handler(), thief, want, served[:0], payloads[:0])
				e.reply(cn, thief, seq, served)
				break
			}
			// Served off the read loop: the split gate may block briefly
			// waiting for a running worker's next poll point, and this
			// loop must keep draining the link's other traffic.
			go func() { e.reply(cn, thief, seq, collectSplit(e.handler(), thief, want)) }()
		case kStealR:
			if f.To != e.rank {
				e.relay(cn, &f)
				break
			}
			if len(f.Tasks) > 0 {
				e.term.blacken()
			}
			// The engine takes the whole reply here, before its image is read
			// over; the first task travels on, decoded, to a requester that
			// is still waiting.
			ps := e.pending.claim(f.Seq)
			first := adoptTasks(e.handler(), f.Tasks, ps != nil)
			if e.opts.Standby && f.From == 0 && len(f.Tasks) > 0 && f.Tasks[0].ID != 0 {
				// The root is registered here now: name this rank its holder.
				cn.send(&frame{Kind: kHeld, From: e.rank})
			}
			if ps != nil {
				ps.n = len(f.Tasks)
				ps.ch <- first
			}
		case kBound:
			// A node-carrying broadcast is retained, so the optimum
			// outlives its finder — but only the retention wants the
			// blob, so any relay is stripped to the bound itself.
			if len(f.Blob) > 0 {
				e.retain(f.Obj, f.Blob)
				f.Blob = nil
			}
			e.meldBound(f.From, f.Obj)
			if !e.mesh {
				// Relay on every other link — which only the star
				// coordinator has — and unconditionally: a bound stale
				// here can still be news to a rank that has not heard it
				// (the fan-out of a stronger bound excludes its origin).
				e.fanOut(&f, peer)
			}
		case kGossip:
			// Improvements ripple outward, duplicates die out.
			if e.meldBound(f.From, f.Obj) && !e.isCoord() {
				e.gossip(f.Obj, meshGossipFan)
			}
		case kCancel:
			if len(f.Blob) > 0 {
				e.retain(f.Obj, f.Blob)
				f.Blob = nil
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
			e.died(f.Want, nil)
		case kTerminate:
			// A share goes to the rank that ended the search, whose kTerminate
			// can overtake this rank's view of rank 0's death (a mesh).
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
				e.root.hold(snap.Holder)
			}
		case kHeld:
			e.root.hold(f.From)
			e.repl.bump()
		}
	}
}

// reply answers a steal request on the link it arrived on (which
// relays it back if it was relayed here).
func (e *endpoint) reply(cn *wconn, thief int, seq uint64, tasks []WireTask) {
	cn.send(&frame{Kind: kStealR, From: e.rank, To: thief, Seq: seq, Tasks: tasks})
}

// relay forwards a routed frame addressed to another rank. A request
// that cannot be forwarded — the victim is dead, quarantined, or the
// only way to it is back where the frame came from — is answered
// empty-handed at once, so the thief does not ride the steal timeout.
func (e *endpoint) relay(in *wconn, f *frame) {
	out := e.route(f.To)
	request := f.Kind != kStealR
	ok := out != nil && out != in
	if ok && request {
		ok = out.reachable() && !out.suspect.Load()
	}
	if (!ok || out.send(f) != nil) && request {
		in.send(&frame{Kind: kStealR, From: f.To, To: f.From, Seq: f.Seq})
	}
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
		// A direct peer link on a mesh. While rank 0 lives, death
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

// judgeLost mourns the peer behind a lost mesh link once a takeover has
// ended rank 0's authority; a peer that said kLeave first finished and
// exited, it did not die.
func (e *endpoint) judgeLost(peer int, cn *wconn) {
	if e.epoch.Load() == 1 && cn.lost.Load() && !cn.left.Load() {
		e.died(peer, cn)
	}
}

// died runs the death protocol for rank; cn is its link when the
// caller watched it fail, nil for a death learned second-hand (a
// kDeath, a survivor that never rejoined). After normal termination a
// lost link is just the expected disconnect. Before it, the
// supervised-task protocol takes over: pending steals aimed at the
// rank fail fast, the engine is told (Deaths) so its ledger replays the
// subtree roots the dead rank was holding, its gather slot is filled so
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
	e.term.markDead(rank)
}

// terminate ends the search here and, from the coordinator, everywhere.
// It is the detectors' conclusion and the reaction to a kTerminate.
func (e *endpoint) terminate() {
	e.doneOnce.Do(func() {
		close(e.done)
		if e.isCoord() {
			e.fanOut(&frame{Kind: kTerminate, From: e.rank}, e.rank)
		}
	})
}

// endSearch is a cancel at the coordinator: it reaches every rank but
// except at once (on a mesh too), and Done follows it on every link.
func (e *endpoint) endSearch(cancel *frame, except int) {
	e.fanOut(cancel, except)
	e.terminate()
}

func (e *endpoint) Steal(victim int) (WireTask, bool, error) { return e.stealVia(kSteal, victim) }

// SplitSteal's reply is an ordinary kStealR, so correlation and batch
// re-homing are shared with plain steals.
func (e *endpoint) SplitSteal(victim int) (WireTask, bool, error) {
	return e.stealVia(kSplit, victim)
}

func (e *endpoint) stealVia(k kind, victim int) (WireTask, bool, error) {
	if victim < 0 || victim >= e.size || victim == e.rank {
		return WireTask{}, false, fmt.Errorf("dist: steal from invalid rank %d", victim)
	}
	cn := e.route(victim)
	if cn == nil || !cn.reachable() || cn.suspect.Load() {
		// Dead, or quarantined behind a suspended session (a request
		// would sit in the retransmit log until the link heals): fail
		// fast and keep expanding the local frontier instead.
		return WireTask{}, false, nil
	}
	ps := e.pending.register(victim, cn)
	first, got := WireTask{}, false
	if cn.send(&frame{Kind: k, From: e.rank, To: victim, Seq: ps.seq, Want: e.opts.StealBatch}) == nil {
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

// BroadcastBound publishes a bound. The encoded node goes only where
// the retention is — kept locally at the coordinator, one kBound on
// the coordinator link from anyone else — and the bare bound spreads
// by the topology's rule: the star coordinator fans it out (its own,
// here; a worker's, when that kBound arrives), a mesh rank gossips it.
// The mesh coordinator sends nothing at all: piggybacks and its
// anti-entropy tick spread the bound without a per-improvement burst.
// A standby deployment's worker keeps the node too (standbyBound).
func (e *endpoint) BroadcastBound(obj int64, node []byte) error {
	if e.isCoord() {
		e.retain(obj, node) // first: rank 0 hands it to the standby
		raiseMax(&e.pbStamp, obj)
		if !e.mesh {
			e.fanOut(&frame{Kind: kBound, From: e.rank, Obj: obj}, e.rank)
		}
		return nil
	}
	var err error
	if e.opts.Standby {
		err = e.standbyBound(obj, node)
	} else {
		raiseMax(&e.pbStamp, obj)
		if cn := e.coordLink(); cn != nil {
			err = cn.send(&frame{Kind: kBound, From: e.rank, Obj: obj, Blob: node})
		}
	}
	if e.mesh {
		e.gossip(obj, meshGossipFan)
	}
	return err
}

// standbyBound is BroadcastBound's kBound from a standby deployment's
// worker, which keeps the node too, for a rejoin to hand a new
// coordinator. The node leaves before the stamp that piggybacks the
// bound is raised, so no rank learns the bound before rank 0 (which
// hands it on to the standby) or, on a mesh, whose bounds spread rank to
// rank, the standby itself holds the node: a survivor that prunes with a
// bound whose node died with rank 0 never finds that node again.
func (e *endpoint) standbyBound(obj int64, node []byte) error {
	e.retain(obj, node)
	bound := &frame{Kind: kBound, From: e.rank, Obj: obj, Blob: node}
	if s := failoverCandidate(e.size, e.deaths); e.mesh && e.epoch.Load() == 0 && s != e.rank {
		if cn := e.link(s); cn != nil {
			cn.send(bound)
		}
	}
	var err error
	cn := e.coordLink()
	if cn != nil {
		err = cn.send(bound)
	}
	raiseMax(&e.pbStamp, obj)
	if cn == nil {
		// A takeover is re-pointing the link: look again. The node was
		// retained first, for handOver to send if the link is not there.
		if cn = e.coordLink(); cn != nil {
			err = cn.send(bound)
		}
	}
	return err
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

// gossip pushes a bound to up to n distinct random linked ranks for
// whom it is still news: a link that already carried the bound, in
// either direction, as a piggyback or an explicit frame, is skipped, so
// the epidemic spends frames on information, not on re-delivery.
func (e *endpoint) gossip(obj int64, n int) {
	var news []int
	for r := range e.links {
		if cn := e.link(r); cn != nil && cn.hasNews(obj) {
			news = append(news, r)
		}
	}
	rand.Shuffle(len(news), func(i, j int) { news[i], news[j] = news[j], news[i] })
	if len(news) > n {
		news = news[:n]
	}
	for _, r := range news {
		if cn := e.link(r); cn != nil {
			cn.send(&frame{Kind: kGossip, From: e.rank, To: r, Obj: obj})
		}
	}
}

func (e *endpoint) gossipLoop() {
	for {
		every := meshGossipInterval
		if e.isCoord() {
			every = meshCoordGossipInterval
		}
		select {
		case <-e.stop:
			return
		case <-e.done:
			return
		case <-time.After(every):
			if b := e.pbStamp.Load(); b != math.MinInt64 {
				e.gossip(b, 1)
			}
		}
	}
}

// Ack queues a hand-over completion ack towards the origin's ledger.
// Acks coalesce like live-task deltas: the flush tick drains the buffer
// into one kAck batch per link per quantum, so the no-failure cost of
// supervision is one small frame per quantum instead of one per stolen
// task. Retirement latency only delays ledger turnover, never
// correctness.
func (e *endpoint) Ack(origin int, id uint64) error {
	if origin < 0 || origin >= e.size || origin == e.rank {
		return fmt.Errorf("dist: ack to invalid rank %d", origin)
	}
	e.bufferAcks(id)
	return nil
}

func (e *endpoint) bufferAcks(ids ...uint64) {
	e.ackMu.Lock()
	e.ackBuf = append(e.ackBuf, ids...)
	e.ackMu.Unlock()
}

// onAcks takes an incoming batch apart: each id names its own origin.
// This rank's are delivered; the rest were sent here to be relayed and
// join the buffer, to leave with the next drain like self-minted ones.
func (e *endpoint) onAcks(from int, ids []uint64) {
	hd := e.handler()
	for _, id := range ids {
		if TaskOrigin(id) != e.rank {
			e.bufferAcks(id)
			continue
		}
		if hd != nil {
			hd.OnAck(from, id)
		}
	}
}

// drainAcks sends the coalesced acks, one batch per link they leave on:
// a star worker's all ride its coordinator link in one frame, anyone
// with direct links sends each origin its own. The buffer it empties and
// the per-link batches it builds are kept for the next drain: a quantum's
// acks cost no allocation.
func (e *endpoint) drainAcks() {
	e.ackMu.Lock()
	ids := e.ackBuf
	e.ackBuf = e.ackSpare[:0]
	e.ackMu.Unlock()
	e.ackSpare = ids
	if len(ids) == 0 {
		return
	}
	// What cannot leave now goes back into the buffer for the next drain
	// (bufferAcks appends to the other array, never ids).
	for _, id := range ids {
		dest := TaskOrigin(id)
		switch cn := e.route(dest); {
		case cn != nil:
			e.ackOut[cn] = append(e.ackOut[cn], id)
		case dest >= 0 && dest < e.size && !e.deaths.isDead(dest) && !e.isDone():
			// No way there right now, but nobody said the origin died: a
			// takeover is re-pointing the coordinator link. Keep the ack
			// for the next drain — its origin's ledger entry, and the
			// live count under it, wait on it.
			e.bufferAcks(id)
		}
		// Otherwise the origin is dead: its ledger died with it, and the
		// subtree the ack certifies was completed by the sender anyway.
	}
	for cn, ids := range e.ackOut {
		e.ackOut[cn] = ids[:0]
		if cn.dead.Load() {
			delete(e.ackOut, cn)
		}
		for len(ids) > 0 {
			n := min(len(ids), maxStealBatch)
			if cn.send(&frame{Kind: kAck, From: e.rank, Acks: ids[:n]}) != nil {
				e.bufferAcks(ids...)
				break
			}
			ids = ids[n:]
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

// flushTick puts one quantum's coalesced traffic on the wire. Acks go
// first: on the coordinator link their frame absorbs the pending
// live-task delta as a header, so the detector's own flush usually
// finds nothing left and the tick costs one write.
func (e *endpoint) flushTick() {
	e.drainAcks()
	e.flushRepl()
	e.term.tick()
}

// pingLoop keeps the coordinator link audibly alive: whenever nothing
// has been sent on it for a heartbeat, an empty kPing goes out
// (carrying, as every frame does, any coalesced delta and bound
// snapshot). The coordinator's watchdog reads silence beyond
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
// wedged-but-connected workers and SIGKILLed ones converge. It runs
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
				case silent > e.opts.LivenessTimeout+grace:
					cn.close()
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

func (e *endpoint) AddTasks(delta int64) { e.term.add(delta) }

func (e *endpoint) Done() <-chan struct{} { return e.done }

func (e *endpoint) Deaths() <-chan int { return e.deaths.ch }

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
// closed endpoint has nothing to gather.
func (e *endpoint) Gather(payload []byte) ([][]byte, error) {
	<-e.done
	if e.closed.Load() {
		return nil, errors.New("dist: gather on a closed endpoint")
	}
	if !e.isCoord() {
		if err := e.sendCoord(&frame{Kind: kGather, From: e.rank, Blob: payload}); err != nil {
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
// final flush of acks or deltas, no kTerminate, no reply, relay or
// handshake. Done is released, so that this rank's read loops, failing as
// its links go, neither mourn nor take over; then every link and the
// listener are shut at once, which the survivors mourn as they would a
// SIGKILLed process. After Done a mesh rank first says kLeave on every
// link: after a takeover the survivors classify broken peer links
// themselves, and a rank whose kTerminate is still queued behind other
// traffic must read this exit as a finished peer leaving, not a death to
// replay. TCP ordering puts the kLeave ahead of the close on every link.
func (e *endpoint) Close() error {
	if e.mesh && e.isDone() && !e.closed.Load() {
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
