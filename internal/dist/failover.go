package dist

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Coordinator failover (wire protocol v7, replication as of v11). A
// deployment launched with WireOptions.Standby survives rank 0 dying
// mid-search:
//
//   - Rank 0 runs no workers (core.Config.Standby), so the one task it
//     ever hands over under supervision is the root. It replicates to
//     the lowest live worker rank, as one kHubSnap snapshot per flush
//     quantum in which something changed (hubRepl), what no survivor's
//     ledger or link can rebuild: who holds that hand-over (rootHolder)
//     and the retained incumbent. The standby keeps the last snapshot
//     that decoded. The ranks rank 0 mourned are not replicated: each
//     kDeath reaches the standby on the same link ahead of any later
//     snapshot.
//   - Every worker pre-binds a promotion listener at registration and
//     the table of those addresses is exchanged (kPeerAddr/kPeers,
//     the mesh's own mechanism, now spoken by standby stars too).
//   - On hub death each worker independently elects the lowest rank
//     not known dead — exactly the rank the hub was replicating to,
//     and on a mesh exactly the rank the termination wave re-elects
//     as token initiator. The candidate promotes itself (epoch 1),
//     seeding the role from its snapshot, and the rest re-dial its
//     promotion listener, presenting a kRejoin that carries their
//     cumulative live-task contribution, from which the promoted hub
//     rebuilds the global live count.
//   - Every hand-over but the root's is supervised by a surviving
//     ledger. The root is seeded again by the successor's engine, at the
//     death that loses it: rank 0's with the root's holder unknown or
//     dead, or the holder's after it (rootHolder, ReseedRoot).
//   - Every survivor hands the promoted rank the node it retained: its
//     best, or with a cancel it sent or heard the witness, which ends the
//     search there (handOver). No takeover follows Done, before which
//     nothing is gathered.
//   - The epoch fences generations: a kRejoin for the wrong epoch is
//     refused, and because every stale frame rode a connection that
//     died with the old coordinator, the connection itself is the
//     fence for everything else. One takeover per deployment: if the
//     promoted coordinator dies too, the deployment ends the way a
//     non-standby one does.
//
// Loss windows, accepted and documented: a change made in the flush
// quantum the hub dies in, which no snapshot carries (a missing or stale
// holder costs a second search of the tree, never the answer); a bound
// broadcast in flight during the takeover (pruning opportunity, never
// correctness); a death the hub mourned but died before fanning out,
// which a star's rejoin window mourns again; and the simultaneous death
// of the hub and the standby before the next-lowest rank's first
// snapshot lands.

// HubSnapshot is the coordinator's residual state: what a standby needs
// beyond what registration already told it (the spec, the size and the
// peer address table) and what the kDeath fan-out tells it (the mourned
// ranks) to adopt the deployment. kHubSnap frames carry it.
type HubSnapshot struct {
	Holder   int    // the rank holding rank 0's supervised hand-over, -1 when none
	BestObj  int64  // retained incumbent objective (valid when HasBest)
	BestNode []byte // retained incumbent witness
	HasBest  bool
}

// encodeHubSnapshot serialises a snapshot (the kHubSnap blob).
func encodeHubSnapshot(s *HubSnapshot) []byte {
	b := binary.AppendVarint(nil, int64(s.Holder))
	if s.HasBest {
		b = append(b, 1)
		b = binary.AppendVarint(b, s.BestObj)
		b = binary.AppendUvarint(b, uint64(len(s.BestNode)))
		b = append(b, s.BestNode...)
	} else {
		b = append(b, 0)
	}
	return b
}

// DecodeHubSnapshot parses a snapshot blob. The blob comes off the
// network, so a count it claims is bounded before anything is built
// from it.
func DecodeHubSnapshot(b []byte) (*HubSnapshot, error) {
	r := &frameReader{b: b}
	s := &HubSnapshot{}
	holder, err := r.varint()
	if err != nil {
		return nil, err
	}
	s.Holder = int(holder)
	has, err := r.byte()
	if err != nil {
		return nil, err
	}
	if has != 0 {
		if s.BestObj, err = r.varint(); err != nil {
			return nil, err
		}
		if s.BestNode, err = r.bytes(); err != nil {
			return nil, err
		}
		s.HasBest = true
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("dist: %d trailing bytes in hub snapshot", len(r.b))
	}
	return s, nil
}

// hubRepl paces rank 0's replication: every change to what the standby
// replicates bumps version, and the flush tick sends a snapshot when the
// version has moved since the last one or the standby has changed.
type hubRepl struct {
	version atomic.Uint64
	sent    uint64 // the version the last snapshot carried (flush loop only)
	to      *wconn // and the link it left on
}

// bump records a change to the replicated state (a no-op off rank 0).
func (r *hubRepl) bump() {
	if r != nil {
		r.version.Add(1)
	}
}

// rootHolder is who holds a standby deployment's root — rank 0's one
// supervised hand-over, which no ledger replays once rank 0 is dead — and
// the one rule for when it is lost. A rank is named the holder only once
// its share of the live count covers the root (its kHeld), so no death
// leaves the count to end the search on a root that is nowhere.
type rootHolder struct {
	dead   func(rank int) bool
	mu     sync.Mutex
	rank   int  // -1 while none is known
	seeded bool // the root was registered again, which happens once
}

// hold names rank the holder; not once rank 0 is dead, whose death was
// judged without it.
func (h *rootHolder) hold(rank int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.dead(0) {
		h.rank = rank
	}
}

func (h *rootHolder) held() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.rank
}

// judge announces rank's death, first asking seed to register the root
// again if the death loses it: rank 0 is dead and the holder unknown or
// dead, rank counted dead, and the root has not been registered again.
// seed reports whether it registered it (only the successor does). One
// lock covers the judgment and the announcement, so of two deaths that
// race one is judged with the other announced: the root is registered
// once, and before the death that loses it is announced or reconciled.
func (h *rootHolder) judge(rank int, seed func() bool, announce func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	dead := func(r int) bool { return r == rank || h.dead(r) }
	if !h.seeded && dead(0) && (h.rank < 0 || dead(h.rank)) {
		h.seeded = seed()
	}
	announce()
}

// failoverCandidate is the takeover election every survivor computes
// independently: the lowest worker rank not known dead — exactly the
// rank the hub replicated to, and (on a mesh) exactly the rank the
// termination wave re-elects as initiator. -1 when no one is left.
func failoverCandidate(size int, deaths *deathBox) int {
	for r := 1; r < size; r++ {
		if !deaths.isDead(r) {
			return r
		}
	}
	return -1
}

// ---- the replicating side (rank 0) -------------------------------------

// announceDeath announces rank's death here, first registering the root
// for the engine to seed again (ReseedRoot) if this rank took rank 0's
// role over and the death loses the root (rootHolder.judge).
func (e *endpoint) announceDeath(rank int) {
	e.root.judge(rank, func() bool {
		if !e.succ.Load() {
			return false
		}
		e.term.add(1)
		e.reseed.Store(true)
		return true
	}, func() { e.deaths.announce(rank) })
}

// flushRepl sends the standby — the lowest live worker rank, the one
// the survivors would elect — a snapshot once per flush quantum, if the
// last one it was sent is out of date.
func (e *endpoint) flushRepl() {
	r := e.repl
	if r == nil {
		return
	}
	if cn := e.standby(); cn != nil {
		if v := r.version.Load(); v != r.sent || cn != r.to {
			if cn.send(&frame{Kind: kHubSnap, Blob: e.snapshotBlob()}) == nil {
				r.sent, r.to = v, cn
			}
		}
	}
}

// standby is rank 0's link to the rank it replicates to: the lowest
// worker rank it has a live link to.
func (e *endpoint) standby() *wconn {
	for rank := 1; rank < e.size; rank++ {
		if cn := e.link(rank); cn != nil && !cn.mourned.Load() {
			return cn
		}
	}
	return nil
}

// snapshotBlob captures the coordinator's residual state for a
// kHubSnap.
func (e *endpoint) snapshotBlob() []byte {
	s := &HubSnapshot{Holder: e.root.held()}
	s.BestObj, s.BestNode, s.HasBest = e.inc.best()
	return encodeHubSnapshot(s)
}

// ---- takeover ----------------------------------------------------------

// takeover is the reaction to losing the coordinator's link. It reports
// true when the deployment carries on under a new coordinator — this
// rank, having acquired the role, or the elected one, to which this
// rank's coordinator traffic now goes — and false when it cannot: not a
// standby deployment, a normal post-termination disconnect, a second
// coordinator death, nobody left.
func (e *endpoint) takeover(old *wconn) bool {
	if !e.opts.Standby || e.isDone() || !e.epoch.CompareAndSwap(0, 1) {
		return false
	}
	// The engine must learn rank 0 died: its ledger replays the
	// hand-overs rank 0 held — on a star every outstanding one, since an
	// ack relayed through the dying coordinator may be gone — and the
	// successor's seeds the root again if it died with rank 0. The wave
	// stops summing rank 0 and re-elects the lowest live rank as
	// initiator — the very rank elected below.
	old.dead.Store(true)
	for r := 1; r < e.size; r++ {
		if cn := e.links[r].Load(); cn != nil {
			e.judgeLost(r, cn)
		}
	}
	cand := failoverCandidate(e.size, e.deaths)
	e.succ.Store(cand == e.rank)
	e.announceDeath(0)
	e.term.markDead(0)
	if cand < 0 {
		return false
	}
	var rep int64
	if e.count != nil {
		// Under the old link's write lock no send is mid-flight, so the
		// settled contribution is exact.
		old.wmu.Lock()
		rep = e.count.settle()
		old.wmu.Unlock()
	}
	if cand == e.rank {
		e.acquireRole(rep)
		e.handOver(nil)
		return true
	}
	e.coord.Store(int32(cand))
	// Role migration: the link to the new coordinator already exists (a
	// mesh), coordinator traffic just changes direction. A star survivor
	// rejoins, which hands over on the new link.
	if cn := e.links[cand].Load(); cn != nil {
		e.handOver(cn)
		return true
	}
	return e.rejoin(cand, rep)
}

// handOver sends the elected coordinator, on cn, the node this rank
// retained, which rank 0 may have died with: its best, as a kBound, or the
// witness of a cancel it sent or heard, as a kCancel that ends the search —
// here, if this rank was elected (no witness, no end: the search would
// report none). A publication retains, then looks for the coordinator link:
// on a mesh it finds cn or this reads its node; a star rejoiner installs cn
// right after this reads, and only a publication in between goes unsent.
func (e *endpoint) handOver(cn *wconn) {
	obj, node, ok := e.inc.best()
	kind := kBound
	if e.cancelled.Load() {
		kind = kCancel
	}
	switch {
	case !ok:
	case !e.isCoord():
		cn.send(&frame{Kind: kind, From: e.rank, Obj: obj, Blob: node})
	case kind == kCancel:
		e.endSearch(&frame{Kind: kCancel, From: e.rank, Obj: obj}, e.rank)
	}
}

// acquireRole makes this endpoint the coordinator, in place: the role's
// state is seeded from what rank 0 replicated here, the count (on a
// star) moves here, and the links the role needs but this rank lacks —
// on a star, all of them — are taken through the same accept loop
// registration used, on the listener pre-bound for it.
func (e *endpoint) acquireRole(rep int64) {
	snap := e.replica.Load()
	if snap == nil {
		snap = &HubSnapshot{} // rank 0 died before its first snapshot reached here
	}
	if snap.HasBest {
		e.inc.keep(snap.BestObj, snap.BestNode)
		raiseMax(&e.pbStamp, snap.BestObj)
	}
	if e.count != nil {
		e.count.own(rep)
	}
	e.coord.Store(int32(e.rank))
	// Rank 0 will never contribute to the gather; every rank it mourned
	// was mourned here too, slot and all, by its kDeath.
	e.contribute(0, nil)
	var missing []int
	for r := 1; r < e.size; r++ {
		if r != e.rank && !e.deaths.isDead(r) && e.links[r].Load() == nil {
			missing = append(missing, r)
		}
	}
	go e.livenessLoop()
	go func() {
		// The rejoin window: every survivor this rank has no link to
		// re-dials the promotion listener and presents a kRejoin. One
		// that never makes it back within the liveness window is dead.
		e.acceptLinks(time.Now().Add(e.opts.LivenessTimeout), len(missing), e.admitRejoin)
		for _, r := range missing {
			if e.links[r].Load() == nil {
				e.died(r, nil)
			}
		}
		if e.count != nil {
			e.count.release()
		}
		if e.sessions != nil && e.ln != nil {
			// The window is over; the listener now serves session
			// resumes for the links it just accepted.
			acceptResumes(e.ln, e.sessions, &e.closed)
		}
	}()
}

// admitRejoin admits one survivor into the promoted coordinator's link
// table (acceptLinks' admit, after a takeover). The kRejoin carries the
// rank's cumulative live-task contribution — from which the count is
// rebuilt — and, like any frame, its pending delta, bound and summary.
func (e *endpoint) admitRejoin(cn *wconn, rj *frame) error {
	r := rj.From
	if rj.Kind != kRejoin || rj.Want != int(e.epoch.Load()) || r <= 0 || r >= e.size || r == e.rank ||
		e.deaths.isDead(r) || e.links[r].Load() != nil {
		return fmt.Errorf("bad rejoin from %v", cn.cur.Load().c.RemoteAddr())
	}
	// The rejoining worker minted a fresh session for the promoted
	// link and carried its id in the kRejoin.
	e.acceptSession(cn, rj.Seq)
	cn.attachFault(e.opts.Fault, e.rank, r)
	e.term.onFrame(rj)
	if rj.HasPB && e.meldBound(r, rj.PB) {
		// A bound raised during the takeover blackout has no explicit
		// broadcast in flight anymore: relay it like one.
		e.fanOut(&frame{Kind: kBound, From: r, Obj: rj.PB}, r)
	}
	if rj.HasPS {
		notePeerPrio(e.peerPrio, r, rj.PS)
	}
	// The welcome must be the first frame r reads, so it goes out
	// before the link enters the table and fan-outs can reach it. It
	// carries, like every frame, the bound known right now; whatever a
	// fan-out said between that stamp and the install is repeated here
	// — each raised pbStamp, or announced its death, before it looked
	// for r's link and found none. Nothing the coordinator learned
	// while r was on its way back is lost to it.
	welcome := &frame{Kind: kWelcome, From: e.rank, To: r, Want: e.size}
	cn.send(welcome)
	e.install(r, cn)
	if b := e.pbStamp.Load(); b != math.MinInt64 && !(welcome.HasPB && welcome.PB >= b) {
		cn.send(&frame{Kind: kBound, From: e.rank, Obj: b})
	}
	for dead := 1; dead < e.size; dead++ {
		if dead != r && e.deaths.isDead(dead) {
			cn.send(&frame{Kind: kDeath, From: e.rank, Want: dead})
		}
	}
	if e.isDone() {
		// A cancel ended the search in the rejoin window, before r's link
		// was there for its fan-outs (terminate closes done first).
		cn.send(&frame{Kind: kCancel, From: e.rank})
		cn.send(&frame{Kind: kTerminate, From: e.rank})
	}
	go e.readLoop(r, cn)
	return nil
}

// rejoin re-attaches a star survivor to the promoted coordinator: dial
// the candidate's promotion listener (pre-bound at registration, so the
// dial succeeds even before the candidate finishes promoting), present
// the kRejoin, hand over, install the link, and await the welcome.
func (e *endpoint) rejoin(cand int, rep int64) bool {
	if cand >= len(e.peerAddrs) || e.peerAddrs[cand] == "" {
		return false
	}
	hello := &frame{Kind: kRejoin, From: e.rank, Want: int(e.epoch.Load()), Obj: rep}
	cn, err := e.dialLink(e.peerAddrs[cand], cand, hello)
	if err != nil {
		return false
	}
	// The retained node follows the kRejoin, whose stamp may carry its
	// bound, at once: no frame stamped here can overtake it.
	e.handOver(cn)
	e.install(cand, cn)
	c := cn.cur.Load().c
	c.SetReadDeadline(time.Now().Add(dialTimeout))
	var welcome frame
	if err := cn.recv(&welcome); err != nil || welcome.Kind != kWelcome {
		cn.close()
		return false
	}
	c.SetReadDeadline(time.Time{})
	// The welcome piggybacks the promoted coordinator's bound stamp like
	// any other frame; received outside the read loop, it must be melded
	// here or news learned during the blackout would be dropped (the
	// sender has already marked it carried by this connection).
	if welcome.HasPB {
		e.meldBound(welcome.From, welcome.PB)
	}
	go e.readLoop(cand, cn)
	return true
}
