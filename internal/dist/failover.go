package dist

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// Coordinator failover (wire protocol v7, replication as of v13). A
// deployment launched with WireOptions.Standby survives rank 0 dying
// mid-search:
//
//   - Rank 0 runs no workers (Transport.Standby), so the one task it
//     ever hands over under supervision is the root. It replicates to
//     the lowest live worker rank, as one kHubSnap snapshot per flush
//     quantum in which something changed (hubRepl), what no survivor's
//     ledger or link can rebuild: that hand-over's holder and id (the
//     last kHeld) and the retained incumbent. The standby keeps the last
//     snapshot that decoded. The ranks rank 0 mourned are not
//     replicated: each kDeath reaches the standby on the same link ahead
//     of any later snapshot.
//   - On hub death each worker independently elects the lowest rank
//     not known dead — exactly the rank the hub was replicating to,
//     and exactly the rank the termination wave re-elects as token
//     initiator. The candidate promotes itself (epoch 1), seeding the
//     role from its snapshot; the rest send their coordinator traffic
//     on the link to it, which registration opened (the wave needs no
//     count rebuilt).
//   - A takeover is one ordered step: each survivor's engine hears of
//     rank 0's death (DeathHearer) before anything is promoted or
//     handed over. The successor's engine first takes rank 0's ledger
//     entry for the root over (Root): held by the named holder, or,
//     unknown or dead, by rank 0, so the same death replays it. From then
//     on the root is supervised like every other hand-over: its holder's
//     death replays it, and its holder's ack, which now goes to the
//     coordinator (drainAcks), retires it and commits its value there.
//     A rank keeps the last ack it sent towards rank 0 and hands it to
//     the new coordinator, in case it died with rank 0.
//   - Every survivor hands the promoted rank the node it retained: its
//     best, or with a cancel it sent or heard the witness, which ends the
//     search there, and the root's last ack (handOver). No takeover
//     follows Done, before which nothing is gathered.
//   - Every stale frame rode a connection that died with the old
//     coordinator, so the connection itself is the fence between
//     generations. One takeover per deployment (the epoch): if the
//     promoted coordinator dies too, the deployment ends the way a
//     non-standby one does.
//
// Loss windows, accepted and documented: a change made in the flush
// quantum the hub dies in, which no snapshot carries (a missing or stale
// holder replays the root at the successor while its real holder
// searches it too, whose ack then retires nothing: a second search of
// the tree, never the answer); a bound
// broadcast in flight during the takeover (pruning opportunity, never
// correctness); and the simultaneous death of the hub and the standby
// before the next-lowest rank's first snapshot lands. (A death the hub
// mourned but died before fanning out is judged again by every survivor
// whose link to the dead rank broke: judgeLost.) A partition that cuts
// the standby from rank 0 alone promotes it while rank 0 lives (doc.go).

// HubSnapshot is the coordinator's residual state: what a standby needs
// beyond what registration already told it (the spec, the size and the
// peer address table) and what the kDeath fan-out tells it (the mourned
// ranks) to adopt the deployment. kHubSnap frames carry it.
type HubSnapshot struct {
	Holder   int    // the rank holding rank 0's supervised hand-over, -1 when none
	RootID   uint64 // that hand-over's id (valid when Holder >= 0)
	BestObj  int64  // retained incumbent objective (valid when HasBest)
	BestNode []byte // retained incumbent witness
	HasBest  bool
}

// encodeHubSnapshot serialises a snapshot (the kHubSnap blob).
func encodeHubSnapshot(s *HubSnapshot) []byte {
	b := binary.AppendVarint(nil, int64(s.Holder))
	b = binary.AppendUvarint(b, s.RootID)
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
	if s.RootID, err = r.uvarint(); err != nil {
		return nil, err
	}
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
	sent    uint64 // the version of the last snapshot sent (flush loop only)
	to      *wconn // and the link it left on
}

// bump records a change to the replicated state (a no-op off rank 0).
func (r *hubRepl) bump() {
	if r != nil {
		r.version.Add(1)
	}
}

// heldRoot is who holds a standby deployment's root, rank 0's one
// supervised hand-over, as rank 0 knows it: the thief whose kHeld came, so
// whose share of the live count covers the root, and the hand-over's id.
type heldRoot struct {
	rank int
	id   uint64
}

// failoverCandidate is the takeover election every survivor computes
// independently: the lowest worker rank not known dead — exactly the
// rank the hub replicated to, and exactly the rank the termination wave
// re-elects as initiator. -1 when no one is left.
func failoverCandidate(size int, deaths deathBox) int {
	for r := 1; r < size; r++ {
		if !deaths.isDead(r) {
			return r
		}
	}
	return -1
}

// ---- the replicating side (rank 0) -------------------------------------

// announceDeath announces rank's death here, once, and tells the engine
// before it returns (DeathHearer): whatever its caller does about the
// death comes after the engine's replays.
func (e *endpoint) announceDeath(rank int) {
	if e.deaths.announce(rank) {
		if dh, ok := e.handler().(DeathHearer); ok {
			dh.OnDeath(rank)
		}
	}
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
	s := &HubSnapshot{Holder: -1}
	if r := e.root.Load(); r != nil {
		s.Holder, s.RootID = r.rank, r.id
	}
	s.BestObj, s.BestNode, s.HasBest = e.inc.best()
	return encodeHubSnapshot(s)
}

// ---- takeover ----------------------------------------------------------

// takeover is the reaction to losing the coordinator's link. It reports
// true when the deployment carries on under a new coordinator — this
// rank, having acquired the role, or the elected one, to which this
// rank's coordinator traffic now goes — and false when it cannot: not a
// standby deployment, a normal post-termination disconnect, a rank that
// stopped (Close, or its own kDeath), a second coordinator death, nobody
// left.
func (e *endpoint) takeover(old *wconn) bool {
	if !e.opts.Standby || e.isDone() || !e.epoch.CompareAndSwap(0, 1) {
		return false
	}
	// The engine learns rank 0 died before anything below happens: its
	// ledger replays the hand-overs rank 0 held, and the successor's
	// takes the root's entry over (Root), registering it before rank 0's
	// contribution is reconciled away. The wave stops summing rank 0 and
	// re-elects the lowest live rank as initiator — the very rank
	// elected below.
	old.dead.Store(true)
	for r := 1; r < e.size; r++ {
		if cn := e.links[r].Load(); cn != nil {
			e.judgeLost(r, cn)
		}
	}
	cand := failoverCandidate(e.size, e.deaths)
	e.succ.Store(cand == e.rank)
	e.announceDeath(0)
	e.wave.markDead(0)
	if cand < 0 {
		return false
	}
	if cand == e.rank {
		e.acquireRole()
		e.handOver(nil)
		return true
	}
	// Role migration: the link to the new coordinator exists since
	// registration; coordinator traffic just changes direction.
	e.coord.Store(int32(cand))
	e.handOver(e.links[cand].Load())
	return true
}

// handOver sends the elected coordinator, on cn, the node this rank
// retained, which rank 0 may have died with: its best, as a kBound, or the
// witness of a cancel it sent or heard, as a kCancel that ends the search —
// here, if this rank was elected (no witness, no end: the search would
// report none). A publication retains, then looks for the coordinator link,
// which is in place before this reads: it finds the link, or this reads
// its node.
// The last ack this rank sent towards rank 0 goes again, to the coordinator
// (drainAcks): rank 0 may have died before it retired the root's entry, or
// it reached the elected rank before that rank held the role. The old link
// was marked dead before this runs, and drainAcks keeps an ack before it
// looks for its link, so a drain racing the takeover either kept it for
// this to read or finds no link to rank 0.
func (e *endpoint) handOver(cn *wconn) {
	if a := e.rootAck.Load(); a != nil {
		e.bufferAcks(*a)
	}
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
// state is seeded from what rank 0 replicated here, and the links the
// role needs exist since registration. The best node it then holds, its
// own or the snapshot's, goes out on every link as a kBound: rank 0 may
// have died before its own fan-out reached every rank.
func (e *endpoint) acquireRole() {
	snap := e.replica.Load()
	if snap == nil {
		snap = &HubSnapshot{} // rank 0 died before its first snapshot reached here
	}
	if snap.HasBest {
		e.inc.keep(snap.BestObj, snap.BestNode)
	}
	if obj, node, ok := e.inc.best(); ok {
		e.fanOut(&frame{Kind: kBound, From: e.rank, Obj: obj, Blob: node}, e.rank)
	}
	e.coord.Store(int32(e.rank))
	// Rank 0 will never contribute to the gather; every rank it mourned
	// was mourned here too, slot and all, by its kDeath.
	e.contribute(0, nil)
	go e.livenessLoop()
}
