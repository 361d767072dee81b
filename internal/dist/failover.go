package dist

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Coordinator failover (wire protocol v7, replication as of v9). A
// deployment launched with WireOptions.Standby survives rank 0 dying
// mid-search:
//
//   - The hub replicates its residual state — the ranks it has mourned,
//     the retained incumbent, the supervision roots it has handed over
//     (the rank-0 ledger's mirror) and the gather shares it holds — to
//     the lowest live worker rank as one kHubSnap snapshot. Each change
//     bumps a version; the flush tick sends a snapshot when the version
//     has moved since the last one or the standby has changed, so at
//     most one per flush quantum and none while nothing changes. The
//     standby keeps the last snapshot that decoded.
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
//   - The epoch fences generations: a kRejoin for the wrong epoch is
//     refused, and because every stale frame rode a connection that
//     died with the old coordinator, the connection itself is the
//     fence for everything else. One takeover per deployment: if the
//     promoted coordinator dies too, the deployment ends the way a
//     non-standby one does.
//
// Loss windows, accepted and documented: a change made in the flush
// quantum the hub dies in, which no snapshot carries; a bound broadcast
// in flight during the takeover (pruning opportunity, never
// correctness); and the simultaneous death of the hub and the standby
// before the next-lowest rank's first snapshot lands.

// MirrorEntry is one replicated supervision root: a task rank 0
// handed over (WireTask.ID packs origin 0) and the rank holding it.
// If the holder dies after a takeover, the promoted hub replays the
// task — the root of exactly the subtree whose supervision chain died
// with the coordinator.
type MirrorEntry struct {
	Holder int
	Task   WireTask
}

// GatherSlot is one replicated gather contribution (Blob may be nil:
// a dead rank's slot is contributed as nil so the terminal collective
// cannot block on it).
type GatherSlot struct {
	Rank int
	Blob []byte
}

// HubSnapshot is the coordinator's residual state: what a standby needs
// beyond what registration already told it (the spec, the size and the
// peer address table) to adopt the deployment. kHubSnap frames carry it.
type HubSnapshot struct {
	Alive    []bool // rank-indexed liveness, as last decided by the hub
	BestObj  int64  // retained incumbent objective (valid when HasBest)
	BestNode []byte // retained incumbent witness
	HasBest  bool
	Gather   []GatherSlot
	Mirror   []MirrorEntry
}

// encodeHubSnapshot serialises a snapshot (the kHubSnap blob).
func encodeHubSnapshot(s *HubSnapshot) []byte {
	b := binary.AppendUvarint(nil, uint64(len(s.Alive)))
	for _, a := range s.Alive {
		if a {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	if s.HasBest {
		b = append(b, 1)
		b = binary.AppendVarint(b, s.BestObj)
		b = binary.AppendUvarint(b, uint64(len(s.BestNode)))
		b = append(b, s.BestNode...)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(s.Gather)))
	for _, g := range s.Gather {
		b = binary.AppendUvarint(b, uint64(g.Rank))
		if g.Blob != nil {
			b = append(b, 1)
			b = binary.AppendUvarint(b, uint64(len(g.Blob)))
			b = append(b, g.Blob...)
		} else {
			b = append(b, 0)
		}
	}
	// The mirror: its tasks as one batch, then each one's holder.
	ts := make([]WireTask, len(s.Mirror))
	for i, e := range s.Mirror {
		ts[i] = e.Task
	}
	b = appendTasks(b, ts)
	for _, e := range s.Mirror {
		b = binary.AppendUvarint(b, uint64(e.Holder))
	}
	return b
}

// DecodeHubSnapshot parses a snapshot blob. The blob comes off the
// network, so a count it claims is bounded before anything is built
// from it.
func DecodeHubSnapshot(b []byte) (*HubSnapshot, error) {
	r := &frameReader{b: b}
	s := &HubSnapshot{}
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	s.Alive = make([]bool, n)
	for i := range s.Alive {
		v, err := r.byte()
		if err != nil {
			return nil, err
		}
		s.Alive[i] = v != 0
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
	if n, err = r.count(); err != nil {
		return nil, err
	}
	for ; n > 0; n-- {
		rank, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		present, err := r.byte()
		if err != nil {
			return nil, err
		}
		g := GatherSlot{Rank: int(rank)}
		if present != 0 {
			if g.Blob, err = r.bytes(); err != nil {
				return nil, err
			}
		}
		s.Gather = append(s.Gather, g)
	}
	ts, err := parseTasks(r, nil)
	if err != nil {
		return nil, err
	}
	for _, t := range ts {
		holder, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		s.Mirror = append(s.Mirror, MirrorEntry{Holder: int(holder), Task: t})
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("dist: %d trailing bytes in hub snapshot", len(r.b))
	}
	return s, nil
}

// hubMirror is the coordinator's transport-level copy of its own
// ledger roots: every task its locality handed over (origin-0 ids),
// keyed by hand-over id, with the rank currently holding it. The
// original hub maintains it only to replicate it; the promoted hub
// consults it to replay the roots whose holders die after the
// takeover — the one class of work the engine-level ledgers cannot
// resupervise, because their supervision chains rooted at the dead
// coordinator.
type hubMirror struct {
	mu sync.Mutex
	m  map[uint64]MirrorEntry
}

func newHubMirror() *hubMirror { return &hubMirror{m: make(map[uint64]MirrorEntry)} }

func (m *hubMirror) add(holder int, t WireTask) {
	m.mu.Lock()
	m.m[t.ID] = MirrorEntry{Holder: holder, Task: t}
	m.mu.Unlock()
}

// retire drops a completed hand-over (idempotent; acks can race a
// replay exactly like the engine ledgers' retires).
func (m *hubMirror) retire(id uint64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	delete(m.m, id)
	m.mu.Unlock()
}

// takeHolder removes and returns every entry held by rank.
func (m *hubMirror) takeHolder(holder int) []WireTask {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	var ts []WireTask
	for id, e := range m.m {
		if e.Holder == holder {
			ts = append(ts, e.Task)
			delete(m.m, id)
		}
	}
	m.mu.Unlock()
	return ts
}

// entries copies the mirror for a snapshot.
func (m *hubMirror) entries() []MirrorEntry {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	es := make([]MirrorEntry, 0, len(m.m))
	for _, e := range m.m {
		es = append(es, e)
	}
	m.mu.Unlock()
	return es
}

func (m *hubMirror) install(es []MirrorEntry) {
	m.mu.Lock()
	for _, e := range es {
		m.m[e.Task.ID] = e
	}
	m.mu.Unlock()
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

// mirrorHandOver records rank 0's own hand-overs in the failover
// mirror before the reply ships: should the thief die after a
// takeover, the promoted rank replays exactly these supervision roots.
// Unsupervised tasks (ID 0) have nothing to replay. The mirror outlives
// the reply, whose payloads sit in the link's reply buffer, so it keeps
// a copy of each.
func (e *endpoint) mirrorHandOver(thief int, tasks []WireTask) {
	if e.repl == nil {
		return
	}
	for _, t := range tasks {
		if t.ID != 0 {
			t.Payload = append([]byte{}, t.Payload...)
			e.mirror.add(thief, t)
			e.repl.bump()
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
	for rank := 1; rank < e.size; rank++ {
		cn := e.link(rank)
		if cn == nil || cn.mourned.Load() {
			continue
		}
		if v := r.version.Load(); v != r.sent || cn != r.to {
			if cn.send(&frame{Kind: kHubSnap, Blob: e.snapshotBlob()}) == nil {
				r.sent, r.to = v, cn
			}
		}
		return
	}
}

// snapshotBlob captures the coordinator's residual state for a
// kHubSnap.
func (e *endpoint) snapshotBlob() []byte {
	s := &HubSnapshot{Alive: make([]bool, e.size), Mirror: e.mirror.entries()}
	for r := range s.Alive {
		s.Alive[r] = !e.deaths.isDead(r)
	}
	s.BestObj, s.BestNode, s.HasBest = e.inc.best()
	e.gatherMu.Lock()
	for r, c := range e.contrib {
		if c {
			s.Gather = append(s.Gather, GatherSlot{Rank: r, Blob: e.blobs[r]})
		}
	}
	e.gatherMu.Unlock()
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
	// ack relayed through the dying coordinator may be gone. The wave
	// stops summing rank 0 and re-elects the lowest live rank as
	// initiator — the very rank elected below.
	old.dead.Store(true)
	e.deaths.announce(0)
	e.term.markDead(0)
	cand := failoverCandidate(e.size, e.deaths)
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
		return true
	}
	e.coord.Store(int32(cand))
	if e.links[cand].Load() != nil {
		// Role migration: the link to the new coordinator already
		// exists (a mesh), coordinator traffic just changes direction.
		return true
	}
	return e.rejoin(cand, rep)
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
	e.mirror.install(snap.Mirror)
	if snap.HasBest {
		e.inc.keep(snap.BestObj, snap.BestNode)
		raiseMax(&e.pbStamp, snap.BestObj)
	}
	if e.count != nil {
		e.count.own(rep)
	}
	e.coord.Store(int32(e.rank))
	// Rank 0 will never contribute to the gather; neither will anyone
	// it had already mourned. Contributions it had collected survive
	// via the replica.
	e.contribute(0, nil)
	for r, alive := range snap.Alive {
		if !alive && r > 0 && r < e.size {
			e.deaths.announce(r)
		}
	}
	for _, g := range snap.Gather {
		if g.Rank != e.rank {
			e.contribute(g.Rank, g.Blob)
		}
	}
	var dead, missing []int
	for r := 1; r < e.size; r++ {
		switch {
		case r == e.rank:
		case e.deaths.isDead(r):
			dead = append(dead, r)
			e.term.markDead(r)
			e.contribute(r, nil)
		case e.links[r].Load() == nil:
			missing = append(missing, r)
		}
	}
	go e.livenessLoop()
	go func() {
		// The rejoin window: every survivor this rank has no link to
		// re-dials the promotion listener and presents a kRejoin. One
		// that never makes it back within the liveness window is dead.
		e.acceptLinks(time.Now().Add(e.opts.LivenessTimeout), len(missing), e.admitRejoin)
		if e.closed.Load() {
			return
		}
		for _, r := range missing {
			if e.links[r].Load() == nil {
				e.died(r, nil)
			}
		}
		// The dead holders' mirrored hand-overs are the one set of
		// supervision roots no surviving ledger replays.
		for _, r := range dead {
			e.replayMirror(r)
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
	go e.readLoop(r, cn)
	return nil
}

// replayMirror re-enqueues the dead holder's replicated rank-0
// hand-overs as local work (blackening first: on a mesh the migration
// must be visible to the token before the work is). Re-execution is
// replay-safe (the engine's death-replay invariant); a late ack for a
// replayed id is absorbed by the mirror's idempotent retire.
func (e *endpoint) replayMirror(holder int) {
	if ts := e.mirror.takeHolder(holder); len(ts) > 0 {
		e.term.blacken()
		adoptTasks(e.handler(), ts, false)
	}
}

// rejoin re-attaches a star survivor to the promoted coordinator: dial
// the candidate's promotion listener (pre-bound at registration, so the
// dial succeeds even before the candidate finishes promoting), present
// the kRejoin, and enter the new link into the table.
func (e *endpoint) rejoin(cand int, rep int64) bool {
	if cand >= len(e.peerAddrs) || e.peerAddrs[cand] == "" {
		return false
	}
	hello := &frame{Kind: kRejoin, From: e.rank, Want: int(e.epoch.Load()), Obj: rep}
	cn, err := e.dialLink(e.peerAddrs[cand], cand, hello)
	if err != nil {
		return false
	}
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
	e.install(cand, cn)
	// A bound published while this link was being made found no link to
	// leave on, and the kRejoin carries only what was known when it was
	// stamped: repeat what it missed. (BroadcastBound raises the stamp
	// before it looks for the link, so one of the two sees the other.)
	if b := e.pbStamp.Load(); b != math.MinInt64 && !(hello.HasPB && hello.PB >= b) {
		cn.send(&frame{Kind: kBound, From: e.rank, Obj: b})
	}
	go e.readLoop(cand, cn)
	return true
}
