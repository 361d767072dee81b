package dist

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// The TCP transport realises a deployment of real OS processes: one
// coordinator (rank 0) and n workers (ranks 1..n), every one of them
// an endpoint (endpoint.go). This file holds what lies beneath and
// before the endpoint: the options, the frame kinds, the framed
// connection (wconn), and registration — Listener.Wait on the
// coordinator's side, Dial on a worker's.
//
// Frames are the binary format of frame.go. Three amortisations
// distinguish it from the v1 gob protocol:
//
//   - steal replies carry up to StealBatch tasks, so one round trip
//     moves a batch instead of a single task;
//   - live-task deltas are coalesced per locality and flushed at most
//     once per FlushQuantum (or piggybacked on whatever frame leaves
//     first), instead of one kDelta frame per spawn;
//   - every outgoing frame piggybacks the sender's best known bound,
//     so incumbent knowledge rides along with ordinary traffic.

const (
	// dial keeps retrying (the coordinator may not be listening yet).
	dialTimeout = 30 * time.Second
	// wireVersion is checked at registration: v1 (gob), v2 (binary
	// frames), v3 (per-task priorities + priority summaries), v4
	// (hand-over ids, completion acks, death notification, heartbeats),
	// v5 (mesh topology: peer address exchange, direct peer frames,
	// bound gossip, termination-wave tokens) and v6 (on-demand stack
	// splitting: kSplit requests served by splitting a running worker's
	// live generator stack), v7 (coordinator failover: hub state
	// replication to a standby, epoch-fenced rejoin after a takeover),
	// v8 (link-fault tolerance: a sequence + CRC32C frame trailer and
	// resumable sessions, see session.go), v9 (the standby replicated
	// by snapshot alone: the delta frame gone, the kinds after it
	// renumbered), v10 (the snapshot names the root's holder, which
	// kHeld confirms, in place of the hand-over mirror) and v11 (the
	// snapshot carries no gather shares: nothing is gathered before
	// Done) — peers must not silently garble each other.
	wireVersion = 11
)

// stealTimeout bounds a steal request whose reply never arrives; a
// reply landing after it is adopted as local work all the same. A
// variable so tests can exercise the late-reply path without the full
// wait.
var stealTimeout = 10 * time.Second

// WireOptions tunes the v2 framing layer.
type WireOptions struct {
	// StealBatch is the maximum number of tasks requested per steal
	// (the victim may serve fewer — the engine hands over a run from
	// its best bucket and at most half of that). The thief keeps one
	// task for the requesting worker and enqueues the extras
	// (BatchAdopter). Default DefaultStealBatch; 1 disables batching.
	StealBatch int
	// FlushQuantum is the pool quantum of delta coalescing: a
	// locality's accumulated live-task delta is flushed at most this
	// often when no other outgoing frame carries it first. Larger
	// quanta mean fewer frames but slower termination detection.
	// Default DefaultFlushQuantum.
	FlushQuantum time.Duration
	// RegTimeout bounds the coordinator's registration window: Wait
	// fails, reporting the missing ranks, if the expected workers have
	// not all registered within it. Default DefaultRegTimeout.
	RegTimeout time.Duration
	// Heartbeat is the liveness cadence: a worker that has sent
	// nothing for a Heartbeat pings the coordinator, and the
	// coordinator checks every connection's last-received stamp at the
	// same cadence. Default DefaultHeartbeat.
	Heartbeat time.Duration
	// LivenessTimeout is how long the coordinator tolerates silence on
	// a worker connection before declaring the worker dead (a SIGKILL
	// is usually noticed much sooner, through the broken connection;
	// the timeout catches wedged processes and silent network drops).
	// It must cover the worker's slowest gap between registration and
	// its first frame — typically instance loading. Default
	// DefaultLivenessTimeout.
	LivenessTimeout time.Duration
	// Topology selects how worker↔worker traffic flows. TopologyStar
	// (the default) routes everything through the coordinator and
	// detects termination by the hub's global live-task count.
	// TopologyMesh has workers dial each other directly for steal,
	// reply, and ack traffic, spreads bounds epidemic-style, and
	// replaces the hub count with a Safra-style termination wave; the
	// coordinator shrinks to registration, incumbent retention, death
	// detection, and aggregation. Both sides of a deployment must agree
	// (the topology is folded into the spec check at registration).
	Topology string
	// Standby arms coordinator failover: the hub replicates its
	// residual state (the rank holding its hand-over, the incumbent)
	// to the lowest live worker rank, every worker
	// pre-binds a promotion listener whose address is exchanged at
	// registration, and on rank 0's death the replicated rank promotes
	// itself while the rest re-dial it. Rank 0 must hand over one task
	// under supervision, the root, which core guarantees by running it
	// with zero workers (core.Config.Standby); a root lost with rank 0 or
	// after it is seeded again (Transport.ReseedRoot). Costs at most one
	// snapshot per flush quantum hub→standby; off by default. Both sides
	// of a deployment must agree (folded into the spec check).
	Standby bool
	// LinkGrace arms the v8 resumable-session layer: on an I/O error
	// (or frame corruption) both sides of a connection keep the logical
	// session alive for this long, the dialing side reconnects, and a
	// kResume handshake retransmits exactly the frames the other side
	// missed — no death notice, no ledger replay, no failover. The
	// liveness watchdog becomes two-phase: heartbeat silence past
	// LivenessTimeout first *suspects* a rank (steals bypass it), and
	// mourns only after LivenessTimeout+LinkGrace. Zero disables
	// sessions entirely (crash-stop, the pre-v8 behaviour). Both sides
	// of a deployment must agree (folded into the spec check).
	LinkGrace time.Duration
	// Fault, when non-nil, injects deterministic link faults (latency,
	// loss, duplication, corruption, reordering, partitions) around
	// every frame this endpoint sends. In-process test deployments
	// share one plan across all endpoints; see FaultPlan.
	Fault *FaultPlan
}

// Topology values for WireOptions.Topology (and the engine-level
// configuration that feeds it).
const (
	TopologyStar = "star"
	TopologyMesh = "mesh"
)

// Defaults for WireOptions.
const (
	DefaultStealBatch      = 64 // the length of the run a spawn sheds into a pool
	DefaultFlushQuantum    = time.Millisecond
	DefaultRegTimeout      = 120 * time.Second
	DefaultHeartbeat       = time.Second
	DefaultLivenessTimeout = 30 * time.Second
)

func (o WireOptions) withDefaults() WireOptions {
	if o.StealBatch <= 0 {
		o.StealBatch = DefaultStealBatch
	}
	if o.FlushQuantum <= 0 {
		o.FlushQuantum = DefaultFlushQuantum
	}
	if o.RegTimeout <= 0 {
		o.RegTimeout = DefaultRegTimeout
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = DefaultHeartbeat
	}
	if o.LivenessTimeout <= 0 {
		o.LivenessTimeout = DefaultLivenessTimeout
	}
	return o
}

type kind uint8

const (
	kHello     kind = iota // worker→hub: registration (Want = wireVersion, Blob = spec)
	kWelcome               // hub→worker: To = rank, Want = size
	kReject                // hub→worker: registration refused (Blob = reason)
	kSteal                 // From = thief, To = victim, Want = max tasks
	kStealR                // From = victim, To = thief, Tasks = batch
	kBound                 // From, Obj
	kCancel                // From
	kDelta                 // carrier for a coalesced header delta
	kTerminate             // From = the coordinator: the search is over
	kGather                // From, Blob
	kAck                   // From = thief, To = origin, Seq = hand-over id
	kDeath                 // hub→workers: Want = dead rank
	kPing                  // liveness heartbeat; header fields only
	kPeerAddr              // mesh or standby worker→hub at registration: Blob = advertised listener address
	kPeers                 // hub→worker: Blob = rank-indexed peer address table
	kPeerHello             // first frame on a direct peer conn: From = dialer rank, Want = wire version
	kGossip                // epidemic bound push: From = origin, Obj = gossiped bound
	kToken                 // termination-wave token: Seq = round, Obj = accumulated count, Want = colour bits
	kSplit                 // steal with split semantics: From = thief, To = victim, Want = max tasks; reply is a kStealR
	kHubSnap               // hub→standby: Blob = residual-state snapshot (encodeHubSnapshot)
	kHeld                  // standby worker→hub: From registered rank 0's supervised hand-over, the root
	kRejoin                // worker→promoted hub: From = rank, Want = expected epoch, Obj = cumulative live-task contribution
	kLeave                 // mesh worker→peers at post-termination Close: the sender is exiting, not dying
	kResume                // v8 session resume handshake: Seq = session id, Obj = receive high-water mark; travels with link sequence 0
)

// wconn is one length-prefix-framed TCP connection with serialised
// writes. The send path is where v2's per-frame batching happens: the
// owning endpoint's coalesced live-task delta is drained into, and its
// best bound stamped onto, every frame that leaves.
type wconn struct {
	// cur is the current physical connection. A resumable session (v8)
	// swaps it on reconnect; everything else about the wconn — the
	// sequence counters, the endpoint hooks, the identity the rest of
	// the deployment holds — survives the swap.
	cur  atomic.Pointer[connIO]
	wmu  sync.Mutex
	wbuf []byte
	// rbuf is the reader goroutine's frame image, reused read after
	// read (see recv for what that asks of whoever reads a frame).
	rbuf []byte
	// sendSeq (under wmu) and recvSeq are the v8 link-sequence
	// counters: every non-resume frame is stamped with the next send
	// sequence, and the receiver accepts exactly last+1 — a duplicate
	// (retransmit overlap) is skipped, a gap fails the link.
	sendSeq uint64
	recvSeq atomic.Uint64
	// sess, when non-nil, makes the connection resumable (LinkGrace>0).
	sess *session
	// suspect marks heartbeat silence past LivenessTimeout inside the
	// grace window: the rank is quarantined (steals bypass it) but not
	// yet mourned. Cleared when traffic moves again.
	suspect atomic.Bool
	// fault injection (nil outside fault-injected deployments). fFrom
	// and fTo name this connection's directed link in the plan.
	plan       *FaultPlan
	fFrom, fTo int
	held       []byte // reorder hold-back slot (under wmu)
	dead       atomic.Bool
	// mourned latches the one-time death processing for the peer
	// behind this connection.
	mourned atomic.Bool
	// left records an in-band kLeave: the peer announced a normal
	// post-termination exit, so the connection breaking right after is
	// a shutdown, not a death. Only consulted where death detection is
	// decentralised (the mesh after a coordinator failover) — everywhere
	// else the coordinator's done-gate already classifies the disconnect.
	left atomic.Bool
	// lost records a mesh peer link that failed while rank 0 lived, its
	// verdict left to rank 0's kDeath; a takeover judges it instead.
	lost atomic.Bool
	// nSent/nRecvd count frames in each direction: the heartbeat
	// layer's raw material. Counters, not timestamps, keep the per-
	// frame cost to one relaxed increment — the watchdogs (pingLoop,
	// livenessLoop) sample them on their own ticks and supply the
	// clock themselves.
	nSent  atomic.Uint64
	nRecvd atomic.Uint64

	// endpoint hooks; any may be nil.
	pending *atomic.Int64 // coalesced live-task delta, drained per send
	// cum accumulates every delta this endpoint has put on a wire
	// (standby deployments only). cum + pending is the rank's exact
	// cumulative live-task contribution at any instant — the number a
	// kRejoin reports so a promoted hub can rebuild the global count.
	cum *atomic.Int64
	pb  *atomic.Int64 // best known bound, stamped per send
	// ps reports the owning endpoint's best stealable priority for the
	// v3 summary piggyback (psNothing = don't stamp). Only frames the
	// endpoint originates (From == psFrom) are stamped: forwarded
	// frames keep their origin's summary, which is what the receiver
	// attributes it to.
	ps     func() int64
	psFrom int
	ctr    *wireCounters

	// carried is the best bound this connection has demonstrably
	// conveyed in either direction — stamped as a pb piggyback or an
	// explicit kGossip/kBound, sent or received. The mesh's epidemic
	// push consults it to suppress gossip that would tell the peer
	// nothing new: every ordinary frame already spreads bounds for
	// free, so explicit gossip frames are spent only on actual news.
	carried atomic.Int64

	// halt is the owning endpoint's closed flag: once it is up, nothing
	// leaves on this link (halted).
	halt *atomic.Bool
}

// psNothing tells send to skip the summary stamp (no handler yet).
const psNothing = math.MinInt64

func newWconn(c net.Conn, ctr *wireCounters) *wconn {
	// The encode scratch starts at a size covering every header-only
	// frame, so the steady-state send path never grows it.
	cn := &wconn{ctr: ctr, wbuf: make([]byte, 0, 256)}
	cn.cur.Store(newConnIO(c))
	cn.carried.Store(math.MinInt64)
	return cn
}

// attachFault points the connection at a fault plan, naming its
// directed link. No-op for a nil plan.
func (cn *wconn) attachFault(p *FaultPlan, from, to int) {
	cn.plan, cn.fFrom, cn.fTo = p, from, to
}

// noteCarried records bound knowledge that crossed this connection.
func (cn *wconn) noteCarried(f *frame) {
	if f.HasPB {
		raiseMax(&cn.carried, f.PB)
	}
	if f.Kind == kGossip || f.Kind == kBound {
		raiseMax(&cn.carried, f.Obj)
	}
}

// hasNews reports whether obj would be news to the peer behind this
// connection, as far as the traffic so far can prove.
func (cn *wconn) hasNews(obj int64) bool { return obj > cn.carried.Load() }

// stampLocked drains the endpoint's coalesced live-task delta into f
// and stamps the piggybacked bound and priority summary. It returns
// the drained delta (0 when f already carried one, or none was
// pending), so a failed crash-stop write can restore the accumulator.
// Called under wmu: flushes reach the wire in issue order, so a steal
// reply always carries every delta issued before its tasks left the
// pool (the termination-safety invariant).
func (cn *wconn) stampLocked(f *frame) int64 {
	var drained int64
	if cn.pending != nil && f.Delta == 0 {
		f.Delta = cn.pending.Swap(0)
		drained = f.Delta
	}
	// kBound frames carry their news in Obj; stamping the same value
	// as a piggyback would make the receiver's header merge mark the
	// broadcast itself stale and suppress its relay.
	if cn.pb != nil && !f.HasPB && f.Kind != kBound {
		if b := cn.pb.Load(); b != math.MinInt64 {
			f.PB, f.HasPB = b, true
		}
	}
	if cn.ps != nil && !f.HasPS && f.From == cn.psFrom {
		if p := cn.ps(); p != psNothing {
			f.PS, f.HasPS = p, true
		}
	}
	return drained
}

func (cn *wconn) send(f *frame) error {
	if s := cn.sess; s != nil && f.Kind == kPing && s.isSuspended() {
		// Heartbeats carry no payload of their own: dropping them while
		// suspended keeps the retransmit log for real traffic (the
		// pending delta rides the next logged frame instead).
		return nil
	}
	cn.wmu.Lock()
	defer cn.wmu.Unlock()
	if cn.halted() {
		// Read under the lock: a takeover marks the old coordinator link
		// dead, then settles the rank's contribution under this lock, so
		// no send that waited for it drains a delta onto a dead link. A
		// refused frame leaves its delta pending, where a closed endpoint
		// strands it.
		return errors.New("dist: connection closed")
	}
	drained := cn.stampLocked(f) != 0
	if f.Kind == kDelta && f.Delta == 0 {
		return nil // a concurrent frame carried the delta (liveCount.tick)
	}
	var seq uint32
	if f.Kind != kResume {
		cn.sendSeq++
		seq = uint32(cn.sendSeq)
	}
	buf := encodeFrame(cn.wbuf, f, seq)
	cn.wbuf = buf
	if s := cn.sess; s != nil && f.Kind != kResume {
		// The session owns delivery from here: the frame is logged
		// (clean, before any fault-plan mutation) and will reach the
		// peer over this connection or a resumed successor — or be
		// absorbed by the death path when the session breaks. The delta
		// it carries is therefore counted as put-on-a-wire now, and
		// never re-added: cum + pending stays the rank's exact
		// cumulative contribution either way.
		s.appendLog(cn.sendSeq, buf)
		if cn.cum != nil && f.Delta != 0 {
			cn.cum.Add(f.Delta)
		}
		cn.nSent.Add(1)
		cn.noteCarried(f)
		if cn.ctr != nil {
			cn.ctr.framesSent.Add(1)
			cn.ctr.bytesSent.Add(int64(len(buf)))
		}
		if s.isSuspended() {
			return nil // queued; the resume replays it
		}
		if err := cn.writeFault(buf); err != nil {
			// Physical failure with a live session: suspend, and let
			// the reader drive (dialing side) or await (accepting
			// side) the resume.
			s.suspend()
		}
		return nil
	}
	if err := cn.writeFault(buf); err != nil {
		if drained {
			// Put the drained delta back: a failover recomputes the
			// rank's contribution from cum + pending, so a delta that
			// died with the connection must stay accounted.
			cn.pending.Add(f.Delta)
		}
		cn.dead.Store(true)
		return err
	}
	if cn.cum != nil && f.Delta != 0 {
		cn.cum.Add(f.Delta)
	}
	cn.nSent.Add(1)
	cn.noteCarried(f)
	if cn.ctr != nil {
		cn.ctr.framesSent.Add(1)
		cn.ctr.bytesSent.Add(int64(len(buf)))
	}
	return nil
}

// writeFault realises the link's fault plan around one physical frame
// write. The clean bytes are already in the retransmit log, so with a
// session attached a mutation here only ever costs a resume round,
// never correctness. Called under wmu.
func (cn *wconn) writeFault(buf []byte) error {
	nio := cn.cur.Load()
	p := cn.plan
	if p == nil {
		_, err := nio.c.Write(buf)
		return err
	}
	act, severed := p.act(cn.fFrom, cn.fTo)
	if severed {
		// A partition: kill the physical connection so the peer's
		// reader notices too, and report a write failure — the session
		// (or the death path) takes it from here.
		nio.c.Close()
		return errLinkSevered
	}
	if act.delay > 0 {
		time.Sleep(act.delay)
	}
	if act.drop {
		// Swallowed: the receiver sees a sequence gap on the next
		// frame and fails the link into the resume path.
		return nil
	}
	out := buf
	if act.corrupt {
		out = append([]byte(nil), buf...)
		out[4+(len(out)-4)/2] ^= 0x40 // flip a bit mid-body; the CRC catches it
	}
	if act.reorder && cn.sess != nil && cn.held == nil {
		cn.held = append([]byte(nil), out...)
		return nil
	}
	if _, err := nio.c.Write(out); err != nil {
		return err
	}
	if held := cn.held; held != nil {
		cn.held = nil
		if _, err := nio.c.Write(held); err != nil {
			return err
		}
	}
	if act.dup {
		_, err := nio.c.Write(out)
		return err
	}
	return nil
}

// recv reads the link's next frame into f. f's Blob and task payloads
// alias the link's one receive image, and Tasks and Acks are f's own
// recycled arrays: all of it is good until the next recv on this link
// and no longer, so whoever keeps any of it past that copies it (the
// package comment says who does).
func (cn *wconn) recv(f *frame) error {
	for {
		nio := cn.cur.Load()
		seq, n, body, err := readRawFrameInto(nio.br, f, cn.rbuf)
		cn.rbuf = body
		if err != nil {
			// Close the physical connection before deciding anything:
			// on a CRC failure or sequence gap the stream is still
			// open, and the peer only learns the link failed when its
			// writes start failing.
			nio.c.Close()
			if cn.await(nio) {
				continue
			}
			cn.dead.Store(true)
			return err
		}
		if seq != 0 {
			next := cn.recvSeq.Load() + 1
			if seq != uint32(next) {
				if int32(seq-uint32(next)) < 0 {
					// A retransmitted duplicate (resume overlap, or an
					// injected dup): already delivered, skip silently.
					continue
				}
				// A gap: frames were lost in flight (an injected drop
				// or reorder, or a half-written stream). Fail the
				// link; the resume path retransmits in order.
				nio.c.Close()
				if cn.await(nio) {
					continue
				}
				cn.dead.Store(true)
				return fmt.Errorf("dist: link sequence gap (got %d, want %d)", seq, uint32(next))
			}
			cn.recvSeq.Store(next)
		}
		cn.nRecvd.Add(1)
		cn.noteCarried(f)
		if cn.ctr != nil {
			cn.ctr.framesRecv.Add(1)
			cn.ctr.bytesRecv.Add(int64(n))
		}
		return nil
	}
}

// halted reports a link nothing may leave on: it is dead, or its
// endpoint was closed, which before Done is a crash. Every frame a link
// sends passes it, and so does every resume that would put a new
// connection under the link.
func (cn *wconn) halted() bool {
	return cn.dead.Load() || cn.halt != nil && cn.halt.Load()
}

func (cn *wconn) close() {
	cn.dead.Store(true)
	if cn.sess != nil {
		cn.sess.breakSess()
	}
	cn.cur.Load().c.Close()
}

// reachable reports whether the peer behind this connection can
// receive traffic promptly: not dead, and not suspended inside a
// resume window (a suspended session swallows writes into the log,
// which would turn a steal request into a silent timeout).
func (cn *wconn) reachable() bool {
	if cn.dead.Load() {
		return false
	}
	if cn.sess != nil && cn.sess.isSuspended() {
		return false
	}
	return true
}

// suspectedPeer reports the two-phase liveness state: heartbeat
// silence past LivenessTimeout, or a suspended session.
func (cn *wconn) suspectedPeer() bool {
	if cn.suspect.Load() {
		return true
	}
	return cn.sess != nil && cn.sess.isSuspended()
}

// prioUnknown marks a peerPrio slot nothing has been heard from.
const prioUnknown = -2

// newPeerPrios builds an all-unknown summary table of the given size.
func newPeerPrios(n int) []atomic.Int64 {
	ps := make([]atomic.Int64, n)
	for i := range ps {
		ps[i].Store(prioUnknown)
	}
	return ps
}

// selfPrioFn adapts an endpoint's (possibly not yet attached) handler
// to the wconn summary hook: psNothing before Start or for handlers
// without StealRanker, PrioNone for an empty pool, the best priority
// otherwise.
func selfPrioFn(h *atomic.Value) func() int64 {
	return func() int64 {
		sr, ok := h.Load().(StealRanker)
		if !ok {
			return psNothing
		}
		p, has := sr.BestStealPrio()
		if !has {
			return PrioNone
		}
		if p < 0 {
			p = 0
		}
		return int64(p)
	}
}

// notePeerPrio records a frame's summary against its origin rank.
func notePeerPrio(ps []atomic.Int64, from int, prio int64) {
	if from >= 0 && from < len(ps) {
		ps[from].Store(prio)
	}
}

// peerBestPrio reads a summary table slot into the PeerBestPrio shape.
func peerBestPrio(ps []atomic.Int64, rank int) (int, bool) {
	if rank < 0 || rank >= len(ps) {
		return 0, false
	}
	v := ps[rank].Load()
	if v <= prioUnknown {
		return 0, false
	}
	return int(v), true
}

// pendingSteals is the table of in-flight steal requests. A request
// occupies a slot from register to release; slots are made on demand (as
// many as there have ever been steals in flight at once) and reused, so
// a request allocates neither its reply channel nor its timeout timer.
type pendingSteals struct {
	mu    sync.Mutex
	next  uint64
	slots []*pendingSteal
}

// pendingSteal is one request's slot, tagged with the victim it names
// and the link it left on (the coordinator's, when relayed).
type pendingSteal struct {
	seq     uint64 // the request's correlation number; 0 while the slot is free
	victim  int
	via     *wconn
	claimed bool // a reply is on its way to ch: the requester must take it
	// ch (capacity 1: one reply per claim, never blocks) wakes the requester
	// with the reply's first task, n set to how many it carried (0: an
	// empty-handed or failed steal).
	ch    chan WireTask
	n     int
	timer *time.Timer // the requester's steal timeout, re-armed by every request
}

// find returns the unclaimed slot of request seq (0: a free slot).
func (p *pendingSteals) find(seq uint64) *pendingSteal {
	for _, ps := range p.slots {
		if ps.seq == seq && !ps.claimed {
			return ps
		}
	}
	return nil
}

func (p *pendingSteals) register(victim int, via *wconn) *pendingSteal {
	p.mu.Lock()
	defer p.mu.Unlock()
	ps := p.find(0)
	if ps == nil {
		ps = &pendingSteal{ch: make(chan WireTask, 1), timer: time.NewTimer(time.Hour)}
		ps.timer.Stop()
		p.slots = append(p.slots, ps)
	}
	p.next++
	ps.seq, ps.victim, ps.via = p.next, victim, via
	return ps
}

// claim finds the request a reply answers and commits its requester to
// receiving it: the caller must set n and send one task on the slot's
// channel. nil when the request timed out: the reply's tasks are the
// caller's.
func (p *pendingSteals) claim(seq uint64) *pendingSteal {
	p.mu.Lock()
	defer p.mu.Unlock()
	ps := p.find(seq)
	if seq == 0 || ps == nil {
		return nil
	}
	ps.claimed = true
	return ps
}

// release ends a request and frees its slot — unless the requester is
// giving up (got unset) and a reply was claimed for it first: that reply
// is in, or about to be in, the channel, and false says to take it.
func (p *pendingSteals) release(ps *pendingSteal, got bool) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !got && ps.claimed {
		return false
	}
	ps.seq, ps.claimed, ps.via = 0, false, nil
	return true
}

// fail releases, empty-handed, every pending steal lost matches: its
// victim died, or the link its request left on did — either way no
// reply can come.
func (p *pendingSteals) fail(lost func(*pendingSteal) bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, ps := range p.slots {
		if ps.seq != 0 && !ps.claimed && lost(ps) {
			ps.claimed, ps.n = true, 0
			ps.ch <- WireTask{}
		}
	}
}

// Listener is the coordinator's registration endpoint. NewListener
// binds immediately (so Addr can be advertised); Wait blocks until the
// expected number of workers has registered, then returns the
// coordinator's Transport. Search therefore cannot start before every
// locality is present.
type Listener struct {
	ln   net.Listener
	spec string
	opts WireOptions
}

// NewListener binds the coordinator's address with default
// WireOptions. spec is an arbitrary deployment description
// (application, instance, parameters); workers must present an
// identical spec, which catches the classic distributed-search
// operator error of launching localities on different problems.
func NewListener(addr, spec string) (*Listener, error) {
	return NewListenerOpts(addr, spec, WireOptions{})
}

// NewListenerOpts is NewListener with explicit framing options.
func NewListenerOpts(addr, spec string, opts WireOptions) (*Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	return &Listener{ln: ln, spec: topoSpec(spec, opts), opts: opts}, nil
}

// topoSpec folds the topology into the deployment spec, so a star
// coordinator and a mesh worker (or vice versa) reject each other at
// registration with an explicit spec mismatch instead of wedging on
// frames the other side never sends.
func topoSpec(spec string, opts WireOptions) string {
	if opts.Topology == TopologyMesh {
		spec += " topology=mesh"
	}
	if opts.Standby {
		// A standby deployment changes the registration sequence
		// (kPeerAddr/kPeers on a star) — mixed deployments must reject
		// each other instead of wedging.
		spec += " standby=1"
	}
	if opts.LinkGrace > 0 {
		// Sessions change what a broken connection means: a graced
		// endpoint and a crash-stop one must not mix, or one side
		// mourns while the other waits.
		spec += " grace=1"
	}
	return spec
}

// Addr returns the bound address (useful with a ":0" listen address).
func (l *Listener) Addr() string { return l.ln.Addr().String() }

// Close aborts a pending Wait.
func (l *Listener) Close() error { return l.ln.Close() }

// Wait accepts registrations until `workers` workers are connected,
// then welcomes each with its rank and returns the coordinator
// transport (rank 0 of a size workers+1 deployment). On a mesh or
// standby deployment each worker follows its hello with the address of
// a listener it pre-bound (kPeerAddr) — the one its peers dial, or the
// one survivors re-dial should it be promoted — and gets the complete
// rank-indexed table back (kPeers) right after its welcome.
//
// Registration is failure-aware: a connection that presents a bad
// hello, a mismatched wire version, or a mismatched spec is rejected
// (the peer is told why) without aborting the deployment — the rank it
// would have taken stays open for a corrected relaunch. Only the
// registration window itself is fatal: when WireOptions.RegTimeout
// expires, Wait fails and reports exactly which ranks never arrived
// and why the last rejected candidate was turned away, instead of
// leaving the coordinator waiting forever for a worker that already
// failed.
func (l *Listener) Wait(workers int) (Transport, error) {
	if workers < 1 {
		return nil, fmt.Errorf("dist: coordinator needs at least 1 worker, got %d", workers)
	}
	e := newEndpoint(l.opts, l.spec)
	e.ln = l.ln
	e.init(0, workers+1)
	exchange := e.mesh || l.opts.Standby
	if exchange {
		e.peerAddrs = make([]string, e.size)
	}
	next := 1
	registered, lastReject, err := e.acceptLinks(time.Now().Add(l.opts.RegTimeout), workers, func(cn *wconn, hello *frame) error {
		from := cn.cur.Load().c.RemoteAddr()
		switch {
		case hello.Kind != kHello:
			return fmt.Errorf("bad registration from %v", from)
		case hello.Want != wireVersion:
			cn.send(&frame{Kind: kReject, Blob: []byte(fmt.Sprintf("wire protocol mismatch: coordinator speaks v%d, worker v%d", wireVersion, hello.Want))})
			return fmt.Errorf("worker %v speaks wire protocol v%d, want v%d", from, hello.Want, wireVersion)
		case string(hello.Blob) != l.spec:
			cn.send(&frame{Kind: kReject, Blob: []byte(fmt.Sprintf("spec mismatch: coordinator runs %q, worker runs %q", l.spec, string(hello.Blob)))})
			return fmt.Errorf("worker %v registered with mismatched spec %q (coordinator: %q)", from, string(hello.Blob), l.spec)
		}
		if exchange {
			var pa frame
			if err := cn.recv(&pa); err != nil || pa.Kind != kPeerAddr || len(pa.Blob) == 0 {
				cn.send(&frame{Kind: kReject, Blob: []byte("mesh and standby registration require a peer address after the hello")})
				return fmt.Errorf("worker %v sent no peer address", from)
			}
			e.peerAddrs[next] = string(pa.Blob)
		}
		e.install(next, cn)
		next++
		return nil
	})
	if err != nil {
		for r := range e.links {
			if cn := e.links[r].Load(); cn != nil {
				cn.close()
			}
		}
		missing := fmt.Sprintf("ranks %d..%d", registered+1, workers)
		if registered+1 == workers {
			missing = fmt.Sprintf("rank %d", workers)
		}
		if lastReject != nil {
			return nil, fmt.Errorf("dist: registration timed out with %d/%d workers (missing %s): %v (last rejected candidate: %v)", registered, workers, missing, err, lastReject)
		}
		return nil, fmt.Errorf("dist: registration timed out with %d/%d workers (missing %s): %w", registered, workers, missing, err)
	}
	table := appendPeerTable(nil, e.peerAddrs)
	for rank := 1; rank <= workers; rank++ {
		cn := e.links[rank].Load()
		welcome := &frame{Kind: kWelcome, To: rank, Want: e.size, Blob: []byte(l.spec)}
		if e.sessions != nil {
			// Mint the resumable session and carry its id in the
			// welcome: the worker resumes against it after any later
			// connection loss.
			welcome.Seq = mintSessionID(rank)
			e.acceptSession(cn, welcome.Seq)
		}
		if err := cn.send(welcome); err != nil {
			return nil, fmt.Errorf("dist: welcoming worker %d: %w", rank, err)
		}
		if exchange {
			if err := cn.send(&frame{Kind: kPeers, To: rank, Blob: table}); err != nil {
				return nil, fmt.Errorf("dist: sending peer table to worker %d: %w", rank, err)
			}
		}
	}
	for rank := 1; rank <= workers; rank++ {
		go e.readLoop(rank, e.links[rank].Load())
	}
	e.run()
	return e, nil
}

// Dial connects a worker to the coordinator with default WireOptions,
// retrying while the coordinator is not yet listening, and completes
// registration. The returned transport's rank is assigned by the
// coordinator.
func Dial(addr, spec string) (Transport, error) {
	return DialOpts(addr, spec, WireOptions{})
}

// DialOpts is Dial with explicit framing options. StealBatch is a
// thief-side knob (each endpoint requests its own batch size), while
// FlushQuantum paces this worker's delta flushes; deployments normally
// use the same options everywhere but are not required to. On a mesh
// it returns only when the full mesh is up — every lower rank dialed,
// every higher rank accepted — so a returned transport can steal from
// (and be stolen from by) any peer immediately.
func DialOpts(addr, spec string, opts WireOptions) (Transport, error) {
	opts = opts.withDefaults()
	e := newEndpoint(opts, topoSpec(spec, opts))
	c, err := dialRetry(addr)
	if err != nil {
		return nil, err
	}
	cn := newWconn(c, &e.ctr)
	fail := func(err error) (Transport, error) {
		cn.close()
		e.closeLinks()
		return nil, err
	}
	exchange := e.mesh || opts.Standby
	if exchange {
		// Pre-bind the listener before saying hello: the address every
		// worker advertises must be accepting from the instant it is
		// exchanged — mesh peers dial it right after registration, and a
		// takeover can happen any time after (re-dialing workers land in
		// the kernel backlog until the candidate's accept loop starts).
		if e.ln, err = net.Listen("tcp", ":0"); err != nil {
			return fail(fmt.Errorf("dist: binding peer listener: %w", err))
		}
	}
	if err := cn.send(&frame{Kind: kHello, Want: wireVersion, Blob: []byte(e.spec)}); err != nil {
		return fail(fmt.Errorf("dist: registering with %s: %w", addr, err))
	}
	if exchange {
		// Advertise the listener under the host the registration
		// connection actually uses (the listener itself is bound to the
		// wildcard address).
		host, _, err := net.SplitHostPort(c.LocalAddr().String())
		if err != nil {
			return fail(fmt.Errorf("dist: resolving advertised address: %w", err))
		}
		_, port, err := net.SplitHostPort(e.ln.Addr().String())
		if err != nil {
			return fail(fmt.Errorf("dist: resolving peer listener port: %w", err))
		}
		if err := cn.send(&frame{Kind: kPeerAddr, Blob: []byte(net.JoinHostPort(host, port))}); err != nil {
			return fail(fmt.Errorf("dist: advertising peer address to %s: %w", addr, err))
		}
	}
	var welcome frame
	if err := cn.recv(&welcome); err != nil {
		return fail(fmt.Errorf("dist: registration reply from %s: %w", addr, err))
	}
	switch welcome.Kind {
	case kWelcome:
	case kReject:
		return fail(fmt.Errorf("dist: coordinator refused registration: %s", string(welcome.Blob)))
	default:
		return fail(fmt.Errorf("dist: unexpected registration reply kind %d", welcome.Kind))
	}
	e.init(welcome.To, welcome.Want)
	e.hook(cn, true)
	if opts.LinkGrace > 0 && welcome.Seq != 0 {
		// The coordinator minted a resumable session and carried its id
		// in the welcome; this side dials the resume after a loss.
		s := newSession(welcome.Seq, opts.LinkGrace)
		s.rank = e.rank
		s.redial = sessionRedialer(addr)
		cn.sess = s
	}
	if exchange {
		var pf frame
		if err := cn.recv(&pf); err != nil || pf.Kind != kPeers {
			return fail(fmt.Errorf("dist: no peer table from %s: %v", addr, err))
		}
		table, err := parsePeerTable(pf.Blob)
		if err != nil || len(table) != e.size {
			return fail(fmt.Errorf("dist: bad peer table from %s (%d entries for a size-%d deployment): %v", addr, len(table), e.size, err))
		}
		e.peerAddrs = table
	}
	e.install(0, cn)
	if e.mesh {
		// Complete the mesh: dial the lower ranks (their listeners were
		// bound before their hellos, so the table's addresses are already
		// accepting) and accept the higher ones, identified by their
		// kPeerHello. Strays (port scans, stale dials) are dropped
		// without consuming a slot; only the window itself is fatal.
		for r := 1; r < e.rank; r++ {
			pcn, err := e.dialLink(e.peerAddrs[r], r, &frame{Kind: kPeerHello, From: e.rank, Want: wireVersion})
			if err != nil {
				return fail(fmt.Errorf("dist: dialing mesh peer %d at %s: %w", r, e.peerAddrs[r], err))
			}
			e.install(r, pcn)
			go e.readLoop(r, pcn)
		}
		want := e.size - 1 - e.rank
		got, _, err := e.acceptLinks(time.Now().Add(opts.RegTimeout), want, func(pcn *wconn, ph *frame) error {
			if ph.Kind != kPeerHello || ph.Want != wireVersion || ph.From <= e.rank || ph.From >= e.size || e.links[ph.From].Load() != nil {
				return fmt.Errorf("stray connection from %v on the peer listener", pcn.cur.Load().c.RemoteAddr())
			}
			e.acceptSession(pcn, ph.Seq)
			e.install(ph.From, pcn)
			go e.readLoop(ph.From, pcn)
			return nil
		})
		if err != nil {
			return fail(fmt.Errorf("dist: accepting mesh peers (have %d of %d): %w", got, want, err))
		}
		if e.sessions == nil {
			// Nobody dials a mesh listener again: takeover on a mesh is
			// role migration over the links that already exist. Only
			// session resumes (run, below) keep it open.
			e.ln.Close()
		}
	}
	// The heartbeat starts at registration, not at Start: the gap
	// between the two is where the worker loads its problem instance,
	// and a silent connection there must not read as a death.
	go e.readLoop(0, cn)
	e.run()
	return e, nil
}

// acceptLinks is the one accept loop: it takes connections on the
// endpoint's listener until want of them have been admitted or the
// deadline passes, handing each connection's first frame to admit —
// which validates it (a registration hello, a mesh peer hello, a
// post-takeover rejoin), installs the link, and returns an error for a
// candidate to turn away. Rejected candidates cost nothing but their
// own connection; only the window closing (or the listener) ends the
// loop early, and lastReject then says why the last one was refused.
func (e *endpoint) acceptLinks(deadline time.Time, want int, admit func(cn *wconn, first *frame) error) (got int, lastReject, err error) {
	if tl, ok := e.ln.(*net.TCPListener); ok {
		tl.SetDeadline(deadline)
		defer tl.SetDeadline(time.Time{})
	}
	for got < want {
		c, err := e.ln.Accept()
		if err != nil {
			return got, lastReject, err
		}
		cn := newWconn(c, &e.ctr)
		e.hook(cn, false)
		// The window must also bound the handshake reads: a connection
		// that never sends a frame (port scan, stalled peer) must not
		// hang the loop past it.
		c.SetReadDeadline(deadline)
		var first frame
		reject := cn.recv(&first)
		if reject != nil {
			reject = fmt.Errorf("bad registration from %v", c.RemoteAddr())
		} else {
			reject = admit(cn, &first)
		}
		if reject != nil {
			cn.close()
			lastReject = reject
			continue
		}
		c.SetReadDeadline(time.Time{})
		got++
	}
	return got, lastReject, nil
}

// dialLink dials a peer's listener and opens the link with hello (a
// mesh kPeerHello, a post-takeover kRejoin). Under LinkGrace the
// dialing side mints the link's session and carries its id in the
// hello for the acceptor to register. A kRejoin opens the link to the
// new coordinator — the one a counting rank's deltas drain into.
func (e *endpoint) dialLink(addr string, peer int, hello *frame) (*wconn, error) {
	c, err := dialRetry(addr)
	if err != nil {
		return nil, err
	}
	cn := newWconn(c, &e.ctr)
	e.hook(cn, hello.Kind == kRejoin)
	if e.opts.LinkGrace > 0 {
		s := newSession(mintSessionID(e.rank), e.opts.LinkGrace)
		s.rank = e.rank
		s.redial = sessionRedialer(addr)
		cn.sess = s
		hello.Seq = s.id
	}
	cn.attachFault(e.opts.Fault, e.rank, peer)
	if err := cn.send(hello); err != nil {
		cn.close()
		return nil, err
	}
	return cn, nil
}
