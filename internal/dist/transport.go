package dist

import (
	"errors"
	"sync"
	"sync/atomic"
)

// WireTask is a unit of work as it crosses a locality boundary: an
// application search-tree node, its absolute depth, its scheduling
// priority, and a snapshot of the sender's best known bound at
// hand-over time. The thief merges Bound into its own cache before
// running the task, so stolen work never prunes against knowledge
// older than its victim's. Prio (lower = better, zero when the engine
// runs unordered) survives the hand-over so that a distributed search
// stays globally ordered: a stolen task re-enters the thief's priority
// pool exactly where it left the victim's.
//
// ID is the hand-over's supervision ticket (v4): the victim mints it
// when the task leaves (TaskID packs the victim's rank and a local
// sequence number), retains a copy of the task in its ledger under the
// id, and retires the copy when the thief acks the id after the
// task's whole subtree has completed (Transport.Ack → Handler.OnAck at
// the victim). If the thief dies first, the unacked entries are
// exactly the subtree roots the dead rank was holding, and the victim
// re-enqueues them. ID zero means the hand-over is unsupervised (no
// ack owed).
//
// Exactly one of Payload and Local is set. Wire transports carry the
// node encoded by the engine's Codec in Payload; the in-process
// loopback transport passes the engine's task value by reference in
// Local, avoiding a serialise/deserialise round trip that shared
// memory does not need. A wire transport also uses Local on the last
// leg of a steal, for the task a BatchAdopter has already decoded.
//
// A Payload is borrowed for the call that hands it over — it aliases a
// link's reply buffer or receive image — and whoever keeps it longer
// copies it (see the package comment).
type WireTask struct {
	Payload []byte
	Local   any
	ID      uint64
	Depth   int
	Prio    int
	Bound   int64
}

// TaskID mints a hand-over id: a per-victim sequence number in the
// high bits, the victim's rank+1 in the low 16 (so zero — "no ack
// owed" — is never minted, and TaskOrigin can route a completion ack
// without carrying the origin separately). Rank in the LOW bits is a
// wire-size decision: ids appear in every steal reply and ack batch as
// uvarints, and a fresh deployment's ids should cost 2-4 bytes, not
// the 8-9 a high-bits rank would force from the first hand-over.
func TaskID(rank int, seq uint64) uint64 {
	return seq<<16 | (uint64(rank+1) & 0xFFFF)
}

// TaskOrigin recovers the rank that minted an id (the ack's
// destination). -1 for the zero (unsupervised) id.
func TaskOrigin(id uint64) int { return int(id&0xFFFF) - 1 }

// Handler is the locality engine's side of a Transport: the transport
// calls it to serve incoming traffic. Implementations must be safe for
// concurrent use — wire transports invoke handlers from their receive
// goroutines while search workers run.
type Handler interface {
	// ServeSteal hands over one task to the thief locality, typically
	// the shallowest (largest expected subtree) in the local workpool.
	// It reports false when the locality has no spare work.
	ServeSteal(thief int) (WireTask, bool)
	// OnBound delivers a peer locality's improved incumbent bound, over
	// a wire once its node is retained here (BestKnown). Deliveries may
	// arrive late, out of order or more than once; receivers must merge
	// with a monotonic max.
	OnBound(from int, obj int64)
	// OnCancel delivers a peer's global short-circuit (a decision
	// search found its witness). It may be called more than once.
	OnCancel(from int)
	// OnTask delivers a task that was stolen on this locality's
	// behalf but could not be handed to the requesting worker — e.g.
	// the steal reply arrived after the request timed out, or the
	// reply held a batch and this task is one of the extras beyond
	// the requesting worker's single slot. The locality must enqueue
	// it as local work: the task left its victim's pool and is still
	// registered in the global live count, so dropping it would lose
	// part of the search tree and hang termination. The payload is the
	// handler's to keep. A BatchAdopter is not sent tasks this way.
	OnTask(t WireTask)
	// OnAck delivers a completion ack for a task this locality handed
	// over (Transport.Ack on the thief side): the subtree rooted at
	// the task with the given hand-over id has fully completed, so the
	// retained ledger copy can be retired. Acks may arrive for ids
	// already retired by a death replay; receivers must treat retire
	// as idempotent.
	OnAck(from int, id uint64)
}

// ValueAcker is an optional Handler extension: OnAckValue is OnAck with
// the value the ack carries (Transport.AckValue; nil: none), borrowed.
type ValueAcker interface {
	OnAckValue(from int, id uint64, val []byte)
}

// deliverAck hands an arrived ack to hd, with its value if hd takes one;
// nil (an endpoint closed before Start) takes none.
func deliverAck(hd Handler, from int, id uint64, val []byte) {
	switch va, ok := hd.(ValueAcker); {
	case ok:
		va.OnAckValue(from, id, val)
	case hd != nil:
		hd.OnAck(from, id)
	}
}

// ErrMourned is what Gather returns at a rank the coordinator mourned
// while it ran (its link slower than LivenessTimeout, say): told of its
// own death, the rank crash-stopped, and the survivors replay its work.
var ErrMourned = errors.New("dist: the coordinator mourned this rank while it ran, and it stopped")

// DeathHearer is an optional Handler extension: OnDeath tells the engine
// of a peer's death, once per rank, synchronously, at the point where the
// transport announces it: before the transport acts on the death in any
// other way (a takeover promotes and hands over only once it returns). The engine replays the hand-overs the rank held and stops
// picking it as a steal victim. The loopback network's localities never
// die, so it never calls it.
type DeathHearer interface {
	OnDeath(rank int)
}

// StealRanker is an optional Handler extension for localities that can
// rank the work a thief would get: BestStealPrio reports the priority
// (lower = better) of the best task ServeSteal would currently hand
// over, and whether any stealable work exists at all. Transports use it
// to piggyback a best-available-priority summary on outgoing frames,
// which peers feed into priority-aware victim selection.
type StealRanker interface {
	BestStealPrio() (int, bool)
}

// PrioNone is the advertised priority of a locality with no stealable
// work.
const PrioNone = -1

// incumbentBox is the shared retention cell behind Transport.BestKnown.
type incumbentBox struct {
	mu   sync.Mutex
	obj  int64
	node []byte
	ok   bool
}

// keep retains a copy of node (which may alias a link's receive image)
// under obj when the pair beats the retained one, and returns that copy
// (the replication layer ships only improvements), nil otherwise. nil
// nodes are never retained: a bound without its node cannot reconstruct
// a result.
func (b *incumbentBox) keep(obj int64, node []byte) []byte {
	if node == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.ok && obj <= b.obj {
		return nil
	}
	b.obj, b.node, b.ok = obj, append([]byte{}, node...), true
	return b.node
}

func (b *incumbentBox) best() (int64, []byte, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.obj, b.node, b.ok
}

// deathBox is an endpoint's record of the deaths announced to it, by
// rank: each is announced at most once.
type deathBox []atomic.Bool

// announce records rank's death, reporting whether this was the first
// announcement.
func (d deathBox) announce(rank int) bool { return d[rank].CompareAndSwap(false, true) }

// isDead reports whether rank's death has been announced here. The
// failover path uses it to pick the takeover candidate: the lowest
// rank not known dead is the rank the hub was replicating to.
func (d deathBox) isDead(rank int) bool { return d[rank].Load() }

// StackSplitter is an optional Handler extension for localities under
// the stack-stealing coordination's (spawn-stack) rule, whose work may not
// be in the pool yet. A steal that finds the pool dry calls ServeSplit,
// which asks a running worker to shed from its live generator stack and
// serves up to max tasks of what it shed, as ServeStealMulti would. It may
// block briefly (a few milliseconds) while a worker reaches its next poll
// point, so wire transports call it off their read loops. An empty reply
// means nothing was shed in time, or no worker holds a stack.
type StackSplitter interface {
	ServeSplit(thief, max int) []WireTask
}

// MultiStealer is an optional Handler extension for transports whose
// steal replies carry batches. A handler that implements it decides
// how many tasks (up to max, at least zero) one thief may take in a
// single exchange — the engine serves at most half of its best bucket,
// so a batching thief cannot starve its victim — and serves them in
// append style: tasks appended to out, their payloads' bytes to buf, both
// returned extended, so a transport that passes the same two slices for a
// link's every reply serves steals without allocating. Handlers without
// it still work: transports fall back to calling ServeSteal up to max
// times.
type MultiStealer interface {
	ServeStealMulti(thief, max int, out []WireTask, buf []byte) ([]WireTask, []byte)
}

// BatchAdopter is an optional Handler extension for localities that
// take a steal reply's tasks as one run. A wire transport calls
// AdoptTasks on the link's receive goroutine with the payloads still
// aliasing the receive image, so every task must be decoded by the time
// it returns. With keep a requester is waiting for the reply: the first
// task is not enqueued but returned — registered, Local set in place of
// its Payload — for the transport to hand over. Without keep (a late
// reply) all are enqueued and the result is the zero WireTask.
type BatchAdopter interface {
	AdoptTasks(ts []WireTask, keep bool) WireTask
}

// collectSteal gathers up to want tasks from a handler for one steal
// reply into out and buf (see MultiStealer), which it returns extended.
func collectSteal(hd Handler, thief, want int, out []WireTask, buf []byte) ([]WireTask, []byte) {
	if hd == nil {
		return out, buf
	}
	want = max(want, 1)
	if ms, ok := hd.(MultiStealer); ok {
		return ms.ServeStealMulti(thief, want, out, buf)
	}
	for n := 0; n < want; n++ {
		t, ok := hd.ServeSteal(thief)
		if !ok {
			break
		}
		out = append(out, t)
	}
	return out, buf
}

// adoptTasks hands a steal reply's tasks to the engine (see BatchAdopter
// for keep and the result). A handler that is not one keeps what OnTask
// gives it, so each payload is first copied off the receive image.
func adoptTasks(hd Handler, ts []WireTask, keep bool) WireTask {
	if hd == nil || len(ts) == 0 {
		return WireTask{}
	}
	if ba, ok := hd.(BatchAdopter); ok {
		return ba.AdoptTasks(ts, keep)
	}
	var first WireTask
	for i, t := range ts {
		t.Payload = append([]byte{}, t.Payload...)
		if i == 0 && keep {
			first = t
			continue
		}
		hd.OnTask(t)
	}
	return first
}

// WireStats is a transport endpoint's traffic counters. Wire
// transports count real frames and bytes; the loopback transport
// counts logical messages (what a wire transport would have sent) with
// payload bytes only, so single-process experiments can still report
// protocol pressure.
type WireStats struct {
	FramesSent   int64
	FramesRecv   int64
	BytesSent    int64
	BytesRecv    int64
	StealTasks   int64 // tasks received in steal replies (batch occupancy numerator)
	StealReplies int64 // non-empty steal replies received (batch occupancy denominator)
	Resumes      int64 // v8 session resumes completed at this endpoint
}

// Meter is the traffic-counting subset of Transport, named so that
// measurement code can ask for exactly what it reads.
type Meter interface {
	Wire() WireStats
}

// wireCounters is the shared atomic backing of a WireStats snapshot.
type wireCounters struct {
	framesSent   atomic.Int64
	framesRecv   atomic.Int64
	bytesSent    atomic.Int64
	bytesRecv    atomic.Int64
	stealTasks   atomic.Int64
	stealReplies atomic.Int64
	resumes      atomic.Int64
}

func (c *wireCounters) snapshot() WireStats {
	return WireStats{
		FramesSent:   c.framesSent.Load(),
		FramesRecv:   c.framesRecv.Load(),
		BytesSent:    c.bytesSent.Load(),
		BytesRecv:    c.bytesRecv.Load(),
		StealTasks:   c.stealTasks.Load(),
		StealReplies: c.stealReplies.Load(),
		Resumes:      c.resumes.Load(),
	}
}

// Transport connects one locality to its peers. It is the pluggable
// communication substrate of the distributed runtime: the engine above
// it is identical whether the peers are goroutines in this process
// (Loopback) or OS processes across a network (TCP).
//
// Ranks are dense integers 0..Size()-1; rank 0 is the coordinator and
// owns the root of the search tree. All methods except Start and Close
// require Start to have been called.
type Transport interface {
	// Rank is this locality's identity.
	Rank() int
	// Size is the number of localities in the deployment.
	Size() int
	// Start attaches the locality engine and begins serving incoming
	// traffic. It must be called exactly once, before any search
	// worker runs.
	Start(h Handler)
	// Steal requests work from the victim locality, blocking until the
	// victim replies (or the transport decides it never will). A reply
	// may carry a run of tasks: the first is returned, the extras are
	// the handler's (BatchAdopter, or Handler.OnTask) before Steal
	// returns. A victim whose handler is a StackSplitter serves a steal
	// that finds its pool dry from a running worker's shed. The bool
	// reports whether a task was obtained; errors are reserved for
	// transport failure, not empty-handed steals.
	Steal(victim int) (WireTask, bool, error)
	// PeerBestPrio reports the best-available priority rank last
	// advertised (piggybacked frame summaries over a wire, direct
	// inspection on the loopback network). known is false when nothing
	// has been heard from the rank; PrioNone with known == true means
	// it last advertised an empty pool. Summaries are hints — stale the
	// moment they are read — so callers use them to order victim
	// probing, never to skip a victim outright.
	PeerBestPrio(rank int) (prio int, known bool)
	// Suspected reports a rank quarantined by the two-phase liveness
	// view (v8): heartbeat-silent or behind a link that is mid-resume —
	// alive as far as anyone knows, but not worth aiming steals at.
	// Suspects either recover or are mourned (DeathHearer).
	Suspected(rank int) bool
	// BroadcastBound publishes an improved incumbent bound to every
	// other locality, asynchronously: peers learn it after the
	// transport's delivery latency, pruning against stale knowledge in
	// the meantime. node, when non-nil, is the codec-encoded incumbent
	// node itself: over a wire it goes with the bound to every peer, and
	// each retains the best (obj, node) pair it heard (BestKnown), so a
	// rank that hears a bound holds its node and the optimum survives the
	// death of the locality that found it. nil skips the retention
	// (in-process deployments share the incumbent anyway).
	BroadcastBound(obj int64, node []byte) error
	// Cancel propagates a global short-circuit to every other
	// locality; over a wire it also ends the search (Done). witness,
	// when non-nil, is the codec-encoded node that satisfied the
	// decision target, retained like a broadcast node so the witness
	// survives its finder's death.
	Cancel(obj int64, witness []byte) error
	// Ack reports to the locality that minted id (origin ==
	// TaskOrigin(id)) that the subtree handed over under the id has
	// fully completed; the origin's Handler.OnAck retires the retained
	// copy. Acks to a dead origin are silently dropped — its ledger
	// died with it — but for rank 0's under Standby, whose ledger entry
	// the rank taking its role over inherits (Root): those go to the
	// coordinator.
	Ack(origin int, id uint64) error
	// AckValue is Ack carrying the value the acked family committed (an
	// enumeration's fold of the subtree) to the origin's ValueAcker; the
	// transport keeps val.
	AckValue(origin int, id uint64, val []byte) error
	// AddTasks adjusts the global live-task count by delta: +k when
	// spawning k tasks (before they become visible to any worker), -1
	// when a task completes. The count underpins distributed
	// termination detection. Contributions are attributed to this
	// rank, so that a dead rank's outstanding contribution can be
	// reconciled away instead of wedging the count above zero forever.
	AddTasks(delta int64)
	// Done is closed when the global live-task count returns to zero —
	// every spawned task has completed, so no locality can ever
	// receive work again — or, over a wire, a Cancel has ended the
	// search. A locality death does not force it: the dead rank's
	// contribution is subtracted and the survivors run on, the engine
	// having heard of the death first (DeathHearer), so its replays are
	// registered before anything of the dead rank's is reconciled away.
	Done() <-chan struct{}
	// Gather is a terminal collective: every locality contributes one
	// payload once Done, and the coordinator — rank 0, or the rank
	// Promoted in its place — receives all of them indexed by rank (its
	// own included). Non-coordinator callers return (nil, nil) as soon
	// as their payload is on the way. A dead locality's slot is nil, and
	// a rank the coordinator mourned while it ran gets ErrMourned.
	// Only a deployment of processes gathers: on the loopback network,
	// whose localities share one result, Gather is an error.
	Gather(payload []byte) ([][]byte, error)
	// BestKnown is the incumbent retention: the best (obj, node) pair
	// this rank published or heard through a node-carrying
	// BroadcastBound, or a Cancel witness. Every rank keeps it, to hand a
	// promoted rank and to send ahead of its gather share, but only the
	// answer of rank 0 — or of the rank Promoted in its place — is the
	// search's; that is how an optimum survives its finder's death. The
	// loopback network, whose localities share the incumbent, retains
	// none.
	BestKnown() (obj int64, node []byte, ok bool)
	// Promoted reports whether THIS endpoint inherited the coordinator
	// role after rank 0 died mid-search (protocol v7,
	// WireOptions.Standby): it then holds the incumbent retention and
	// receives the terminal Gather, so result extraction consults it
	// wherever it would have tested Rank() == 0. Never on the loopback
	// network, whose rank 0 never dies.
	Promoted() bool
	// Standby reports whether the deployment arms coordinator failover
	// (WireOptions.Standby, the same on every rank): its rank 0 then
	// runs no workers, so the one task it hands over, under supervision,
	// is the root. Never on the loopback network.
	Standby() bool
	// Root reports, at the rank taking rank 0's role over (ok, from the
	// engine's OnDeath(0) on), rank 0's supervised hand-over under
	// WireOptions.Standby, the root, as rank 0 last replicated it: the
	// rank holding it (-1: none known) and its hand-over id. The engine
	// takes the hand-over's ledger entry and registration over, and the
	// holder's ack, routed to the coordinator, retires it there. ok is
	// false everywhere else, and always on the loopback network.
	Root() (holder int, id uint64, ok bool)
	// Wire reports the endpoint's traffic counters.
	Meter
	// Close releases the transport's resources. Safe to call more
	// than once. Over a wire, a Close before Done is a crash-stop, the
	// in-process kill: from its start nothing leaves the locality (no
	// flush of acks, no token, no reply, no kTerminate), Done
	// is released, and every link drops, so the survivors mourn it and
	// replay its subtrees as they would a SIGKILLed process's. After
	// Done it is a clean exit.
	Close() error
}
