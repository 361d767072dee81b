// Package dist is the communication substrate of the distributed
// search runtime: a pluggable Transport over which localities — the
// paper's physical cluster nodes — exchange work and incumbent
// knowledge. This comment is a reference to the protocol as it stands
// (wire v17); how it got there, version by version, is in CHANGES.md.
//
// # What a Transport does
//
// The distributed skeletons need five interactions between localities:
//
//   - work distribution: an idle locality steals from a peer (Steal on
//     the thief's side; Handler.ServeSteal, or the MultiStealer and
//     StackSplitter extensions, on the victim's) — the request/reply
//     discipline of the paper's Section 4.3 workpools;
//   - knowledge propagation: an improved incumbent bound reaches every
//     locality (BroadcastBound/Handler.OnBound) with relaxed delivery —
//     a late or reordered bound costs pruning, never correctness,
//     because receivers merge with a monotonic max;
//   - termination detection: a global live-task count (AddTasks/Done)
//     whose zero is observed exactly when no locality holds or will
//     ever receive work;
//   - short-circuit and aggregation: decision-search cancellation
//     (Cancel/Handler.OnCancel) and the terminal collective Gather that
//     brings every locality's Stats to the coordinator after Done;
//   - fault tolerance: hand-over supervision (WireTask.ID,
//     Ack/Handler.OnAck), death notification (DeathHearer, before the
//     transport acts on a death) and suspicion (Suspected), from which
//     the engine's task ledger replays a dead locality's subtrees.
//
// There are two implementations, and the engine above is blind to which.
// The loopback network (NewLoopback) connects localities within one
// process by direct calls and backs every single-process skeleton run;
// its termination is one shared live-task count, exact and immediate, and
// LoopbackOptions.Fault is its only source of link latency. Its
// localities never die, so it carries steals, bounds, termination,
// cancels and acks, and no more: it never calls OnDeath, Gather is an
// error, and nothing is promoted or retained. The TCP transport
// (NewListener/Dial) connects OS processes and is what `yewpar -dist`
// deploys: a mesh, whose termination is the token wave. It alone
// implements the fault contract. The conformance suite runs the shared
// contract cases over the loopback and TCP, and the fault cases over
// TCP; internal/core's
// harness rows run every whole search of several processes — kills,
// partitions, takeovers — over TCP, and the wave's property tests drive
// its ring directly.
// Transports report frames, bytes, steal batch occupancy and session
// resumes through Wire (the Meter subset).
//
// # One endpoint
//
// Every locality of a TCP deployment is the same type (endpoint.go)
// running the same loops: a read loop per link that handles every frame
// kind, one flush tick (coalesced acks, the wave's pacing, replication),
// one heartbeat. Registration completes a mesh: the rank-indexed link
// table has a direct link to every other rank, so a frame for rank r
// leaves on the link to r and nothing is relayed. A bound travels one
// way, from every rank alike: its finder sends it, node and all, on
// every link (kBound), and a rank that hears it has retained the node
// first. One thing varies, and it is data, not a type: the coordinator
// role — retaining the incumbent, sinking Gather,
// death authority (the liveness watchdog and the kDeath fan-out),
// announcing termination, replicating to a standby, and keeping the
// registration listener open for resumes. Every endpoint carries the
// inert state for it, so the role can move: see "Failover". "C" below
// is whichever endpoint holds it.
//
// # Frames
//
// A frame is a length-prefixed body — kind, flags, a varint header
// (from, to, seq) and a kind-specific payload — and an eight-byte
// trailer, the link sequence and a CRC32C over body and sequence;
// frame.go has the byte layout. A frame of any kind may also carry, under
// a flag bit, one header field, prio: the best priority the originating
// locality could serve a thief (StealRanker; PrioNone when it has no
// work), recorded per origin rank for PeerBestPrio — a hint that orders
// victim probing and never hides a victim.
//
// The kinds are declared in tcp.go, and TestDocFrameTable holds this
// table to that list. C is the coordinator, W any other rank, S the
// standby; "all" is a fan-out on every link.
//
//	kind        from → to           fields used                                    what it carries
//	kHello      W → C               Want version, Blob spec                        registration: one wire version and one deployment spec everywhere
//	kPeerAddr   W → C               Blob listener address                          where W's peers dial it, known before any failure
//	kWelcome    C → W               To rank, Want size, Seq session                admission
//	kReject     C → W               Blob reason                                    refusal: version or spec mismatch, unknown or expired session
//	kPeers      C → W               Blob rank-indexed address table                W dials the lower ranks and accepts the higher
//	kPeerHello  W → W               From dialler, Want version, Seq session        first frame of a direct peer link
//	kSteal      thief → victim      Seq request, Want max tasks                    always answered, by an empty kStealR if the victim is dry
//	kStealR     victim → thief      Seq request, Tasks                             a run of (payload, id, depth, prio, bound), adopted whole
//	kAck        thief → origin      Acks hand-over ids [, values]                  those subtrees are complete: retire the ledger copies, commit the values
//	kBound      rank → all          Obj bound, Blob node                           the incumbent with its node: every rank retains the best it heard (C's is BestKnown; rank 0 passes it to S) before its Handler hears the bound
//	kCancel     W → C, C → all      Obj objective, Blob witness                    a decision is found: C retains the witness and ends the search (then kTerminate)
//	kToken      rank → next rank    Seq round, Obj count, Want colour              the termination wave
//	kTerminate  C → all             From C                                         the count is zero, the wave confirmed, or a cancel came: Done; shares go to C
//	kGather     W → C               Blob result share                              the terminal collective, sent only after Done, behind W's best kBound; a dead rank's slot is nil
//	kPing       W → C               header only                                    liveness, after a Heartbeat with nothing else sent
//	kDeath      C → all             Want dead rank                                 mourn: fail steals aimed at it, replay its hand-overs, skip it for good; a dead rank that still runs stops
//	kLeave      rank → all          none                                           an exit after termination, not a death to replay
//	kHubSnap    C → S               Blob residual-state snapshot                   (standby) root holder and id, incumbent; at most one a flush quantum, none unchanged
//	kHeld       W → C               Seq hand-over id                               (standby) W registered the root C handed it under the id: C may now name W its holder
//	kResume     dialler ⇄ acceptor  Seq session, Obj receive mark                  (link grace) each side replays what the other missed; link sequence 0
//
// # Steals and supervision
//
// One round trip moves a run. A request names how many tasks the thief
// accepts (WireOptions.StealBatch, default 64); the victim's engine
// (MultiStealer) hands over tasks from its pool's best bucket only —
// the shallowest depth, or the best priority — and at most half of that
// bucket, so a run keeps the heuristic order and a large batch cannot
// strip a victim whose frontier is smaller than it. The thief's engine
// takes the reply at once (BatchAdopter): all but the first task
// enqueued as one run, the first given to the requesting worker, each
// re-entering the pool at the priority it left with. The loopback
// network steals through the same helpers (collectSteal, adoptTasks),
// so both transports have one steal semantics. Under the stack-stealing
// coordination, whose work is in live generator stacks and not yet in a
// pool, the victim's engine is a StackSplitter: a steal that finds its
// pool dry waits, for milliseconds at most, for a running worker to shed
// at its next poll point, so that steal is served off the read loop.
// Every rank runs the same coordination, so the thief sends the same
// kSteal whatever the victim does with it.
//
// Every stolen task carries an id minted by its victim (TaskID packs
// rank and sequence). The victim's ledger keeps a copy until the thief
// acks the id, which it does only when the task's whole subtree has
// completed, here or downstream — so supervision chains back towards C,
// and staggered deaths replay from the earliest surviving supervisor.
// Acks coalesce into one kAck per flush quantum. Replay is sound because
// branch and bound is idempotent: re-running a subtree changes which
// nodes are visited, never the answer. An enumeration's value of a
// subtree rides its ack (AckValue), and the origin commits it only as
// the ack retires the copy, so a replay's value replaces a dead thief's.
//
// # Termination
//
// No delta leaves its rank: each rank counts its own AddTasks, and a
// Safra-style token (wave.go) sums the counts. A death removes the dead
// rank from the ring; what survivors registered, ledger copies included,
// stays counted, so zero still means the surviving search, replays and
// all, is done. Blocking steals abort on Done.
//
//	initiator (lowest live rank): send a white token with count 0
//	each rank: hold it until locally quiet; add the local counter;
//	           blacken it if active since its last visit; pass it on
//	initiator: black, or count ≠ 0  → a new round
//	           white and 0          → one confirming round, then kTerminate
//	a death blackens the wave and re-elects the initiator
//
// # Sessions: a link is not a locality
//
// A gap in the link sequence or a CRC mismatch is a link failure, like
// any I/O error; duplicates are skipped. With WireOptions.LinkGrace > 0
// every connection (coordinator and peer links) is a session,
// and outgoing frames are copied into a bounded retransmit log:
//
//	live ── link failure ──▶ suspended ── dialler redials; kResume both ways; replay ──▶ live
//	                            └── grace over, log trimmed past the peer's mark, or kReject ──▶ broken
//
// A broken session, or any link failure at grace 0, is the rank's death.
// Meanwhile the rank is suspected, not mourned:
//
//	alive ── link suspended, or silent past LivenessTimeout ──▶ suspected ── heard again ──▶ alive
//	                                                               └── grace closes ──▶ dead (kDeath)
//
// Victim selection skips a suspect and steals aimed at it fail fast;
// only death, with its irreversible replay, waits for the grace window.
// Stats.LinkResumes counts the saves.
//
// # Failover: the coordinator role moves once
//
// Any number of worker deaths are survivable while a coordinator lives.
// WireOptions.Standby (every rank must agree) makes rank 0's own death
// survivable too:
//
//	epoch 0  rank 0 coordinates and runs no workers (Transport.Standby), so the one task it hands
//	         over under supervision is the root; it replicates to S, the lowest live worker, what
//	         nothing else rebuilds: who holds the root and under which id (a thief whose kHeld
//	         came) and the incumbent — one kHubSnap in each flush quantum in which either changed,
//	         or S did. Deaths reach S as kDeath, ahead of any later snapshot on the same link
//	   │     S sees its link to rank 0 break or fall silent
//	epoch 1  every survivor's engine hears of the death first (DeathHearer) and replays what rank 0
//	         held; S's first takes rank 0's ledger entry for the root over (Root), held by the
//	         holder, or, unknown or dead, replayed at once. Then S takes the role in place, seeded
//	         from the last snapshot, and sends its best kBound on every link, which rank 0's own
//	         fan-out may not have finished; from here the root is a hand-over like any other, its ack
//	         going to the coordinator. The links exist; coordinator traffic changes direction
//	         every survivor hands S the node it retained: its best, or the witness of a cancel
//	         it sent or heard, which ends the search at S, and the last ack it sent rank 0
//	   │     S dies, or rank 0 and S both die before the takeover completes
//	the deployment ends: the epoch admits exactly one promotion
//
// The gather runs after Done, which no takeover follows: the rank that
// ended the search collects it and reports (Transport.Promoted).
//
// A rank the coordinator mourns while it runs, its link merely slower
// than LivenessTimeout, hears its own kDeath ahead of the link's close,
// crash-stops and never takes over; its Gather returns ErrMourned. A rank
// whose link to rank 0 breaks without that word (a partition) cannot tell
// it from rank 0's death: a standby takes the role over while rank 0
// lives. Cut off from every peer, no rank could tell the two apart.
//
// # Who owns a payload
//
// A steal round trip — request, serve, reply, receive, adopt, ack —
// allocates nothing in steady state at either end: every buffer on the
// path belongs to a link or the endpoint and is used again for the next
// frame. One rule makes that safe: a payload is borrowed for the
// duration of the call that hands it over, and whoever holds it longer
// copies it. Outbound, a link's replies are built in the read loop's
// task slice and payload buffer and encoded into the connection's write
// scratch; send has copied everything when it returns, and what outlives
// it copies — the session's retransmit log.
// Inbound, a link reads every frame into one image and one frame value,
// valid until its next read: stolen tasks are decoded on the read loop
// by the engine (core.Codec.Decode must not alias its input), a cancel
// C passes on is re-encoded at once, and keepers copy — incumbent
// retention, a root ack's value kept for the coordinator role, a gather
// contribution, the standby's replica.
// A handler that is no BatchAdopter gets its own copy of every payload.
// BenchmarkGateHotPathWireAllocs counts and holds the allocations with
// no slack, TestConformanceBufferReuseUnderStress tests the rule.
//
// # Injection and codecs
//
// ChaosPlan schedules rank kills and link partitions from an armed
// start, against an endpoint's Close or a real SIGKILL, which act
// alike: before Done, nothing leaves a closed endpoint. FaultPlan is
// the seeded per-link injector (latency, jitter, drop, duplication,
// corruption, reordering, Partition/Heal), consulted around every TCP
// write and every loopback delivery. Latency delays a frame's delivery
// in the link's order without holding the link (delayLine): a link of
// latency d is long, not slow. They compose: kills say who dies,
// the fault plan which links lie.
//
// Tasks cross as WireTask values holding an opaque encoded node, so
// dist imports nothing from internal/core. The encoding is the
// application's core.Codec, exported as its package's Codec() and
// passed by its runner; every locality must construct the same problem
// with the same codec (the spec handshake guards the former; codecs are
// not negotiated).
package dist
