// Package dist is the communication substrate of the distributed
// search runtime: a pluggable Transport over which localities — the
// paper's physical cluster nodes — exchange work and incumbent
// knowledge.
//
// YewPar's distributed skeletons need five interactions between
// localities, and Transport captures precisely those:
//
//   - work distribution: an idle locality steals from a peer (Steal on
//     the thief side, Handler.ServeSteal — or the batching
//     MultiStealer extension — on the victim side), the request/reply
//     discipline of the paper's Section 4.3 workpools;
//   - knowledge propagation: an improved incumbent bound is broadcast
//     to every locality (BroadcastBound/Handler.OnBound), with relaxed
//     delivery — late or reordered bounds cost pruning opportunities,
//     never correctness, because receivers merge with a monotonic max;
//   - termination detection: a global live-task count (AddTasks/Done)
//     that reaches zero exactly when no locality holds or will ever
//     receive work;
//   - short-circuit and aggregation: decision-search cancellation
//     (Cancel/Handler.OnCancel) and the terminal collective Gather
//     that brings every locality's result and metrics to rank 0;
//   - fault tolerance: hand-over supervision (WireTask.ID,
//     Ack/Handler.OnAck) and death notification (Deaths), the v4
//     vocabulary that lets the engine's supervised-task ledger replay
//     a dead locality's subtrees — see "Fault tolerance" below.
//
// Two implementations are provided, each in two topologies. The
// Loopback transport connects localities within one process by direct
// calls, with optional injected steal and bound latencies; it backs
// all single-process skeleton runs (internal/core builds its
// simulated-cluster topology on it) and serves as the reference for
// the conformance suite — LoopbackOptions.Wave switches its
// termination discipline from the counted mode to the token wave. The
// TCP transport (NewListener/Dial) connects real OS processes and is
// what `yewpar -dist` deploys, as a star or as a mesh
// (WireOptions.Topology, `-topology mesh`).
//
// # The wire transport: one endpoint
//
// Every locality of a TCP deployment, coordinator or worker, star or
// mesh, is the same type (endpoint, endpoint.go) running the same
// loops: one read loop per link that handles every frame kind, one
// flush tick (coalesced acks, the detector's pacing, replication), one
// heartbeat, one Steal/Ack/BroadcastBound/Cancel/Gather/Close. Three
// things vary, and each is data or a small interface rather than a
// type:
//
//   - The link table and the routing rule. An endpoint holds a
//     rank-indexed table of direct links. A frame for rank r leaves on
//     the direct link when the table has one and on the coordinator's
//     link otherwise, and an endpoint that reads a routed frame
//     (kSteal, kSplit, kStealR; acks are routed id by id) addressed to
//     another rank relays it by the same rule. On a mesh registration
//     fills every slot — workers dial each other from the kPeers
//     address table — so nothing is ever relayed. The star is the mesh
//     with one link: a worker's table holds the coordinator alone, so
//     everything between workers crosses rank 0, which holds the only
//     full table and is therefore the only endpoint that ever relays.
//     Bound spread follows from the same fact: an endpoint that relays
//     fans a kBound out on its other links; fully linked endpoints
//     gossip (kGossip) instead.
//   - The termination detector (detector.go), the one place the
//     topologies differ in protocol: the star counts — every AddTasks
//     delta travels, coalesced into frame headers, to the coordinator,
//     which keeps the global live count attributed per rank — and the
//     mesh circulates a token (wave.go), so no delta ever leaves its
//     rank. The endpoint feeds whichever it has the same five events
//     (a local delta, an incoming frame, tasks arriving, a death, the
//     flush tick) and the detector at the coordinator calls back when
//     the count is zero.
//   - The coordinator role. The endpoint whose rank equals the
//     deployment's current coordinator rank additionally retains the
//     incumbent, sinks the terminal Gather, owns death authority (the
//     liveness watchdog and the kDeath fan-out), announces
//     termination, replicates its residual state to a standby, and
//     keeps the listener that took registrations open for session
//     resumes. Every endpoint carries the (inert) state for this, so
//     the role can move: rank 0 holds it from registration, and under
//     WireOptions.Standby the elected survivor acquires it in place
//     when rank 0 dies — on a star it takes the missing links through
//     the very accept loop that served registration (the others
//     re-dial its pre-bound listener with a kRejoin), on a mesh the
//     links already exist and coordinator traffic merely changes
//     direction. See "Coordinator failover (v7)" below. (The protocol
//     sections that follow say "the hub" for whichever endpoint holds
//     this role.)
//
// Registration is one sequence for all of it: hello → version and spec
// check → (mesh or standby) the worker's listener address, kPeerAddr →
// welcome with rank, size and session id → (mesh or standby) the
// complete address table, kPeers — after which a mesh worker dials the
// lower ranks and accepts the higher ones.
//
// # Wire protocol (v8)
//
// The TCP transport speaks a length-prefixed binary frame format (v1
// was a gob stream per message): a little-endian uint32 body length,
// then kind and flag bytes, then a varint header (from, to, seq) and a
// kind-specific payload — see frame.go for the byte-level layout. The
// protocol version is checked during registration, alongside the
// deployment spec string.
//
// Three amortisations define the v2 layer, all tunable through
// WireOptions:
//
//   - Batched steals: a steal request names the number of tasks the
//     thief will accept (StealBatch, default 64); the reply carries up
//     to that many, so one round trip moves a run. Victims that
//     implement MultiStealer decide how much of their backlog one
//     thief may take: the engine hands over tasks from its pool's best
//     bucket only — the shallowest depth, or the best priority — and
//     at most half of that bucket, so a run keeps the heuristic order
//     and a large StealBatch cannot strip a victim whose whole frontier
//     is smaller than it (half of a whole small pool is nearly all of
//     it, and two ranks then steal the same work back and forth). The
//     thief's engine takes the whole reply at once (BatchAdopter): it
//     enqueues all but the first task as one run and gives the first
//     back for the requesting worker; one without the extension gets
//     the extras through Handler.OnTask. The loopback network steals
//     through the same pair of helpers (collectSteal, adoptTasks) with
//     the same batch, so both transports have one steal semantics.
//   - Coalesced live-task deltas: AddTasks accumulates into a
//     per-locality counter that is drained onto the next outgoing
//     frame of any kind, with a FlushQuantum ticker as the fallback —
//     one counter flush per pool quantum instead of one frame per
//     spawn. Ordering makes this safe for termination detection: the
//     drain happens under the connection's write lock, so a steal
//     reply always carries every delta issued before its tasks left
//     the victim's pool, and the hub applies a frame's delta before
//     routing the frame onward.
//   - Piggybacked bounds: every outgoing frame (except kBound itself)
//     is stamped with the sender's best known bound, so incumbent
//     knowledge rides along with ordinary traffic and a thief never
//     prunes a stolen subtree with knowledge older than the last frame
//     it saw. Receivers deliver a bound to their handler only when it
//     beats everything previously delivered, absorbing the repetition.
//
// v3 adds the ordered-scheduling fields. Each task in a steal reply
// carries its scheduling priority (WireTask.Prio, a varint after the
// depth), so a distributed search stays globally ordered: a stolen
// task re-enters the thief's priority pool exactly where it left the
// victim's. And every frame a locality originates is stamped with a
// best-available-priority summary — the priority of the best task its
// pool could currently serve to a thief (PrioNone when empty),
// supplied by the engine through the StealRanker handler extension.
// The summary survives routing (the hub forwards it unchanged, so a
// steal reply tells the thief how much more the victim holds), and
// receivers record it per origin rank; transports expose the table
// through PeerBestPrio, which the engine's topology uses to probe the
// most promising victim first instead of a random one. Summaries are
// hints — stale the moment they are read — so they order victim
// probing but never hide a victim. The loopback transport answers
// PeerBestPrio by asking the victim's handler directly, which is
// exact.
//
// # Fault tolerance (v4)
//
// v4 makes worker death survivable. Because branch-and-bound task
// execution is idempotent and replay-safe — re-running a subtree can
// change which nodes are visited, never the answer — a lost subtree
// can simply be re-executed from its root by a surviving locality.
// The transport's share of that protocol:
//
//   - Hand-over ids and completion acks. Every task in a steal reply
//     carries an id minted by its victim (WireTask.ID; TaskID packs
//     the victim's rank with a sequence number). The victim retains a
//     copy in the engine's ledger until the thief acks the id —
//     which it does only once the task's entire subtree has completed,
//     here or downstream, so supervision chains transitively back
//     toward the coordinator. Acks coalesce: both endpoints buffer
//     them and flush one kAck batch per quantum, so the no-failure
//     cost is one small frame per quantum, not one per stolen task.
//   - Death detection. The hub reads a broken worker connection — or
//     one silent past WireOptions.LivenessTimeout, with workers
//     sending kPing heartbeats whenever they have been quiet for a
//     Heartbeat — as a death: pending steals aimed at the corpse fail
//     fast, a kDeath notice fans out to every survivor (and surfaces
//     locally) through Deaths(), the rank's gather slot is filled with
//     nil so the terminal collective cannot block, and dead ranks are
//     skipped by victim selection forever after. The loopback network
//     implements the same contract with an injectable Kill(rank), so
//     engine-level death tests run deterministically in-process.
//   - Live-count reconciliation. The hub attributes every coalesced
//     delta to its sender (liveAt per rank). A death subtracts exactly
//     the dead rank's outstanding contribution; everything a survivor
//     registered — including the ledger copies covering tasks the
//     dead rank was holding — stays counted, so Done still fires
//     exactly when the surviving search, replays included, is done.
//     Blocking steals also abort on Done: a victim that finished may
//     shut down with requests still in flight, and those must not
//     serve out the full steal timeout.
//   - Incumbent retention. Bound broadcasts (and decision cancels)
//     may carry the encoded incumbent node; the hub retains the best
//     (obj, node) pair and exposes it through BestKnown, so an optimum
//     found by a locality that later died still reaches the final
//     result. The loopback network retains at network level.
//
// What is and is not survivable: any number of worker deaths are
// absorbed as long as the coordinator lives — supervision chains root
// at rank 0, and an entry is acked only when its whole subtree has
// completed, so even staggered multi-rank deaths replay from the
// earliest surviving supervisor. Through v6, coordinator (rank 0)
// death was out of scope in both topologies: even in the mesh, where
// routing, termination detection, and bound spread are decentralised,
// rank 0 still owned registration, the incumbent store, and result
// aggregation, and its loss ended the deployment. v7 removes that
// caveat for deployments armed with WireOptions.Standby — see
// "Coordinator failover (v7)" below. Enumeration searches cannot be
// repaired by replay — a dead rank's partial monoid value is
// unrecoverable and replaying its subtrees would double-count — so
// DistEnum reports a death as an error rather than return a silently
// wrong total.
//
// # Mesh topology and the termination wave (v5)
//
// The star concentrates every frame of a deployment on the
// coordinator: each worker-to-worker steal costs the hub four frames
// of relay, and each incumbent improvement is re-broadcast to every
// worker. v5 flattens it. During registration the hub collects each
// worker's peer listen address (kPeerAddr) and, once the deployment is
// complete, sends every worker the full address table (kPeers);
// workers then dial each other directly (kPeerHello, deduplicated by
// rank order) and the data plane — steal requests, batched replies,
// completion acks, per-peer priority summaries — flows point to point.
// The coordinator keeps only the control plane: registration, the
// incumbent store, death fan-out, and the terminal Gather.
//
// With no hub seeing every frame, two star-era mechanisms are
// replaced:
//
//   - Bounds spread epidemically instead of by hub re-broadcast. An
//     improving locality pushes kGossip to a small random fan of peers
//     (plus one kBound to the hub, which folds it into the incumbent
//     store but never eagerly re-broadcasts), receivers re-gossip
//     genuine news, and a slow anti-entropy tick catches any peer the
//     pushes missed. Every connection tracks the best bound it has
//     carried in either direction — piggybacked stamps on ordinary
//     traffic count — and a push is suppressed on connections that
//     already carried that bound, so convergent traffic decays to
//     zero: once everyone knows, nobody sends.
//   - Termination is detected by a circulating token (kToken), a
//     Safra-style wave, instead of the hub's global live count. Rank 0
//     initiates; each locality holds the token until it is locally
//     quiet, folds in its task-counter contribution, and blackens the
//     token if it was active since the last visit. A wave that returns
//     clean — no one active, counters summing to zero — is
//     re-confirmed once before anyone stops, which closes the classic
//     in-flight-message race; any activity in between restarts the
//     wave. Worker death blackens the wave and re-elects the lowest
//     surviving rank as initiator.
//
// Both planes stay conformant to the Transport contract, so the
// engine above is topology-blind: the conformance suite runs the same
// cases over star and mesh harnesses, and BenchmarkScaleoutTopology
// (gated by BENCH_scaleout.json) pins the point of the exercise — the
// same 4-locality search moves >= 25% fewer frames through the
// coordinator over the mesh.
//
// # On-demand stack splitting (v6)
//
// The stack-stealing coordination holds its unexplored work inside
// running workers' live generator stacks, not in a pool — so through
// v5 it had nothing a remote ServeSteal could serve, and -dist
// rejected it. v6 closes that hole with one frame kind: kSplit, a
// steal request with split semantics (From = thief, To = victim,
// Want = max tasks, exactly like kSteal). A victim whose pool is dry
// answers by asking one of its running workers to split its live
// generator stack bottom-up — the paper's (spawn-stack) rule, served
// over the wire — and exports the handed-over nodes. The reply is an
// ordinary kStealR, so steal correlation, batching, hand-over
// supervision ids, and the mesh wave's blackening rules all apply
// unchanged; a transport-level thief calls SplitSteal and a
// victim-side handler opts in through the StackSplitter extension,
// with handlers that lack it falling back to plain pool service. Because a split may wait a few
// milliseconds for a worker to reach a poll point, endpoints serve
// kSplit off their read loops. The same request also serves the
// memory story: a locality under Config.PoolBudget pressure would
// rather have its stack split on demand than materialise spawns it
// must then spill (see internal/core's "Memory-bounded search").
//
// # Coordinator failover (v7)
//
// v7 makes coordinator death itself survivable. Arming a deployment
// with WireOptions.Standby (`-standby`, which every rank must agree
// on) changes two things while nothing is failing:
//
//   - Rank 0 runs as a pure coordinator. The engine layer
//     (core.Config.Standby) gives it zero local workers, so the root
//     it seeds leaves its pool only through ledger-supervised steals
//     and no subtree can ever live exclusively in the one process
//     whose death we are insuring against.
//   - The hub replicates its residual state to the lowest live worker
//     rank — the standby. Residual means exactly what death
//     reconciliation and replay cannot reconstruct from the survivors:
//     the mirror of supervised hand-over records, the best bound stamp
//     and retained incumbent, the set of already-mourned ranks, and
//     any gather shares contributed early. Deltas coalesce into
//     kHubDelta frames on the existing flush cadence, with a periodic
//     kHubSnap full snapshot as the resync fallback, so the no-failure
//     premium is a few dozen frames per search and an ns/op tax gated
//     at 1.10x by BENCH_failover.json.
//
// When the coordinator dies, the standby observes the broken
// connection (or liveness timeout), promotes itself — epoch 0 becomes
// 1 — and acquires the coordinator role in place: the same endpoint,
// its role state seeded from what rank 0 replicated to it. In the star
// the other survivors re-dial the standby's listener, which was bound
// at registration time so the address is known before any failure: the
// kRejoin hello carries each rank's cumulative live-count contribution
// and bound stamp, the kWelcome reply re-seeds them with the promoted
// coordinator's, and whatever its fan-outs said between that welcome
// and the link entering its table (a bound, a death) is repeated to the
// rejoiner — so termination accounting and incumbent knowledge cross
// the takeover without loss. In the mesh the data plane already runs
// over direct peer links, so takeover is pure role migration: no
// re-dialing, the promoted rank simply assumes the control plane
// (incumbent store, death fan-out, wave initiation, terminal Gather).
// Either way the search finishes and the promoted rank — not the
// corpse — aggregates and reports the result (Transport.Promoted tells
// callers which rank that is).
//
// The epoch fences double takeover: exactly one promotion is allowed,
// so the death of the promoted coordinator ends the deployment, as
// does losing rank 0 and the standby together before the takeover
// completes. Worker deaths before, during, and after the takeover
// remain survivable through the v4 replay machinery — the staggered
// coordinator-then-worker chaos test exercises precisely that.
//
// ChaosPlan is the reusable fault-injection harness behind those
// tests: a schedule of rank kills (and, since v8, link partitions) at
// offsets from an armed start, driving either the loopback network's
// Kill or a real SIGKILL of a deployed process.
//
// # Link-fault tolerance (v8)
//
// Through v7 the runtime equated a connection with a locality: any
// I/O error — a flapping switch, a dropped NAT binding, a few seconds
// of packet loss — was read as a death, triggering mourning, ledger
// replay, and (for rank 0) a full coordinator failover. Correct, but
// maximally expensive. v8 separates link failure from process failure
// with three mechanisms:
//
//   - Checksummed, sequenced frames. Every frame gains an eight-byte
//     trailer — a per-connection link sequence and a CRC32C over body
//     and sequence — covered by the length prefix. The receiver
//     accepts the next sequence, silently skips duplicates
//     (retransmission overlap), and treats a gap or CRC mismatch as a
//     link failure: corruption can no longer desync the
//     length-prefixed stream or deliver a wrong frame.
//   - Resumable sessions. With WireOptions.LinkGrace > 0
//     (`-link-grace`), every connection of the deployment — hub links,
//     mesh peer links, post-failover rejoin links — is registered as a
//     session at handshake time (the id rides kWelcome, kPeerHello, or
//     kRejoin). Outgoing frames are copied into a bounded retransmit
//     log; on an I/O error the surviving sides suspend the session for
//     the grace window instead of mourning. The dialing side redials
//     and offers kResume (session id + receive high-water mark), the
//     accepting side answers with its own mark, both replay exactly
//     the frames the other missed, and traffic continues — steal
//     replies, acks, deltas, and gossip cross the reconnect with no
//     death, no replay, no failover. A session that cannot resume
//     inside the grace (or whose log was trimmed past what the peer
//     needs) breaks, collapsing to the v4 death path, which is always
//     safe. Stats.LinkResumes counts the saves.
//   - Suspicion before mourning. A rank whose link is suspended (or
//     whose heartbeats have gone quiet past LivenessTimeout) is
//     quarantined, not mourned: the engine's victim selection skips it
//     (Transport.Suspected) and steals aimed at it fail fast, but
//     death — with its irreversible replay — is declared only after
//     the grace window closes on top of the liveness timeout. A
//     suspect that resumes re-enters the victim order as if nothing
//     happened.
//
// FaultPlan is the deterministic network fault injector behind the v8
// tests: seeded per-link latency/jitter/drop/duplication/corruption/
// reordering plus scheduled partitions (Partition/Heal), consulted by
// the TCP framing layer around every physical write and by the
// loopback network around every delivery, which has no other source of
// link latency (see LoopbackOptions.Fault). It composes with ChaosPlan
// — kills schedule who dies, the net plan schedules which links lie —
// and powers the partition conformance suite: a partition shorter
// than the grace must be invisible (zero deaths, zero replayed tasks,
// exact optimum) on every transport and topology.
//
// Transports report frames, bytes, steal batch occupancy, and session
// resumes through Wire (the Meter subset of Transport); the engine
// folds those into its Stats.
//
// # Zero-allocation wire hot path, and who owns a payload
//
// A steal round trip — request, serve, reply, receive, adopt,
// completion ack — allocates nothing in steady state, at either end:
// every buffer on the path belongs to a link or to the endpoint and is
// used again for the next frame. One ownership rule makes that safe: a
// payload is borrowed for the duration of the call that hands it over,
// and whoever holds it longer copies it.
//
// Outbound, a link's steal replies are built in one task slice and one
// payload buffer (the read loop's, passed to MultiStealer) and encoded
// into the connection's write scratch; send has copied everything by
// the time it returns. What outlives the send copies: the failover
// mirror (one copy, shared with the replication queue) and the
// session's retransmit log (a pooled image of the encoded frame,
// recycled when an ack trims the log or the session ends).
//
// Inbound, a link reads every frame into one image and parses it into
// one frame value whose task and ack arrays are recycled too, so a
// frame and all it points to live until the link's next read. Stolen
// tasks are therefore decoded on the read loop itself, by the engine
// (BatchAdopter; core.Codec.Decode must not alias its input); a relayed
// frame is re-encoded at once; and what is kept longer is copied by its
// keeper — the incumbent retention, a gather contribution, the
// standby's replica. A handler that is no BatchAdopter gets its own
// copy of every payload.
//
// Around the frames, a steal request waits in a reusable slot that owns
// its reply channel and timeout timer (pendingSteals), and a quantum's
// completion acks are batched per link in arrays kept for the next
// (drainAcks). BenchmarkHotPathWireAllocs measures the census — zero
// allocations per send→recv frame, zero per four-task steal round trip
// with ledger ids and acks — and BENCH_transport.json gates both with
// no slack; TestConformanceBufferReuseUnderStress tests the rule.
//
// # Codec registration contract
//
// Tasks cross the wire as WireTask values carrying an opaque encoded
// node, so dist imports nothing from internal/core and new transports
// (shared-memory IPC, RDMA, a message-queue fabric) can be added
// without touching the search engine. The encoding is owned by the
// application's core.Codec: every locality of a deployment must
// construct the same problem with the same codec (the spec handshake
// guards the former; codecs are not negotiated). Applications register
// their compact codec by exposing a Codec() constructor that the CLI's
// -dist app table picks up — see internal/cli/dist.go — with
// core.GobCodec as the fallback for nodes without a hand-written
// encoding.
package dist
