// Package core implements the YewPar search-skeleton library
// (Archibald, Maier, Stewart, Trinder: "YewPar: Skeletons for Exact
// Combinatorial Search", PPoPP 2020).
//
// A search application is composed from two parts, mirroring Figure 3 of
// the paper:
//
//   - a Lazy Node Generator (GenFactory) supplied by the application,
//     which describes how the search tree is created on demand and in
//     which (heuristic) order children are traversed; and
//   - a search skeleton, the combination of a search coordination
//     (Sequential, Depth-Bounded, Stack-Stealing, Budget, Replicable)
//     with a search type (Enumeration, Optimisation, Decision).
//
// The paper's twelve skeletons, and Replicable's three, are that product:
// one entry point per search type (Enum, Opt, Decide) taking the
// Coordination: adapters of one driver (search, skeletons.go). Single-process
// runs use the in-process loopback transport of internal/dist (optionally
// with injected link latency, simulating the paper's cluster
// experiments); the DistEnum/DistOpt/DistDecide entry points run one
// locality per OS process over the TCP transport, with task serialisation
// through a Codec and final result/metric aggregation at the coordinator
// — the role HPX plays in the paper's own implementation. The engine sees
// only the dist.Transport contract, so the same code drives the loopback
// network and the TCP endpoint without probing for capabilities.
//
// The semantics of the skeletons follows the operational model of
// Section 3 of the paper (see the sibling package internal/semantics
// for an executable version of that model): enumeration folds the tree
// into a commutative monoid, optimisation and decision maximise an
// objective over the tree with sound-but-possibly-stale pruning, and
// every coordination runs the same traversal rules through one task
// body (engine.runTask, in walk.go) and differs only in its spawnRule
// value, which switches on the (spawn-depth), (spawn-budget) or
// (spawn-stack) rule of Figure 2. Sequential is the empty rule on one
// worker; Replicable, spawn-depth frozen for one round (frozenTask).
//
// # The runtime: three values for three levels
//
// Section 4.3's runtime has a search, localities and workers, and each is
// one value here, built once and whole:
//
//   - fabric (fabric.go), one per search and process: the codec, the
//     canceller, the authoritative incumbent, the one record of dead
//     ranks, and the list of in-process localities. newFabric builds it
//     and every locality in it, from the Config and the spawn rule, before
//     any worker exists or any peer is served.
//   - locality (locality.go), one per transport endpoint: its workpool,
//     supervision ledger, memory accountant, parker, steal backoff,
//     victim ring, hunger words and cached bound, assigned by newLocality
//     and nowhere else. It is the dist.Handler its peers steal from,
//     adopt through and ack (fabric.go), the place an idle worker looks
//     for work (popOrSteal), and what quiescent() is asked of when the
//     search has terminated: ledger empty, nothing on disk, pool empty,
//     no finish unsettled.
//   - workerCtx (worker.go), one per worker: everything it writes per
//     node or per task, and pointers to its locality and to its own pool
//     shard, set by newWorkers. Nothing per-worker or per-locality is
//     kept in a slice indexed by one.
//
// search (skeletons.go) is the only place they are put together:
// newFabric, newWorkers, newEngine, fabric.start, engine.runPoolWorkers.
//
// # Scheduling and allocation hot path
//
// A locality's workpool is two types. bucketQueue is one shard: a FIFO
// per key — the task's depth, or under an ordering mode its priority —
// made of 63-task chunks recycled through a free list, and the shard's
// own task counters, off the lock's cache line. A task is copied once,
// into its slot; nothing doubles under the shard lock, and a queue's
// footprint is the largest frontier it has held — a 100,000-wide level
// costs its own bytes, not five times them. ShardedPool is the shards,
// one per local worker (one for a worker-less coordinator), and the
// thief's view of them. A worker pushes and pops on its own uncontended
// shard, keeping the paper's heuristic order (deepest-first for owners,
// FIFO within a depth) without a shared mutex on the spawn/pop hot path.
// An idle worker escalates cheapest-first: rob a sibling shard within
// the locality, and only then pay a Transport round trip to a peer
// locality, whose steal handler serves from the same shards by the same
// rule (below). The single shared pool that sharding replaced survives
// only as the oracle tests' reference arm.
//
// A spawner hands its tasks over in runs of up to 64 (engine.shed): one
// AddTasks, one family add and one PushBatch — one lock, one counter add,
// one parker wake — per run, registered before any of it is visible. A
// worker takes the tasks it has finished off the live count when its own
// shard comes up empty, not one by one. Registrations are never deferred
// and completions only ever late, so the count a termination detector
// sees is never below the number of unfinished tasks (the invariant is
// stated at engine.finishTask and audited by TestLiveCountNeverEarly).
//
// # Search ordering
//
// Config.Order turns the pool-based coordinations into globally
// ordered searches (the "Parallel Flowshop in YewPar" follow-up
// direction): every task carries a small-int priority (Task.Prio,
// lower = better) — its path discrepancy (one per non-leftmost branch
// between the search root and the task, OrderDiscrepancy) or its
// distance from the root's admissible bound (OrderBound) — and every
// scheduling decision prefers the best priority available. Pools
// key on the priority (PrioBucketKind; a bucket array, not a heap:
// priorities are small ints, so push/pop is O(1) and the sharded owner
// path is uncontended), sibling robs and transport steal service go
// best-priority-first, priorities ride stolen tasks across the wire
// (dist.WireTask.Prio), and idle localities pick the steal victim
// whose advertised best priority is strongest (the summaries behind
// dist.Transport.PeerBestPrio) instead of a random peer. Strong
// incumbents arrive early, pruning amplifies, and the parallel search
// visits measurably fewer nodes — results are bit-identical under any
// order (the oracle tests pin this), so -order is a pure performance
// knob. Best-first search, the paper's Section 4 example of a new
// coordination, is not a coordination here but this composition: Budget
// with OrderBound (the CLI's -skeleton bestfirst). Stats report
// OrderedSteals and a spawned priority histogram; BenchmarkOrderedScheduling
// counts the nodes, BenchmarkGatePrioPoolVsHeap holds the pool's throughput.
//
// # Memory-bounded search
//
// Config.PoolBudget caps each locality's resident task frontier at a
// byte budget — the pool's task count times a per-task estimate taken
// from the encoded size of the root under the deployment codec (gob
// for single-process runs without one). Every pool run carries the
// accountant (Stats.PoolPeakTasks/PoolPeakBytes are always recorded);
// a budget arms its pressure responses, applied in order of
// preference, cheapest first:
//
//  1. Hand work to thieves. A pressured locality clamps the steal-rank
//     and best-priority summaries it advertises to the most attractive
//     values, so idle peers preferentially steal from victims under
//     pressure — relief that costs the victim nothing.
//  2. Deepen cutoffs. Depth-bounded and budget workers under pressure
//     stop spawning and expand inline instead (the same trade their
//     cutoff already makes, applied dynamically), stopping frontier
//     growth at the source without touching results.
//  3. Spill the coldest buckets. If a push still lands the pool past
//     its budget, the coldest tasks — deepest depth, or worst priority
//     under Config.Order — are batch-encoded and appended to a segment
//     file under a per-run os.MkdirTemp directory (Config.SpillDir;
//     "" = the system temp dir), and re-admitted LIFO when the
//     resident pool drains. Segments are removed on every exit path —
//     normal, cancelled, or locality death — so a killed worker's
//     spill never leaks into a fault-tolerance replay.
//
// Spilling is result-invariant (oracle tests pin exact enum counts and
// equal optima at budgets the unbounded frontier exceeds many-fold),
// and the accountant itself is within noise of the unbounded engine
// when the frontier fits in RAM — BenchmarkMemoryBudget measures both
// and BenchmarkGatePoolBudget holds them in CI. Stack-stealing keeps
// almost nothing pooled to begin with: a running worker sheds only when
// a thief finds its locality dry and raises the hungry word, one node
// (or under Chunked one level) at a time, which the thief robs from the
// shedder's shard like any pool work, or a peer's steal serves, so it is
// naturally the memory-leanest coordination.
//
// How much a steal takes has one rule, for a sibling and a peer alike: a
// run from the victim's best bucket, at most half of it (locality).
//
// # Across processes
//
// DistEnum, DistOpt and DistDecide run one locality per OS process: its
// cfg.Workers workers over its own workpool, stealing across the
// transport when idle and broadcasting incumbent bounds, and once the
// search is over (Done) sending its Stats to a gather at the coordinator
// (rank 0, or the rank a failover promoted). No answer is gathered: every
// rank's best node rode its bound broadcasts, and a witness its cancel, to
// the coordinator, which retains the best (dist.Transport's BestKnown),
// and an enumeration's values rode their families' acks to rank 0. Every
// process must construct the problem (space, root, objective, bounds)
// identically: a deployment launches the same binary with the same
// arguments, which the transport's spec handshake enforces.
//
// # Fault tolerance
//
// A distributed search survives the death of any locality, the
// coordinator's too on a standby deployment, up to Config.MaxFailures: a task
// handed to a peer stays in its victim's ledger (ledger.go) until the
// peer acks its whole subtree, and a death re-enqueues what the dead rank
// held, so the search ends with the exact fold, the exact optimum, or a
// witness exactly when one exists: a subtree's enumeration value rides
// its ack and is committed only as the ack retires the entry, so a
// replay replaces a dead thief's value, never adds to it. Under a standby
// rank 0 runs no workers, so its one hand-over is the root's, and the
// lowest survivor takes its role. A wire tells the engine of a death
// before it acts on it (dist.DeathHearer), so the successor first takes
// rank 0's ledger entry for the root over (locality.OnDeath,
// dist.Transport's Root) and the root is a hand-over like any other:
// replayed if its holder is unknown or dies, retired by its holder's ack,
// which commits its value at the successor. Without a standby, rank 0's
// death ends the search.
//
// Idle workers do not spin: after a few failed probe rounds a worker
// parks on its locality's parker and is woken by the next local push
// or adopted steal reply (with a growing timeout to re-probe peers that
// cannot notify it), and a locality whose full
// steal sweep finds every peer empty backs off exponentially before
// sweeping again, so drain-down does not become a steal storm.
//
// Node expansion is allocation-free for applications that opt in:
// generators implementing ResettableGenerator are cached per worker
// and per expansion-stack level and re-aimed with Reset instead of
// reallocated, and EphemeralGenerator additionally lets the pure
// depth-first loop reuse one child buffer per generator (problems then
// supply Copy so the engine can retain incumbents/witnesses safely).
// Together with the fused single-pass bitset kernels of
// internal/bitset (IntersectInto, IntersectIntoCount, PopNext — the
// expansion and colouring inner loops of the bitset applications),
// this is what closes most of the paper's Table 1 "skeleton tax"
// against the hand-coded solver; BenchmarkSkeletonTax measures it and
// BenchmarkGateSkeletonTax holds it within 1.5x in CI.
//
// # Cache-line discipline
//
// Two rules keep a worker-second from being spent moving cache lines
// between cores. (1) Anything a worker writes per node or per task
// lives in its workerCtx — counters, generator cache, live stack,
// steal rng and victim buffers — or in an isolated block only
// that context points to (the visitor and its accumulator). Contexts
// are built by newWorkers, one pad.New block each; no coordination
// keeps per-worker state in a slice of its own. (2) Anything shared by
// design sits alone on its line: each pool shard's header and, apart
// from it, its task counters (ShardedPool sums the shard counters on read
// instead of keeping an aggregate every push and pop would have to
// update), the parker's waiter count, the canceller's flag, the
// locality's hungry word and active count, each locality's bound cache, the trace
// shards, the loopback network's live count. The one helper is
// internal/pad (Isolated, New: 128 bytes either side, covering the
// adjacent-line prefetcher); there are no hand-counted pad arrays.
// layout_test.go asserts the distances, and BenchmarkGateWorkerScaling
// gates the effect: two workers on their own contexts and shards must
// cost what one does.
package core
