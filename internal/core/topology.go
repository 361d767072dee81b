package core

import (
	"math/rand"
	"sync/atomic"
	"time"
)

// topology is the engine's view of the distributed machine: the
// sharded workpools of the localities hosted in this process, the
// worker → locality/shard assignment, and the steal plan over the
// global rank space. Each worker owns one shard of its locality's
// pool: pushes and pops touch only that uncontended shard. An idle
// worker escalates through two rings, cheaper first — rob a sibling
// shard within the locality (best-rank-first, preserving the order a
// single shared pool gave), and only then try a peer locality through
// the Transport — mirroring the locality-aware victim selection of
// Section 4.3. In a single-process run the peers are loopback localities
// (with optional injected link faults); in a distributed run they are
// other OS processes.
//
// Victim selection over the transport ring depends on the scheduling
// mode. Unordered searches probe peers in random order, as the paper
// does. Ordered searches (Config.Order) consult the transport's
// per-peer best-available-priority summaries (dist.PrioAware — exact
// on the loopback network, piggybacked on frames over a wire) and
// probe the most promising victim first, so a steal is not merely
// "some work" but the best work any peer admits to having; peers that
// advertised empty pools are probed last rather than skipped, because
// summaries are hints that may be stale. After a full sweep of every
// peer fails, the locality backs off exponentially before sweeping
// again (stealBackoff), stopping the steal storms that otherwise
// accompany drain-down; idle workers meanwhile park on the locality's
// parker, to be woken by the next local push or adopted task.
//
// How much a remote steal moves is the victim's decision and has one
// rule (locState.ServeStealMulti): a run of up to dist.DefaultStealBatch
// tasks from its best bucket, at most half of that bucket. The thief's
// worker runs the first and its locality's pool takes the rest, so one
// round trip's latency is spread over the run and nothing steals ahead
// of demand.
type topology[N any] struct {
	fab         *fabric[N]
	pools       []*ShardedPool[N]
	workerLoc   []int
	workerShard []int
	victims     [][]int         // per in-process locality: global ranks to rob
	parkers     []*parker       // per in-process locality
	backoff     []*stealBackoff // per in-process locality; nil when no peers
	ordered     bool            // rank victims by priority summaries
	mem         []*memState[N]  // per in-process locality memory accountant
	// dead[rank] marks globally dead localities: skipped permanently
	// by victim selection (their transports would only fail the steal,
	// but probing a corpse still costs a round trip or a timeout).
	dead []atomic.Bool
}

// victimScratch is one thief's reusable victim-ranking buffers.
type victimScratch struct {
	order []int
	keys  []int
}

func newTopology[N any](fab *fabric[N], cfg Config) *topology[N] {
	nloc := len(fab.locs)
	tp := &topology[N]{
		fab:         fab,
		pools:       make([]*ShardedPool[N], nloc),
		workerLoc:   make([]int, cfg.Workers),
		workerShard: make([]int, cfg.Workers),
		victims:     make([][]int, nloc),
		parkers:     make([]*parker, nloc),
		ordered:     cfg.Order != OrderNone,
		mem:         make([]*memState[N], nloc),
		dead:        make([]atomic.Bool, fab.size),
	}
	spillCodec := fab.codec
	if spillCodec == nil {
		spillCodec = GobCodec[N]{} // single-process runs carry no app codec
	}
	if fab.size > 1 {
		tp.backoff = make([]*stealBackoff, nloc)
	}
	// Backoff scale: over a wire every empty sweep costs frames at the
	// coordinator, so idle probing starts its backoff higher. The caps
	// stay within a few round trips: an empty sweep usually means work
	// is mid-flight, not gone, and a cap beyond ~10 RTTs turns every
	// task migration into dead time — ordered searches, which migrate
	// aggressively (every steal takes the global best), are the first
	// to feel it.
	boBase, boMax := 50*time.Microsecond, time.Millisecond
	if fab.wire {
		boBase, boMax = 500*time.Microsecond, 5*time.Millisecond
	}
	// localWorkers[i] = workers hosted on in-process locality i (worker
	// w lives on locality w % nloc); each gets its own shard.
	localWorkers := make([]int, nloc)
	for w := 0; w < cfg.Workers; w++ {
		localWorkers[w%nloc]++
	}
	kind := DepthPoolKind
	if tp.ordered {
		kind = PrioBucketKind
	}
	for i := range tp.pools {
		// A pure-coordinator locality (standby deployments run rank 0
		// with zero workers) still needs a pool: it seeds the root and
		// serves steals against it.
		shards := max(localWorkers[i], 1)
		if cfg.shards > 0 {
			shards = cfg.shards
		}
		tp.pools[i] = NewShardedPool[N](kind, shards)
		fab.locs[i].pool = tp.pools[i]
		tp.mem[i] = newMemState[N](cfg.PoolBudget, cfg.SpillDir, spillCodec)
		fab.locs[i].mem = tp.mem[i]
		fab.locs[i].led = newLedger[N](fab.locs[i].rank, cfg.LedgerCap)
		tp.parkers[i] = newParker(localWorkers[i])
		fab.locs[i].wake = tp.parkers[i].wake
		for rank := 0; rank < fab.size; rank++ {
			if rank != fab.locs[i].rank {
				tp.victims[i] = append(tp.victims[i], rank)
			}
		}
		if tp.backoff != nil {
			tp.backoff[i] = newStealBackoff(boBase, boMax)
		}
	}
	for w := 0; w < cfg.Workers; w++ {
		loc := w % nloc
		tp.workerLoc[w] = loc
		tp.workerShard[w] = (w / nloc) % tp.pools[loc].Shards()
	}
	return tp
}

// locality returns the in-process locality a worker belongs to.
func (tp *topology[N]) locality(w int) int { return tp.workerLoc[w] }

// push enqueues a run of tasks on the worker's own pool shard and
// releases a parked sibling, if any, to come rob it.
func (tp *topology[N]) push(w int, run []Task[N]) {
	loc := tp.workerLoc[w]
	tp.pools[loc].Shard(tp.workerShard[w]).PushBatch(run)
	tp.parkers[loc].wake()
}

// settle takes the tasks a worker has finished since it last settled
// off its locality's live count (see engine.finishTask).
func (tp *topology[N]) settle(th *thief) {
	if th.finished != 0 {
		tp.fab.trs[tp.workerLoc[th.id]].AddTasks(-th.finished)
		th.finished = 0
	}
}

// victimOrder writes the sequence of peer ranks a thief of loc should
// probe into sc.order. Dead peers are excluded permanently — a steal
// aimed at a corpse can only fail, after a round trip or a timeout.
// Unordered searches rotate the ring at a random start (the paper's
// random-victim policy, with every peer covered exactly once). Ordered
// searches additionally sort by the transport's summary knowledge:
// peers with known stealable work by ascending priority, then peers of
// unknown state, then peers that last advertised empty — stale hints
// demote a victim, never hide it. Each peer's summary is read exactly
// once, before sorting: on the loopback transport a lookup inspects
// the victim's live pool (locking its shards), so re-reading inside
// the sort would both contend with the victim's owner hot path and let
// the comparator shift mid-sort. The returned slice aliases sc.order.
func (tp *topology[N]) victimOrder(loc int, rng *rand.Rand, sc *victimScratch) []int {
	vs := tp.victims[loc]
	buf := sc.order[:0]
	tr := tp.fab.trs[loc]
	start := rng.Intn(len(vs))
	for i := 0; i < len(vs); i++ {
		v := vs[(start+i)%len(vs)]
		if tp.dead[v].Load() {
			continue
		}
		if tr.Suspected(v) {
			// Quarantined, not mourned: the link is heartbeat-silent or
			// its session is suspended mid-resume. Steals against it can
			// only fail until it heals or is declared dead, so skip it
			// this sweep — it re-enters the ring the moment it resumes.
			continue
		}
		buf = append(buf, v)
	}
	sc.order = buf
	if len(buf) == 0 {
		return buf
	}
	if !tp.ordered {
		return buf
	}
	keys := sc.keys[:0]
	for _, v := range buf {
		p, known := tr.PeerBestPrio(v)
		switch {
		case !known:
			p = maxTaskPrio + 1 // unknown: after every known priority
		case p < 0:
			p = maxTaskPrio + 2 // advertised empty: last resort
		}
		keys = append(keys, p)
	}
	sc.keys = keys
	// Insertion sort: the ring is small (peer count), and stability
	// preserves the random rotation as the tiebreak among equals.
	for i := 1; i < len(buf); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			buf[j], buf[j-1] = buf[j-1], buf[j]
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return buf
}

// popOrSteal takes the next task for a worker, cheapest source first:
// the worker's own shard, then sibling shards within the locality
// (best-rank-first, no transport involved), then peer localities
// through the transport. Steal accounting, the victim-order rng and its
// scratch are the worker's own (th).
func (tp *topology[N]) popOrSteal(th *thief) (Task[N], bool) {
	sh := &th.stats
	loc, shard := tp.workerLoc[th.id], tp.workerShard[th.id]
	if t, ok := tp.pools[loc].Shard(shard).Pop(); ok {
		return t, true
	}
	tp.settle(th)
	if t, ok := tp.pools[loc].StealExcept(shard); ok {
		sh.LocalSteals++
		return t, true
	}
	// The in-RAM frontier is dry: re-admit a spilled segment before
	// paying any transport round trip — the work is already ours.
	if t, ok := tp.mem[loc].readmit(tp.pools[loc], tp.parkers[loc].wake); ok {
		return t, true
	}
	// Stack-stealing: before leaving the locality, ask a running
	// sibling to split its live stack — still no transport involved.
	gate := tp.fab.locs[loc].split
	if gate != nil {
		var abort <-chan struct{}
		if tp.fab.cancel != nil {
			abort = tp.fab.cancel.ch
		}
		if ts := gate.request(splitWant, splitLocalWait, abort); len(ts) > 0 {
			if len(ts) > 1 {
				tp.pools[loc].PushBatch(ts[1:])
				tp.parkers[loc].wake()
			}
			sh.LocalSteals++
			return ts[0], true
		}
	}
	vs := tp.victims[loc]
	if len(vs) == 0 {
		var zero Task[N]
		return zero, false
	}
	bo := tp.backoffAt(loc)
	if bo != nil && !bo.ready() {
		// A recent sweep of every peer came back empty: don't storm
		// them again yet. The caller's idle loop parks; remote work is
		// re-probed when the backoff window closes.
		var zero Task[N]
		return zero, false
	}
	sc := &th.victims
	order := tp.victimOrder(loc, th.rand(), sc)
	if len(order) == 0 {
		// Every peer is dead: this locality is on its own for good.
		var zero Task[N]
		return zero, false
	}
	// Stack-stealing rides kSplit: the victim serves pool spares if it
	// has any and splits a live stack otherwise, so the sweep reaches
	// work an ordinary Steal cannot see.
	steal := tp.fab.trs[loc].Steal
	if gate != nil {
		steal = tp.fab.trs[loc].SplitSteal
	}
	for i, v := range order {
		wt, ok, err := steal(v)
		if err != nil || !ok {
			sh.StealsFail++
			continue
		}
		sh.StealsOK++
		// An ordered steal is one whose victim ranking was informed by
		// a summary: the key recorded while sorting (not a fresh — and
		// pool-locking — lookup) is the ground truth of what guided it.
		if tp.ordered && sc.keys[i] <= maxTaskPrio {
			sh.OrderedSteals++
		}
		if bo != nil {
			bo.reset()
		}
		return tp.fab.locs[loc].adopt(wt), true
	}
	if bo != nil {
		bo.fail()
	}
	var zero Task[N]
	return zero, false
}

// localBacklog reports the work immediately available at a locality
// without touching the transport. Parking workers re-check it after
// registering as waiters, closing the lost-wakeup window.
func (tp *topology[N]) localBacklog(loc int) int {
	return tp.pools[loc].Size() + int(tp.mem[loc].onDisk.Load()) // spilled segments are claimable work
}

// backoffAt returns loc's steal backoff, or nil when there are no
// peers to back off from.
func (tp *topology[N]) backoffAt(loc int) *stealBackoff {
	if tp.backoff == nil {
		return nil
	}
	return tp.backoff[loc]
}

// onDeath reacts to a peer locality's death as seen from in-process
// locality loc: the rank is struck from the victim ring, the ledger
// entries it was holding are re-enqueued locally (the replayed subtree
// roots stay covered by their original registrations, so no accounting
// changes hands), the steal backoff is reset — the victim set just
// changed shape, so survivors should re-probe immediately instead of
// sleeping through the recovery window — and parked workers are woken
// to claim the replayed work. Reports whether this call was the first
// to observe the rank's death in this process (for death counting).
func (tp *topology[N]) onDeath(loc, rank int) bool {
	first := tp.dead[rank].CompareAndSwap(false, true)
	led := tp.fab.locs[loc].led
	tasks := led.reap(rank)
	if rank == 0 && first && tp.fab.trs[loc].AcksRelayed() {
		// The coordinator relayed completion acks; any ack in flight at
		// its death is gone, and with it the retire of the entry it was
		// for. Replay everything outstanding — idempotent, and the only
		// way every registration is guaranteed a continuation (see
		// ledger.reapAll).
		tasks = append(tasks, led.reapAll()...)
	}
	tp.pools[loc].PushBatch(tasks)
	if bo := tp.backoffAt(loc); bo != nil {
		bo.reset()
	}
	tp.parkers[loc].wake()
	return first
}
