package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"yewpar/internal/dist"
	"yewpar/internal/pad"
)

// locality is the middle of the runtime's three levels (Section 4.3):
// the search is the fabric's, a worker's state its workerCtx's, and
// everything in between — an order-preserving workpool, a cached bound
// and the scheduler threads that share them — is one locality. It owns
// its transport endpoint, pool, supervision ledger, memory accountant,
// parker, steal backoff, victim ring, hunger words and bound cache, all
// built by newLocality and assigned nowhere else; it is the dist.Handler
// its peers are served by (fabric.go); and it is where an idle worker
// looks for work (popOrSteal). Each worker owns one shard of the pool:
// pushes and pops touch only that uncontended shard. An idle worker
// escalates through two rings, cheaper first — rob a sibling shard
// within the locality, and only then try a peer locality through the
// transport — mirroring the locality-aware victim selection of Section
// 4.3. In a single-process run the peers are loopback localities (with
// optional injected link faults); in a distributed run they are other
// OS processes.
//
// How much a steal moves is the victim's decision and has one rule
// (ShardedPool.stealRun), for a sibling and a peer alike: a run of up to
// dist.DefaultStealBatch tasks from the best bucket of the shard that
// holds the best rank, at most half of that bucket. The thief's worker
// runs the first and keeps the rest — on its own shard, or, adopted from
// a peer, on its locality's pool — so one round trip's latency, or one
// lock's, is spread over the run and nothing steals ahead of demand.
//
// Victim selection over the transport ring depends on the scheduling
// mode. Unordered searches probe peers in random order, as the paper
// does. Ordered searches (Config.Order) consult the transport's
// per-peer best-available-priority summaries (exact on the loopback
// network, piggybacked on frames over a wire) and probe the most
// promising victim first, so a steal is not merely "some work" but the
// best work any peer admits to having; peers that advertised empty
// pools are probed last rather than skipped, because summaries are hints
// that may be stale. After a full sweep of every peer fails, the
// locality backs off exponentially before sweeping again
// (stealBackoff), stopping the steal storms that otherwise accompany
// drain-down; idle workers meanwhile park on the locality's parker, to
// be woken by the next local push or adopted task.
type locality[N any] struct {
	rank int // global rank
	fab  *fabric[N]
	tr   dist.Transport
	pool *ShardedPool[N]
	led  *ledger[N]   // supervision ledger of the tasks handed to peers
	mem  *memState[N] // memory accountant of pool
	park *parker
	// backoff gates sweeps of victims, the global ranks to rob.
	backoff stealBackoff
	victims []int
	// Under a splitting rule (splits: Stack-Stealing) a thief that finds
	// the locality dry raises hungry by one, and each running worker that
	// polls it while it is up lowers it by one and sheds from its live
	// stack onto its own shard (engine.feed), where a thief robs it like
	// any sibling's work. active counts the workers running a task, the
	// ones that can shed. hungry is read by every running worker once per
	// step and active written by every worker once per task, so each has
	// its own line. fed is what a steal from a peer waiting for a shed
	// blocks on (ServeSplit): the next shed, or the last worker out,
	// closes it.
	splits bool
	hungry pad.Isolated[atomic.Int64]
	active pad.Isolated[atomic.Int64]
	fed    atomic.Pointer[chan struct{}]
	// thieves are the steal states of this locality's workers, as
	// newWorkers assigned them; read only once they have joined.
	thieves []*thief[N]
	// bound is the locality's cached copy of the incumbent's objective,
	// read once per visited node by its workers: learned at once from a
	// local strengthen, after the transport's delivery latency from a
	// peer's, so workers may prune against a stale bound in the meantime
	// — which loses pruning, never correctness.
	bound pad.Isolated[atomic.Int64]

	// What an adopted hand-over needs and gives back: its family, returned
	// when it drains (a reference to a family — a queued or running task, a
	// ledger entry — holds a unit of pending, so a drained one has none),
	// and the box its first task crosses to the requester in.
	fams  freeList[family]
	boxes freeList[Task[N]]
	// committed folds the values acked for hand-overs of no family.
	committed family
	// adoptRun is AdoptTasks' decode buffer, under adoptMu: a mesh
	// locality adopts from one receive goroutine per peer. serveRun is
	// ServeStealMulti's, likewise.
	adoptMu, serveMu   sync.Mutex
	adoptRun, serveRun []Task[N]
}

// newLocality builds in-process locality idx of fab on transport tr,
// whole: one pool shard and one parker slot per worker it will host
// (worker w lives on locality w % cfg.Localities). It serves nobody
// until fabric.start attaches it to tr.
func newLocality[N any](fab *fabric[N], idx int, tr dist.Transport, spillCodec Codec[N], rule spawnRule, cfg Config) *locality[N] {
	workers := cfg.Workers / cfg.Localities
	if idx < cfg.Workers%cfg.Localities {
		workers++
	}
	// A pure-coordinator locality (standby deployments run rank 0 with
	// zero workers) still needs a pool: it seeds the root and serves
	// steals against it.
	shards := max(workers, 1)
	if cfg.shards > 0 {
		shards = cfg.shards
	}
	kind := DepthPoolKind
	if fab.ordered {
		kind = PrioBucketKind
	}
	pool := NewShardedPool[N](kind, shards)
	// Backoff scale: an empty sweep usually means work is mid-flight,
	// not gone, and a cap beyond ~10 RTTs turns every task migration
	// into dead time — ordered searches, which migrate aggressively
	// (every steal takes the global best), are the first to feel it.
	// Over a wire every empty sweep costs frames at the coordinator, so
	// idle probing starts its backoff higher.
	boBase, boMax := 50*time.Microsecond, time.Millisecond
	if fab.wire {
		boBase, boMax = 500*time.Microsecond, 5*time.Millisecond
	}
	l := &locality[N]{
		rank:    tr.Rank(),
		fab:     fab,
		tr:      tr,
		pool:    pool,
		led:     newLedger[N](tr.Rank(), ledgerCap, fab.dead),
		mem:     newMemState(pool, cfg.PoolBudget, cfg.SpillDir, spillCodec),
		park:    newParker(workers),
		backoff: stealBackoff{base: boBase, max: boMax},
		splits:  rule.split,
	}
	for rank := range fab.dead {
		if rank != l.rank {
			l.victims = append(l.victims, rank)
		}
	}
	l.bound.V.Store(math.MinInt64)
	return l
}

// victimScratch is one thief's reusable victim-ranking buffers.
type victimScratch struct {
	order []int
	keys  []int
}

// victimOrder writes the sequence of peer ranks a thief of l should
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
func (l *locality[N]) victimOrder(rng *rand.Rand, sc *victimScratch) []int {
	vs := l.victims
	buf := sc.order[:0]
	start := rng.Intn(len(vs))
	for i := 0; i < len(vs); i++ {
		v := vs[(start+i)%len(vs)]
		// A suspect is quarantined, not mourned: the link is
		// heartbeat-silent or its session is suspended mid-resume.
		// Steals against it can only fail until it heals or is declared
		// dead, so skip it this sweep — it re-enters the ring the moment
		// it resumes.
		if !l.fab.dead[v].Load() && !l.tr.Suspected(v) {
			buf = append(buf, v)
		}
	}
	sc.order = buf
	if len(buf) == 0 || !l.fab.ordered {
		return buf
	}
	keys := sc.keys[:0]
	for _, v := range buf {
		p, known := l.tr.PeerBestPrio(v)
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

// popOrSteal takes the next task for one of l's workers, cheapest source
// first: the worker's own shard, then a run robbed from the sibling
// shard holding the best rank (no transport involved; the worker runs
// the first and keeps the rest on its own shard), then peer localities
// through the transport. Steal accounting, the victim-order rng and its
// scratch are the worker's own (th).
func (l *locality[N]) popOrSteal(th *thief[N]) (Task[N], bool) {
	sh := &th.stats
	if t, ok := th.shard.Pop(); ok {
		return t, true
	}
	th.settle()
	if run := l.pool.stealRun(th.shardIdx, len(th.run), th.run[:0]); len(run) > 0 {
		// The worker runs the first; the rest go on its own shard, where a
		// parked sibling is woken to come rob them in turn.
		sh.LocalSteals++
		first := run[0]
		if len(run) > 1 {
			th.shard.PushBatch(run[1:])
			l.park.wake()
		}
		clear(run) // the nodes are the shard's, and the caller's, now
		return first, true
	}
	// The in-RAM frontier is dry: re-admit a spilled segment before
	// paying any transport round trip — the work is already ours.
	if t, ok := l.mem.readmit(l.park.wake); ok {
		return t, true
	}
	// Stack-stealing: a dry locality whose workers hold live stacks asks
	// them to shed, with no transport involved. The thief raises the hungry
	// word once and waits where any idle worker waits, woken by a shed's
	// push to rob the node above, or by a worker that had nothing to shed.
	// Once the word is down, every hunger raised has been answered: a thief
	// still empty-handed looks further afield, as all do once the last
	// worker is out.
	if l.splits && l.active.V.Load() > 0 && !(th.hungry && l.hungry.V.Load() <= 0) {
		if !th.hungry {
			th.hungry = true
			l.hungry.V.Add(1)
		}
		return Task[N]{}, false
	}
	th.hungry = false
	if len(l.victims) == 0 || !l.backoff.ready() {
		// No peers, or a recent sweep of every peer came back empty:
		// don't storm them again yet. The caller's idle loop parks;
		// remote work is re-probed when the backoff window closes.
		return Task[N]{}, false
	}
	sc := &th.victims
	// An empty order means every peer is dead or suspected: the locality
	// is on its own, for now or for good.
	for i, v := range l.victimOrder(th.rand(), sc) {
		wt, ok, err := l.tr.Steal(v)
		if err != nil || !ok {
			sh.StealsFail++
			continue
		}
		sh.StealsOK++
		// An ordered steal is one whose victim ranking was informed by
		// a summary: the key recorded while sorting (not a fresh — and
		// pool-locking — lookup) is the ground truth of what guided it.
		if l.fab.ordered && sc.keys[i] <= maxTaskPrio {
			sh.OrderedSteals++
		}
		l.backoff.reset()
		return l.adopt(wt), true
	}
	l.backoff.fail()
	return Task[N]{}, false
}

// leave ends a worker's task under a splitting rule. The last worker out
// wakes every thief waiting for a shed, local or a peer's, since none can
// come now.
func (l *locality[N]) leave() {
	if l.active.V.Add(-1) == 0 {
		l.park.wakeAll()
		l.fedWaiters()
	}
}

// fedChan is the channel the next shed, or the last worker out, closes
// (fedWaiters).
func (l *locality[N]) fedChan() chan struct{} {
	for {
		if ch := l.fed.Load(); ch != nil {
			return *ch
		}
		ch := make(chan struct{})
		if l.fed.CompareAndSwap(nil, &ch) {
			return ch
		}
	}
}

// fedWaiters releases every steal from a peer waiting for a shed.
func (l *locality[N]) fedWaiters() {
	if l.fed.Load() != nil {
		if ch := l.fed.Swap(nil); ch != nil {
			close(*ch)
		}
	}
}

// backlog reports the work immediately available at the locality
// without touching the transport. Parking workers re-check it after
// registering as waiters, closing the lost-wakeup window.
func (l *locality[N]) backlog() int {
	return l.pool.Size() + int(l.mem.onDisk.Load()) // spilled segments are claimable work
}

// OnDeath implements dist.DeathHearer: a peer's death, which a wire
// announces once, before it acts on it. The rank is struck from the victim
// ring and refused by the ledger (fabric.dead, the one record); at the rank
// taking rank 0's role over, rank 0's hand-over of the root becomes an
// entry of this ledger, its registration taken over (dist.Transport's
// Root); the entries the dead rank held are re-enqueued locally (covered
// by their original registrations), the steal backoff is reset and parked
// workers are woken to claim them. Once the workers stop, it only records.
func (l *locality[N]) OnDeath(rank int) {
	f := l.fab
	f.life.Lock()
	defer f.life.Unlock()
	f.dead[rank].Store(true)
	if f.stopped {
		return
	}
	if holder, id, ok := l.tr.Root(); rank == 0 && ok {
		l.tr.AddTasks(1)
		l.led.install(id, holder, Task[N]{Node: f.root})
	}
	l.pool.PushBatch(l.led.reap(rank))
	l.backoff.reset()
	l.park.wake()
}

// quiescent reports what the locality still holds of a search that has
// terminated — nil when it holds nothing, which is what every locality
// that was neither cancelled nor killed must report once its workers
// have joined: no hand-over awaiting its ack, no segment on disk, no
// task in the pool, no finish a worker counted and never settled.
func (l *locality[N]) quiescent() error {
	led, disk, pool := l.led.outstanding(), l.mem.onDisk.Load(), l.pool.Tasks()
	var unsettled int64
	for _, th := range l.thieves {
		unsettled += th.finished
	}
	if led == 0 && disk == 0 && pool == 0 && unsettled == 0 {
		return nil
	}
	return fmt.Errorf("core: locality %d not quiescent: %d ledger entries, %d tasks on disk, %d in the pool, %d finishes unsettled",
		l.rank, led, disk, pool, unsettled)
}
