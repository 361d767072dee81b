package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"yewpar/internal/dist"
)

// boundSink is the incumbent's knowledge-management face as the fabric
// sees it: a per-locality monotonic bound cache.
type boundSink interface {
	localBest(loc int) int64
	applyRemote(loc int, obj int64)
	broadcasts() int64
}

// fabric binds the engine to its communication substrate: one
// dist.Transport per in-process locality. Single-process runs host all
// localities on a loopback network (newLoopbackFabric); a distributed
// process hosts exactly one locality whose transport reaches the other
// OS processes (newDistFabric). Everything above the fabric — pools,
// visitors, coordinations — is identical in both deployments.
type fabric[N any] struct {
	trs   []dist.Transport // in-process localities, parallel to locs
	locs  []*locState[N]
	codec Codec[N]
	wire  bool // tasks leave the process: encode on steal hand-over
	// hasRoot marks the locality that seeds the search root (the
	// coordinator); every in-process run has it.
	hasRoot bool
	size    int // global locality count across all processes

	bounds boundSink  // set for optimisation searches
	cancel *canceller // set at start
	net    *dist.LoopbackNetwork

	// cancelInfo, when set (decision searches), supplies the objective
	// and encoded witness a Cancel broadcast carries, so the witness
	// survives its finder's death.
	cancelInfo func() (int64, []byte)
	// deaths counts distinct peer deaths observed by this process's
	// localities (each dead rank once, however many localities see it).
	deaths atomic.Int64
}

// newLoopbackFabric builds the single-process fabric: cfg.Localities
// localities on a loopback network under the configured fault plan.
// This is what subsumes the old simulated topology — the
// same Transport path a cluster run uses, minus the serialisation.
func newLoopbackFabric[N any](cfg Config) *fabric[N] {
	net := dist.NewLoopback(cfg.Localities, dist.LoopbackOptions{
		Wave:  cfg.Topology == dist.TopologyMesh,
		Fault: cfg.NetFault,
	})
	f := &fabric[N]{
		trs:     net.Transports(),
		hasRoot: true,
		size:    cfg.Localities,
		net:     net,
	}
	for i := range f.trs {
		f.locs = append(f.locs, &locState[N]{idx: i, rank: i, fab: f})
	}
	return f
}

// newDistFabric builds one distributed process's fabric: a single
// locality on the given transport, encoding stolen tasks with codec.
// Only the coordinator (rank 0) seeds the root.
func newDistFabric[N any](tr dist.Transport, codec Codec[N]) *fabric[N] {
	f := &fabric[N]{
		trs:     []dist.Transport{tr},
		codec:   codec,
		wire:    true,
		hasRoot: tr.Rank() == 0,
		size:    tr.Size(),
	}
	f.locs = []*locState[N]{{idx: 0, rank: tr.Rank(), fab: f}}
	return f
}

// start attaches the localities to their transports and wires the
// canceller's broadcast. Must run after pools are installed (engine
// construction) and before any search worker starts.
func (f *fabric[N]) start(cancel *canceller) {
	f.cancel = cancel
	cancel.bcast = func() {
		var obj int64
		var witness []byte
		if f.cancelInfo != nil {
			obj, witness = f.cancelInfo()
		}
		f.trs[0].Cancel(obj, witness)
	}
	for i, tr := range f.trs {
		tr.Start(f.locs[i])
	}
}

// close releases an owned loopback network. Distributed transports are
// owned by the caller (they outlive the search for result gathering).
func (f *fabric[N]) close() {
	if f.net != nil {
		f.net.Close()
	}
}

// foldStats folds everything the fabric measured into s: bound
// broadcasts and the transport-level traffic counters of this process's
// localities; the fault-tolerance counters (deaths observed, ledger
// retention peak, subtree roots replayed — a multi-locality loopback
// run supervises its hand-overs exactly like a deployment does); and
// the memory-governor counters (pool residency peaks, tasks and bytes
// spilled). Call after all workers have joined.
func (f *fabric[N]) foldStats(s *Stats) {
	if f.bounds != nil {
		s.Broadcasts = f.bounds.broadcasts()
	}
	for _, tr := range f.trs {
		ws := tr.Wire()
		s.Frames += ws.FramesSent
		s.WireBytes += ws.BytesSent
		s.BatchTasks += ws.StealTasks
		s.BatchReplies += ws.StealReplies
		s.LinkResumes += ws.Resumes
	}
	s.Deaths += f.deaths.Load()
	for _, loc := range f.locs {
		peak, replayed := loc.led.stats()
		s.LedgerPeak = max(s.LedgerPeak, int64(peak))
		s.ReplayedTasks += replayed
		tasks := loc.pool.PeakTasks()
		s.PoolPeakTasks = max(s.PoolPeakTasks, tasks)
		s.PoolPeakBytes = max(s.PoolPeakBytes, tasks*loc.mem.perTask.Load())
		s.SpilledTasks += loc.mem.spilledTotal.Load()
		s.SpillBytes += loc.mem.spillBytes.Load()
	}
}

// locState is one in-process locality's engine endpoint: the
// dist.Handler serving its peers. The pool is installed by the engine
// before the fabric starts.
type locState[N any] struct {
	idx  int // index among in-process localities
	rank int // global rank
	pool *ShardedPool[N]
	led  *ledger[N]   // supervision ledger of the tasks handed to peers
	mem  *memState[N] // memory accountant (set with the pool)
	// split, when set (stack-stealing runs), is the rendezvous through
	// which a remote kSplit request reaches this locality's running
	// workers' live generator stacks.
	split *splitGate[N]
	fab   *fabric[N]
	// wake (the engine's topology sets it) releases a parked worker of
	// this locality after work arrives from outside the worker loops — an
	// adopted late steal reply or batch extra.
	wake func()

	// What an adopted hand-over needs and gives back: its family, returned
	// when it drains (a reference to a family — a queued or running task, a
	// ledger entry — holds a unit of pending, so a drained one has none),
	// and the box its first task crosses to the requester in.
	fams  freeList[family]
	boxes freeList[Task[N]]
	// adoptRun is AdoptTasks' decode buffer, under adoptMu: a mesh
	// locality adopts from one receive goroutine per peer. serveRun is
	// ServeStealMulti's, likewise.
	adoptMu, serveMu   sync.Mutex
	adoptRun, serveRun []Task[N]
}

var _ dist.Handler = (*locState[string])(nil)
var _ dist.MultiStealer = (*locState[string])(nil)
var _ dist.BatchAdopter = (*locState[string])(nil)
var _ dist.StealRanker = (*locState[string])(nil)
var _ dist.StackSplitter = (*locState[string])(nil)

// famDone records one drain of a family's supervision counter; the
// last drain acks the origin, retiring the ledger entry whose replay
// would otherwise cover this subtree. On a loopback link without
// latency the ack is delivered synchronously, so the drain can cascade
// up a hand-over chain within this call.
func (h *locState[N]) famDone(f *family) {
	if f != nil && f.pending.Add(-1) == 0 {
		id := f.id
		h.fams.put(f)
		h.fab.trs[h.idx].Ack(dist.TaskOrigin(id), id)
	}
}

// ServeSteal implements dist.Handler, for a transport that does not know
// MultiStealer: a run of one.
func (h *locState[N]) ServeSteal(thief int) (dist.WireTask, bool) {
	out, _ := h.ServeStealMulti(thief, 1, nil, nil)
	if len(out) == 0 {
		return dist.WireTask{}, false
	}
	return out[0], true
}

// export turns a task retained under id into what crosses the locality
// boundary: the bound stamped, and on a wire fabric the node's encoding
// appended to buf (returned extended; the payload is its tail), else the
// task by reference. It fails on a node the codec cannot encode.
func (h *locState[N]) export(id uint64, t Task[N], buf []byte) (dist.WireTask, []byte, bool) {
	wt := dist.WireTask{ID: id, Depth: t.Depth, Prio: int(t.Prio), Bound: math.MinInt64}
	if b := h.fab.bounds; b != nil {
		wt.Bound = b.localBest(h.idx)
	}
	if !h.fab.wire {
		wt.Local = t
		return wt, buf, true
	}
	nb, err := h.fab.codec.EncodeTo(buf, t.Node)
	if err != nil {
		return dist.WireTask{}, buf, false
	}
	wt.Payload = nb[len(buf):len(nb):len(nb)]
	return wt, nb, true
}

// ServeStealMulti implements dist.MultiStealer: the one rule for how much
// a steal takes. The thief gets a run — up to want tasks from the pool's
// best bucket and at most half of that bucket (Pool.StealRun) — each
// stamped with this locality's current bound, so the thief prunes with
// knowledge at least as fresh as the victim's, and retained in the ledger
// under a freshly minted hand-over id until the thief acks its subtree's
// completion. The run is taken under one pool lock and one ledger lock; it
// is appended to out, its encodings to buf, so a transport that serves a
// link's every reply from the same two slices allocates for none.
func (h *locState[N]) ServeStealMulti(thief, want int, out []dist.WireTask, buf []byte) ([]dist.WireTask, []byte) {
	h.serveMu.Lock()
	defer h.serveMu.Unlock()
	run, seq := h.led.handOverRun(thief, h.pool, want, h.serveRun[:0])
	h.serveRun = run
	first, start := len(out), len(buf)
	for i, t := range run {
		var wt dist.WireTask
		var ok bool
		if wt, buf, ok = h.export(h.led.id(seq+uint64(i)), t, buf); !ok {
			// An unencodable node is a deployment bug: it and what follows
			// it stay here, and the thief looks elsewhere.
			for j := range run[i:] {
				h.led.retire(h.led.id(seq + uint64(i+j)))
			}
			h.pool.PushBatch(run[i:])
			break
		}
		out = append(out, wt)
	}
	clear(run) // the nodes are the ledger's now
	// An append may have moved buf under the payloads sliced from it so
	// far: re-slice them all from where it ended up.
	for i := first; i < len(out); i++ {
		end := start + len(out[i].Payload)
		out[i].Payload = buf[start:end:end]
		start = end
	}
	return out, buf
}

// BestStealPrio implements dist.StealRanker: the rank (priority under
// ordered scheduling, depth otherwise) of the best task a thief would
// get from this locality's pool. Transports piggyback it on outgoing
// frames so peers can pick the most promising victim.
func (h *locState[N]) BestStealPrio() (int, bool) {
	// Pressure advertisement, the memory governor's cheapest response: a
	// locality over its budget's soft threshold claims the best possible
	// rank, so priority-aware thieves drain it before anyone else —
	// every task handed away is memory it no longer holds.
	if h.mem.pressured(h.pool) {
		return 0, true
	}
	if r := h.pool.StealRank(); r >= 0 {
		return r, true
	}
	return h.splitRank()
}

// splitRank advertises splittable (not yet materialised) work: under
// the stack-stealing coordination a locality whose pool is empty but
// whose workers hold live generator stacks still has work a kSplit can
// export. It ranks worst — materialising costs the victim a split — so
// thieves prefer pool-resident work anywhere else first.
func (h *locState[N]) splitRank() (int, bool) {
	if g := h.split; g != nil && g.splittable() {
		return maxTaskPrio, true
	}
	return 0, false
}

// ServeSplit implements dist.StackSplitter: export up to max tasks to a
// work-starved peer, from the pool's spares when it has any, otherwise
// by asking a running worker to split the bottom of its live generator
// stack (the paper's (spawn-stack) rule, on demand over the wire). May
// block briefly — transports serve it off their read loops.
func (h *locState[N]) ServeSplit(thief, max int) []dist.WireTask {
	if out, _ := h.ServeStealMulti(thief, max, nil, nil); len(out) > 0 {
		return out
	}
	g := h.split
	if g == nil {
		return nil
	}
	var out []dist.WireTask
	for _, t := range g.request(max, splitServeWait, nil) {
		id, ok := h.led.handOver(thief, t)
		if !ok {
			// Dead thief or full ledger: the donated node stays, a pool task.
			h.pool.Push(t)
			continue
		}
		if wt, _, ok := h.export(id, t, nil); ok {
			out = append(out, wt)
		} else {
			h.led.retire(id)
			h.pool.Push(t)
		}
	}
	return out
}

// OnBound implements dist.Handler: merge a peer's bound into the local
// cache (monotonically — late deliveries are harmless).
func (h *locState[N]) OnBound(from int, obj int64) {
	if b := h.fab.bounds; b != nil {
		b.applyRemote(h.idx, obj)
	}
}

// OnCancel implements dist.Handler: latch the local short-circuit
// without re-broadcasting (the originator already reached everyone).
func (h *locState[N]) OnCancel(from int) {
	if c := h.fab.cancel; c != nil {
		c.cancelQuiet()
	}
}

// receive turns a task as it arrived into an engine task: the bound
// snapshot merged, the node decoded (or, handed over by reference on the
// loopback network, unwrapped), a fresh supervision family opened under
// the hand-over id. Registering it is the caller's job.
func (h *locState[N]) receive(wt dist.WireTask) Task[N] {
	if b := h.fab.bounds; b != nil && wt.Bound > math.MinInt64 {
		b.applyRemote(h.idx, wt.Bound)
	}
	t, local := wt.Local.(Task[N])
	if !local {
		n, err := h.fab.codec.Decode(wt.Payload)
		if err != nil {
			// Mismatched codecs across a deployment are unrecoverable: the
			// task cannot be run here and returning it is impossible.
			panic(fmt.Sprintf("core: decoding stolen task: %v", err))
		}
		t = Task[N]{Node: n, Depth: wt.Depth, Prio: int32(wt.Prio)}
	}
	t.fam = nil // the victim's, by reference; an unsupervised one owes no ack
	if wt.ID != 0 {
		t.fam = h.fams.get()
		t.fam.id = wt.ID
		t.fam.pending.Store(1) // the received task itself
	}
	return t
}

// adopt opens the box AdoptTasks left a steal's first task in: decoded,
// registered, under its family.
func (h *locState[N]) adopt(wt dist.WireTask) Task[N] {
	b := wt.Local.(*Task[N])
	t := *b
	*b = Task[N]{}
	h.boxes.put(b)
	return t
}

// AdoptTasks implements dist.BatchAdopter: a steal reply's tasks are
// adopted as one run — one decode loop, one registration with the live
// count before any of them is visible, one push, one wake — on the
// transport's receive goroutine, because the payloads alias the frame
// image the next read overwrites. With keep the first task goes back in
// a box, for the requester whose adopt opens it. Their victim retains the
// tasks until we ack: they run here or the search never terminates.
func (h *locState[N]) AdoptTasks(ts []dist.WireTask, keep bool) dist.WireTask {
	h.adoptMu.Lock()
	defer h.adoptMu.Unlock()
	run := h.adoptRun[:0]
	for _, wt := range ts {
		run = append(run, h.receive(wt))
	}
	h.adoptRun = run
	h.fab.trs[h.idx].AddTasks(int64(len(run)))
	var first dist.WireTask
	rest := run
	if keep {
		b := h.boxes.get()
		*b = run[0]
		first, rest = ts[0], run[1:]
		first.Payload, first.Local = nil, b
	}
	if len(rest) > 0 {
		h.pool.PushBatch(rest)
		h.wake()
	}
	clear(run) // the nodes are the pool's, and the box's, now
	return first
}

// OnTask implements dist.Handler, for a transport that does not know
// BatchAdopter: a run of one.
func (h *locState[N]) OnTask(wt dist.WireTask) { h.AdoptTasks([]dist.WireTask{wt}, false) }

// OnAck implements dist.Handler: a thief certifies that the subtree
// handed over under id has fully completed. The retained copy is
// retired, its registration released, and — if the handed-over task
// was itself part of a received family — the family drain continues,
// cascading the certificate towards the hand-over chain's origin.
func (h *locState[N]) OnAck(from int, id uint64) {
	fam, ok := h.led.retire(id)
	if !ok {
		return // already replayed by a death race; the replay owns the task now
	}
	h.fab.trs[h.idx].AddTasks(-1)
	h.famDone(fam)
}
