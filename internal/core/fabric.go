package core

import (
	"cmp"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"yewpar/internal/dist"
)

// fabric is the top of the runtime's three levels: what is one per
// search in this process, whatever the number of localities — the codec
// tasks cross a process boundary in, the canceller, the authoritative
// incumbent (optimisation searches), the one record of dead ranks — and
// the list of in-process localities, each on its own dist.Transport.
// Single-process runs host cfg.Localities of them on a loopback network;
// a distributed process hosts exactly one, whose transport reaches the
// other OS processes. Everything above the fabric — pools, visitors,
// coordinations — is identical in both deployments.
type fabric[N any] struct {
	locs []*locality[N]
	// home is the locality process-wide calls go through: the cancel
	// broadcast, the termination signal, and — when it is rank 0, the
	// coordinator, as in every single-process run — the root.
	home    *locality[N]
	codec   Codec[N]
	wire    bool // tasks leave the process: encode on steal hand-over
	ordered bool // Config.Order: priority pools, victims ranked by summary

	cancel *canceller
	inc    *incumbent[N] // set for optimisation searches
	tally  tally[N]      // set for enumeration searches
	frozen *atomic.Int64 // under a frozen rule: the round's bound, MinInt64 until phase 1 has walked the prefix (engine.frozenTask)
	net    *dist.LoopbackNetwork
	root   N // every rank's, as its caller gave it (locality.OnDeath)
	// life orders deaths (locality.OnDeath) against the workers' end.
	life    sync.Mutex
	stopped bool

	// cancelInfo, when set (decision searches), supplies the objective
	// and encoded witness a Cancel broadcast carries, so the witness
	// survives its finder's death.
	cancelInfo func() (int64, []byte)
	// dead[rank], over every rank of the deployment, marks dead
	// localities (only a wire has any): skipped permanently by victim
	// selection (the transport would only fail the steal, but probing a
	// corpse still costs a round trip or a timeout) and refused by the
	// ledger.
	dead []atomic.Bool
}

// newFabric builds a search's fabric, localities and all. With a nil
// transport it is the single-process one: cfg.Localities localities on a
// loopback network under the configured fault plan — the same Transport
// path a cluster run uses, minus the serialisation. Otherwise it is one
// distributed process's: a single locality on tr, encoding stolen tasks
// with codec; only the coordinator (rank 0) seeds the root.
func newFabric[N any](tr dist.Transport, codec Codec[N], rule spawnRule, cfg Config) *fabric[N] {
	f := &fabric[N]{codec: codec, wire: tr != nil, ordered: cfg.Order != OrderNone, cancel: newCanceller()}
	if rule.frozen {
		f.frozen = new(atomic.Int64)
		f.frozen.Store(math.MinInt64)
	}
	trs := []dist.Transport{tr}
	if tr == nil {
		f.net = dist.NewLoopback(cfg.Localities, dist.LoopbackOptions{Fault: cfg.NetFault})
		trs = f.net.Transports()
		codec = GobCodec[N]{} // spills need one; single-process runs carry no app codec
	}
	f.dead = make([]atomic.Bool, trs[0].Size())
	for i, t := range trs {
		f.locs = append(f.locs, newLocality(f, i, t, codec, rule, cfg))
	}
	f.home = f.locs[0]
	f.cancel.bcast = func() {
		var obj int64
		var witness []byte
		if f.cancelInfo != nil {
			obj, witness = f.cancelInfo()
		}
		f.home.tr.Cancel(obj, witness)
	}
	return f
}

// start attaches the localities to their transports: from here on peers
// are served. Must run before any search worker starts. A splitting
// locality is served as a splitter, and only it: the one a transport sees
// as a dist.StackSplitter.
func (f *fabric[N]) start() {
	for _, l := range f.locs {
		if l.splits {
			l.tr.Start(splitter[N]{l})
		} else {
			l.tr.Start(l)
		}
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
// localities; the fault-tolerance counters (ledger retention peak —
// a multi-locality loopback run supervises its hand-overs exactly like
// a deployment does — and, over a wire, deaths and replays); and
// the memory-governor counters (pool residency peaks, tasks and bytes
// spilled). Call after all workers have joined.
func (f *fabric[N]) foldStats(s *Stats) {
	if f.inc != nil {
		s.Broadcasts = f.inc.bcasts.Load()
	}
	for i := range f.dead {
		if f.dead[i].Load() {
			s.Deaths++
		}
	}
	for _, l := range f.locs {
		ws := l.tr.Wire()
		s.Frames += ws.FramesSent
		s.WireBytes += ws.BytesSent
		s.BatchTasks += ws.StealTasks
		s.BatchReplies += ws.StealReplies
		s.LinkResumes += ws.Resumes
		peak, replayed := l.led.stats()
		s.LedgerPeak = max(s.LedgerPeak, int64(peak))
		s.ReplayedTasks += replayed
		tasks := l.pool.PeakTasks()
		s.PoolPeakTasks = max(s.PoolPeakTasks, tasks)
		s.PoolPeakBytes = max(s.PoolPeakBytes, tasks*l.mem.perTask.Load())
		s.SpilledTasks += l.mem.spilledTotal.Load()
		s.SpillBytes += l.mem.spillBytes.Load()
	}
}

// What follows is the locality as its peers see it: the dist.Handler (and
// its optional extensions) that its transport serves them through.

var _ dist.Handler = (*locality[string])(nil)
var _ dist.MultiStealer = (*locality[string])(nil)
var _ dist.BatchAdopter = (*locality[string])(nil)
var _ dist.StealRanker = (*locality[string])(nil)
var _ dist.StackSplitter = splitter[string]{}
var _ dist.ValueAcker = (*locality[string])(nil)
var _ dist.DeathHearer = (*locality[string])(nil)

// famDone records one drain of a family's supervision counter; the
// last drain acks the origin, with the family's value, retiring the
// ledger entry whose replay would otherwise cover this subtree. On a
// loopback link without latency the ack is delivered synchronously, so
// the drain can cascade up a hand-over chain within this call.
func (h *locality[N]) famDone(f *family) {
	if f != nil && f.pending.Add(-1) == 0 {
		id := f.id
		var val []byte
		if h.fab.tally != nil {
			val = h.fab.tally.seal(f)
		}
		h.fams.put(f)
		h.tr.AckValue(dist.TaskOrigin(id), id, val)
	}
}

// ServeSteal implements dist.Handler, for a transport that does not know
// MultiStealer: a run of one.
func (h *locality[N]) ServeSteal(thief int) (dist.WireTask, bool) {
	out, _ := h.ServeStealMulti(thief, 1, nil, nil)
	if len(out) == 0 {
		return dist.WireTask{}, false
	}
	return out[0], true
}

// carried is the bound a hand-over carries and its receiver merges: under a
// frozen rule the round's, which every cutoff task carries, so a rank holds
// it before its first one runs; otherwise the locality's cache.
func (h *locality[N]) carried() *atomic.Int64 {
	if h.fab.frozen != nil {
		return h.fab.frozen
	}
	return &h.bound.V
}

// export turns a task retained under id into what crosses the locality
// boundary: the carried bound stamped, and on a wire fabric the node's
// encoding appended to buf (returned extended; the payload is its tail),
// else the task by reference. It fails on a node the codec cannot encode.
func (h *locality[N]) export(id uint64, t Task[N], buf []byte) (dist.WireTask, []byte, bool) {
	wt := dist.WireTask{ID: id, Depth: t.Depth, Prio: int(t.Prio), Bound: h.carried().Load()}
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
// best bucket and at most half of that bucket (ShardedPool.stealRun) — each
// stamped with this locality's current bound, so the thief prunes with
// knowledge at least as fresh as the victim's, and retained in the ledger
// under a freshly minted hand-over id until the thief acks its subtree's
// completion. The run is taken under one pool lock and one ledger lock; it
// is appended to out, its encodings to buf, so a transport that serves a
// link's every reply from the same two slices allocates for none.
func (h *locality[N]) ServeStealMulti(thief, want int, out []dist.WireTask, buf []byte) ([]dist.WireTask, []byte) {
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
func (h *locality[N]) BestStealPrio() (int, bool) {
	// Pressure advertisement, the memory governor's cheapest response: a
	// locality over its budget's soft threshold claims the best possible
	// rank, so priority-aware thieves drain it before anyone else —
	// every task handed away is memory it no longer holds.
	if h.mem.pressured() {
		return 0, true
	}
	if r := h.pool.StealRank(); r >= 0 {
		return r, true
	}
	// Under a splitting rule, workers holding live stacks are work a steal
	// waits a shed for. It ranks worst — the victim must shed first — so
	// thieves prefer pool-resident work anywhere else.
	if h.splits && h.active.V.Load() > 0 {
		return maxTaskPrio, true
	}
	return 0, false
}

// splitter is a locality under a splitting rule, as its transport serves
// it: the locality, and a steal that finds its pool dry waits for a shed.
type splitter[N any] struct{ *locality[N] }

// splitServeWait bounds how long a peer's steal waits for a shed.
// Running workers poll the hungry word every step, so the wait runs out
// only on a locality stuck in a long node.
const splitServeWait = 10 * time.Millisecond

// ServeSplit implements dist.StackSplitter: a peer's steal that found the
// pool dry raises the hungry word, as a local thief does, and waits for a
// running worker's feed to serve what it shed like any steal — until the
// pool holds work, no worker holds a stack, or splitServeWait has passed.
// An empty reply would cost the peer's thief a round trip elsewhere, and
// often a backoff, so once every hunger raised has been answered (the word
// is down) with nothing for it, it raises the word again. Transports call
// it off their read loops.
func (h splitter[N]) ServeSplit(thief, want int) []dist.WireTask {
	timer := time.NewTimer(splitServeWait)
	defer timer.Stop()
	for raised := false; ; raised = true {
		fed := h.fedChan()
		if out, _ := h.ServeStealMulti(thief, want, nil, nil); len(out) > 0 || h.active.V.Load() == 0 {
			return out
		}
		if !raised || h.hungry.V.Load() <= 0 {
			h.hungry.V.Add(1)
		}
		select {
		case <-fed:
		case <-timer.C:
			return nil
		}
	}
}

// OnBound implements dist.Handler: merge a peer's bound into the local
// cache (monotonically — late deliveries are harmless).
func (h *locality[N]) OnBound(from int, obj int64) { storeMax(&h.bound.V, obj) }

// OnCancel implements dist.Handler: latch the local short-circuit
// without re-broadcasting (the originator already reached everyone).
func (h *locality[N]) OnCancel(from int) { h.fab.cancel.cancelQuiet() }

// receive turns a task as it arrived into an engine task: the carried
// bound merged, the node decoded (or, handed over by reference on the
// loopback network, unwrapped), a fresh supervision family opened under
// the hand-over id. Registering it is the caller's job.
func (h *locality[N]) receive(wt dist.WireTask) Task[N] {
	storeMax(h.carried(), wt.Bound)
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
func (h *locality[N]) adopt(wt dist.WireTask) Task[N] {
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
func (h *locality[N]) AdoptTasks(ts []dist.WireTask, keep bool) dist.WireTask {
	h.adoptMu.Lock()
	defer h.adoptMu.Unlock()
	run := h.adoptRun[:0]
	for _, wt := range ts {
		run = append(run, h.receive(wt))
	}
	h.adoptRun = run
	h.tr.AddTasks(int64(len(run)))
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
		h.park.wake()
	}
	clear(run) // the nodes are the pool's, and the box's, now
	return first
}

// OnTask implements dist.Handler, for a transport that does not know
// BatchAdopter: a run of one.
func (h *locality[N]) OnTask(wt dist.WireTask) { h.AdoptTasks([]dist.WireTask{wt}, false) }

// OnAck implements dist.Handler: an ack without a value.
func (h *locality[N]) OnAck(from int, id uint64) { h.OnAckValue(from, id, nil) }

// OnAckValue implements dist.ValueAcker: the subtree handed over under id
// has completed. Its entry is retired and only then its value committed
// (into the entry's family, or the committed total), its registration
// released and the family drain continued, towards the chain's origin.
func (h *locality[N]) OnAckValue(from int, id uint64, val []byte) {
	fam, ok := h.led.retire(id)
	if !ok {
		return // already replayed by a death race; the replay owns the task, and its value, now
	}
	if val != nil && h.fab.tally != nil {
		h.fab.tally.fold(cmp.Or(fam, &h.committed), val)
	}
	h.tr.AddTasks(-1)
	h.famDone(fam)
}
