package core

import (
	"math"
	"sync"
	"sync/atomic"
)

// incumbent is the knowledge-management substrate of Section 4.3: the
// authoritative incumbent (best node + objective) for the localities
// hosted in this process; each of them caches its objective
// (locality.bound). Strengthening broadcasts the new bound over the
// strengthening locality's transport; peers — in-process or across the
// network — learn it after the transport's delivery latency and merge it
// monotonically, so remote workers may prune against stale bounds in the
// meantime. That loses pruning opportunities, never correctness, because
// pruning is only ever justified by a bound the search has actually
// proven.
//
// In a distributed deployment each process holds one locality and its
// own authoritative incumbent; every improvement's node rides its bound
// broadcast to the coordinator, whose transport retains the best
// (dist.Transport.BestKnown): that is the search's answer.
type incumbent[N any] struct {
	mu      sync.Mutex
	node    N
	has     bool
	bestObj int64

	bcasts atomic.Int64 // bound broadcasts sent (metrics)

	// encode, when set (wire deployments), serialises the incumbent
	// node onto its bound broadcasts, so the transport can retain the
	// best (obj, node) pair at rank 0 and the optimum survives the
	// death of the locality that found it. In-process deployments
	// leave it nil: all localities share this incumbent anyway.
	encode func(N) ([]byte, error)
}

func newIncumbent[N any]() *incumbent[N] { return &incumbent[N]{bestObj: math.MinInt64} }

// reset empties a worker's private incumbent and sets its bound cache l —
// a locality that is nothing but one: no transport, no peers, no pool —
// to bound, as a task under a frozen rule starts (engine.frozenTask).
func (in *incumbent[N]) reset(l *locality[N], bound int64) {
	in.has = false
	l.bound.V.Store(bound)
}

// strengthen installs (obj, n) as the incumbent if obj improves on the
// authoritative best, then broadcasts the bound over locality l's
// transport and raises l's own cache. Peers learn the bound after the
// transport's delivery latency. The broadcast comes first because it is
// what retains the node where a death cannot reach it: the cache is
// stamped on every task stolen from l, so a bound cached before its
// broadcast could outlive a locality killed between the two — known to a
// thief that will therefore never strengthen to it again, its node known
// to nobody. Reports whether the incumbent changed, implementing
// (strengthen)/(skip).
func (in *incumbent[N]) strengthen(l *locality[N], obj int64, n N) bool {
	in.mu.Lock()
	if in.has && obj <= in.bestObj {
		in.mu.Unlock()
		return false
	}
	in.bestObj = obj
	in.node = n
	in.has = true
	in.mu.Unlock()

	// Broadcast (and count) only when there is a peer to tell: a
	// single-locality deployment must report broadcasts=0.
	if l.tr != nil && l.tr.Size() > 1 {
		var blob []byte
		if in.encode != nil {
			// A failed encoding degrades the broadcast to bound-only,
			// and the coordinator cannot report the node (a codec must
			// encode every node); it cannot be allowed to suppress the
			// bound.
			blob, _ = in.encode(n)
		}
		err := l.tr.BroadcastBound(obj, blob)
		in.bcasts.Add(1)
		if err != nil {
			return true // perhaps unpublished: a task stolen from l must not carry it
		}
	}
	storeMax(&l.bound.V, obj)
	return true
}

// result returns the final incumbent of this process's localities.
// Call only after all workers have joined.
func (in *incumbent[N]) result() (N, int64, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.node, in.bestObj, in.has
}

// storeMax monotonically raises a to at least v.
func storeMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}
