package core

import (
	"math"
	"sync"
	"sync/atomic"

	"yewpar/internal/dist"
	"yewpar/internal/pad"
)

// incumbent is the knowledge-management substrate of Section 4.3: an
// authoritative incumbent (best node + objective) for the localities
// hosted in this process, plus one cached bound per locality.
// Strengthening broadcasts the new bound over each locality's
// transport; peers — in-process or across the network — learn it after
// the transport's delivery latency and merge it monotonically, so
// remote workers may prune against stale bounds in the meantime.
// That loses pruning opportunities, never correctness, because pruning
// is only ever justified by a bound the search has actually proven.
//
// In a distributed deployment each process holds one locality and its
// own authoritative incumbent; the coordinator reconciles them in the
// final gather.
type incumbent[N any] struct {
	mu      sync.Mutex
	node    N
	has     bool
	bestObj int64

	caches []pad.Isolated[atomic.Int64] // read once per visited node by the locality's workers
	trs    []dist.Transport             // parallel to caches; broadcast targets
	bcasts atomic.Int64                 // bound broadcasts sent (metrics)

	// encode, when set (wire deployments), serialises the incumbent
	// node onto its bound broadcasts, so the transport can retain the
	// best (obj, node) pair at rank 0 and the optimum survives the
	// death of the locality that found it. In-process deployments
	// leave it nil: all localities share this incumbent anyway.
	encode func(N) ([]byte, error)
}

// newIncumbent creates the incumbent for the given in-process locality
// transports (one bound cache per locality).
func newIncumbent[N any](trs []dist.Transport) *incumbent[N] {
	in := &incumbent[N]{
		bestObj: math.MinInt64,
		caches:  make([]pad.Isolated[atomic.Int64], len(trs)),
		trs:     trs,
	}
	for i := range in.caches {
		in.caches[i].V.Store(math.MinInt64)
	}
	return in
}

// newLocalIncumbent creates a single-locality incumbent with no peers
// to notify — plain deterministic B&B bookkeeping, used by phases that
// must not leak knowledge (the replicable skeleton).
func newLocalIncumbent[N any]() *incumbent[N] {
	in := &incumbent[N]{bestObj: math.MinInt64, caches: make([]pad.Isolated[atomic.Int64], 1)}
	in.caches[0].V.Store(math.MinInt64)
	return in
}

// localBest returns the bound as currently known at a locality.
func (in *incumbent[N]) localBest(loc int) int64 { return in.caches[loc].V.Load() }

// applyRemote merges a bound learned from a peer (via broadcast or a
// stolen task's bound snapshot) into a locality's cache.
func (in *incumbent[N]) applyRemote(loc int, obj int64) {
	storeMax(&in.caches[loc].V, obj)
}

// strengthen installs (obj, n) as the incumbent if obj improves on the
// authoritative best, then broadcasts the bound over the locality's
// transport. The caller's own locality always learns the bound
// immediately; peers learn it after the transport's delivery latency.
// Reports whether the incumbent changed, implementing
// (strengthen)/(skip).
func (in *incumbent[N]) strengthen(loc int, obj int64, n N) bool {
	in.mu.Lock()
	if in.has && obj <= in.bestObj {
		in.mu.Unlock()
		return false
	}
	in.bestObj = obj
	in.node = n
	in.has = true
	in.mu.Unlock()

	storeMax(&in.caches[loc].V, obj)
	// Broadcast (and count) only when there is a peer to tell: a
	// single-locality deployment must report broadcasts=0.
	if in.trs != nil && in.trs[loc].Size() > 1 {
		var blob []byte
		if in.encode != nil {
			// A failed encoding degrades the broadcast to bound-only
			// (the node then survives only in this locality's gather
			// share); it cannot be allowed to suppress the bound.
			blob, _ = in.encode(n)
		}
		in.trs[loc].BroadcastBound(obj, blob)
		in.bcasts.Add(1)
	}
	return true
}

// result returns the final incumbent of this process's localities.
// Call only after all workers have joined.
func (in *incumbent[N]) result() (N, int64, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.node, in.bestObj, in.has
}

// broadcasts reports how many bound broadcasts strengthen sent.
func (in *incumbent[N]) broadcasts() int64 { return in.bcasts.Load() }

// storeMax monotonically raises a to at least v.
func storeMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}
