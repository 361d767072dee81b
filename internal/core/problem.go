package core

import "time"

// EnumProblem describes an enumeration search: traverse the whole tree
// and fold the objective of every node into the monoid.
type EnumProblem[S, N, M any] struct {
	// Gen is the application's lazy node generator factory.
	Gen GenFactory[S, N]
	// Objective maps each visited node into the monoid.
	Objective func(space S, n N) M
	// Monoid accumulates objective values. It must be commutative.
	Monoid Monoid[M]
}

// OptProblem describes an optimisation search: find a node maximising
// Objective. (Minimisation problems negate their objective.)
type OptProblem[S, N any] struct {
	Gen GenFactory[S, N]
	// Objective is the value to maximise.
	Objective func(space S, n N) int64
	// Bound, if non-nil, returns an upper bound on the objective of
	// any node in the subtree rooted at n (n excluded — n itself has
	// already been visited when Bound is consulted). Subtrees whose
	// bound cannot beat the incumbent are pruned, implementing the
	// (prune) rule with the admissible relation u ▷ v ⇔ h(u) ≥ Bound(v).
	Bound func(space S, n N) int64
	// PruneLevel declares that every generator yields children in
	// non-increasing Bound order, so a failed bound check on a child
	// also prunes all of its later siblings (the "prune future
	// children to-the-right" property of Section 4.1). Setting it
	// when the order property does not hold loses solutions.
	PruneLevel bool
	// Copy, if non-nil, returns a deeply independent copy of a node.
	// Required when the application's generators implement
	// EphemeralGenerator: the engine calls it before retaining a node
	// beyond the current visit (strengthening the incumbent), since an
	// ephemeral child's storage may be overwritten by the generator's
	// next step. Retention is rare — a handful of incumbent
	// improvements per search — so the copy cost is negligible.
	Copy func(space S, n N) N
}

// DecisionProblem describes a decision search: find any node whose
// objective reaches Target, the greatest element of the bounded order.
// Search short-circuits globally as soon as a witness is found.
type DecisionProblem[S, N any] struct {
	Gen GenFactory[S, N]
	// Objective is compared against Target.
	Objective func(space S, n N) int64
	// Target is the greatest element; reaching it ends the search.
	Target int64
	// Bound, if non-nil, upper-bounds the objective over the subtree
	// below n; subtrees with Bound < Target are pruned.
	Bound func(space S, n N) int64
	// PruneLevel declares non-increasing sibling Bound order, letting
	// one failed bound check prune all later siblings (see
	// OptProblem.PruneLevel).
	PruneLevel bool
	// Copy, if non-nil, deep-copies a node before the engine retains
	// it as the decision witness (see OptProblem.Copy).
	Copy func(space S, n N) N
}

// Stats reports work performed by a search.
type Stats struct {
	Nodes       int64 // search-tree nodes visited (processed)
	Prunes      int64 // subtrees pruned by a bound check
	Spawns      int64 // tasks created by a spawn rule
	StealsOK    int64 // successful transport steals from another locality, one per run taken (pool tasks or a stack split)
	StealsFail  int64 // steal attempts that found no work
	LocalSteals int64 // robberies within the locality, no transport, one per run taken (from a sibling's pool shard or a split of its live stack)
	Backtracks  int64 // generator-stack pops
	Broadcasts  int64 // incumbent-bound broadcasts sent to peer localities
	Workers     int   // workers used
	Elapsed     time.Duration

	// Ordered-scheduling counters (Config.Order). OrderedSteals counts
	// transport steals whose victim was chosen by a priority summary
	// rather than at random; PrioHist is the histogram of spawned task
	// priorities (bucket i = priority i, last bucket saturating).
	OrderedSteals int64
	PrioHist      [prioHistBuckets]int64

	// Wire-level counters, filled from the transport's Meter. For the
	// TCP transport these are real frames and bytes on the wire; for
	// the loopback transport they are the logical messages a wire
	// transport would have sent, so single-process experiments can
	// still report protocol pressure (with zero bytes — in-process
	// hand-over passes nodes by reference, encoding nothing).
	Frames       int64 // transport frames sent
	WireBytes    int64 // bytes sent on the wire
	BatchTasks   int64 // tasks received in steal replies (occupancy numerator)
	BatchReplies int64 // non-empty steal replies received (occupancy denominator)

	// Fault-tolerance counters (distributed runs). Deaths is the
	// number of localities that died mid-search (every survivor
	// observes the same global number, so merges take the max);
	// ReplayedTasks counts ledger entries re-enqueued by survivors —
	// the subtree roots the dead ranks were holding; LedgerPeak is the
	// largest supervised-task retention any locality reached.
	Deaths        int64
	ReplayedTasks int64
	LedgerPeak    int64
	// LinkResumes counts v8 session resumes completed by this process's
	// transports (dist.WireOptions.LinkGrace): connections that broke and healed
	// without a death. Summed across localities on merge.
	LinkResumes int64

	// Memory-governor counters (Config.PoolBudget; the peaks are live
	// for every pool-based run). PoolPeakTasks/PoolPeakBytes are the
	// largest resident workpool any locality reached (bytes via the
	// calibrated per-task estimate; merges take the max — peaks are
	// per-locality high-water marks, not additive); SpilledTasks and
	// SpillBytes count tasks and segment bytes parked on disk by
	// pressure spills, summed across localities.
	PoolPeakTasks int64
	PoolPeakBytes int64
	SpilledTasks  int64
	SpillBytes    int64
}

// BatchOccupancy is the mean number of tasks per non-empty steal
// reply: the length of the run a steal takes, up to the transport's
// StealBatch when victims' best buckets are deep.
func (s Stats) BatchOccupancy() float64 {
	if s.BatchReplies == 0 {
		return 0
	}
	return float64(s.BatchTasks) / float64(s.BatchReplies)
}

// PrefetchHitRate is the share of remotely acquired tasks that cost no
// worker a blocking round trip: all of a steal's run but its first, which
// the requester waited for. (bench/ reads it as core.prefetch_hit_ratio,
// hence the name.)
func (s Stats) PrefetchHitRate() float64 {
	if s.BatchTasks == 0 {
		return 0
	}
	return float64(s.BatchTasks-s.BatchReplies) / float64(s.BatchTasks)
}

// merge folds another process's stats into s (distributed result
// aggregation). Elapsed is left alone: wall-clock time is the
// coordinator's, not a sum.
func (s *Stats) merge(o Stats) {
	s.Nodes += o.Nodes
	s.Prunes += o.Prunes
	s.Spawns += o.Spawns
	s.StealsOK += o.StealsOK
	s.StealsFail += o.StealsFail
	s.LocalSteals += o.LocalSteals
	s.Backtracks += o.Backtracks
	s.Broadcasts += o.Broadcasts
	s.Workers += o.Workers
	s.OrderedSteals += o.OrderedSteals
	for i := range s.PrioHist {
		s.PrioHist[i] += o.PrioHist[i]
	}
	s.Frames += o.Frames
	s.WireBytes += o.WireBytes
	s.BatchTasks += o.BatchTasks
	s.BatchReplies += o.BatchReplies
	if o.Deaths > s.Deaths {
		s.Deaths = o.Deaths
	}
	s.ReplayedTasks += o.ReplayedTasks
	s.LinkResumes += o.LinkResumes
	if o.LedgerPeak > s.LedgerPeak {
		s.LedgerPeak = o.LedgerPeak
	}
	if o.PoolPeakTasks > s.PoolPeakTasks {
		s.PoolPeakTasks = o.PoolPeakTasks
	}
	if o.PoolPeakBytes > s.PoolPeakBytes {
		s.PoolPeakBytes = o.PoolPeakBytes
	}
	s.SpilledTasks += o.SpilledTasks
	s.SpillBytes += o.SpillBytes
}

func (s *Stats) add(w WorkerStats) {
	s.Nodes += w.Nodes
	s.Prunes += w.Prunes
	s.Spawns += w.Spawns
	s.StealsOK += w.StealsOK
	s.StealsFail += w.StealsFail
	s.LocalSteals += w.LocalSteals
	s.Backtracks += w.Backtracks
	s.OrderedSteals += w.OrderedSteals
	for i := range s.PrioHist {
		s.PrioHist[i] += w.PrioHist[i]
	}
}

// EnumResult is the outcome of an enumeration skeleton.
type EnumResult[M any] struct {
	Value M
	Stats Stats
}

// OptResult is the outcome of an optimisation skeleton. Found is false
// only when the search visited no nodes (never happens: the root is
// always visited).
type OptResult[N any] struct {
	Best      N
	Objective int64
	Found     bool
	Stats     Stats
}

// DecisionResult is the outcome of a decision skeleton. Found reports
// whether a node with Objective >= Target exists; when true, Witness is
// one (nondeterministically chosen) such node.
type DecisionResult[N any] struct {
	Witness   N
	Objective int64
	Found     bool
	Stats     Stats
}
