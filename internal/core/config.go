package core

import (
	"runtime"

	"yewpar/internal/dist"
)

// PoolKind selects the key the workpool buckets tasks on. A search
// derives it from Config.Order.
type PoolKind int

const (
	// DepthPoolKind is the paper's order-preserving workpool: tasks
	// pop lowest-depth-first, FIFO within a depth, so the frontier is
	// consumed in heuristic search order. The default.
	DepthPoolKind PoolKind = iota
	// PrioBucketKind buckets tasks on Task.Prio (lower = better) and
	// serves owners and thieves best-priority-first. Used when
	// Config.Order is not OrderNone; pointless without an ordering mode
	// (every priority would be zero).
	PrioBucketKind
)

// Config tunes the parallel skeletons. The zero value selects sensible
// defaults (GOMAXPROCS workers on a single locality).
type Config struct {
	// Workers is the total number of search workers. Default:
	// runtime.GOMAXPROCS(0).
	Workers int
	// Localities is the number of in-process localities (stand-ins for
	// machines, on the loopback transport), each owning a workpool and a
	// cached bound. Workers are spread evenly, at least one a locality:
	// more localities than Workers gives Workers. Default 1. The Dist
	// entry points host one locality per process instead.
	Localities int
	// DCutoff is the Depth-Bounded spawn depth d_cutoff: every node
	// shallower than DCutoff has its children spawned as tasks.
	// Default 1.
	DCutoff int
	// Budget is the backtrack budget k_budget for the Budget
	// coordination. Default 10_000.
	Budget int64
	// Chunked makes a Stack-Stealing worker that feeds a hungry locality
	// shed all the nodes at the lowest depth of its stack (up to 64)
	// instead of a single node.
	Chunked bool
	// Order selects the global task-scheduling order (see Order). The
	// default, OrderNone, is the paper's depth-ordered scheduling with
	// random-victim stealing. OrderDiscrepancy and OrderBound switch
	// every pool-based coordination — including the distributed entry
	// points — to priority-bucketed pools, best-priority-first steal
	// service, and priority-aware victim selection, so globally
	// promising subtrees are searched first everywhere. The search
	// result is identical under any order; only which parts of the
	// tree are visited (and therefore pruned) early changes.
	Order Order
	// PoolBudget bounds the memory a locality's workpool may hold, in
	// bytes (tasks × a per-task estimate derived from the node's
	// encoded size). 0, the default, is unbounded. Under a budget the
	// locality responds to pressure in preference order: it advertises
	// itself as a prime steal victim so thieves drain it first, the
	// pool-based coordinations trade spawning for inline expansion
	// (Depth-Bounded expands below the cutoff, Budget stops shedding),
	// and past the hard threshold the coldest tasks — deepest depth, or
	// worst priority under an ordering mode — are spilled to a
	// per-locality disk segment file and re-admitted when the in-RAM
	// pool drains. Spilling is result-invariant: the same nodes are
	// visited, only where the frontier waits changes.
	PoolBudget int64
	// SpillDir is the directory under which spill segment directories
	// are created (os.MkdirTemp, removed when the search ends). Empty
	// uses the OS temp dir. Only meaningful with PoolBudget set.
	SpillDir string
	// MaxFailures is the locality-death budget of a distributed run
	// (the Dist entry points; single-process searches cannot lose a
	// locality), the same for every search type. Deaths within it are
	// absorbed: the dead ranks' subtrees are replayed from the survivors'
	// ledgers and the search ends exact; deaths beyond it make the call
	// err alongside its repaired result. Negative is unlimited; the zero
	// default tolerates none. Rank 0's death counts only on a standby
	// deployment (dist.WireOptions.Standby, which the engine reads from its
	// transport): without one, every worker's call errs (its gather finds no
	// coordinator) and no rank returns the answer, whatever the budget.
	MaxFailures int
	// Deprecated: ignored. Every TCP deployment is a mesh, and a single
	// process's localities share memory.
	Topology string
	// NetFault, if non-nil, injects deterministic network faults into
	// the links between in-process localities (see dist.FaultPlan). It
	// is the one way to simulate network cost on the loopback network:
	// a link's latency is slept by every steal across it and delays
	// every bound broadcast and cancel — the PGAS bound broadcast of
	// Section 4.3; remote workers prune against stale bounds in the
	// meantime, fewer prunes, never incorrect — and a partition fails
	// steals and holds deliveries until it heals. Ignored by the Dist
	// entry points, whose network is real (a wire deployment takes its
	// plan through dist.WireOptions). Testing and experiments only.
	NetFault *dist.FaultPlan
	// Seed seeds victim selection for work stealing. Default 1.
	Seed int64
	// Trace, if non-nil, records every task execution for workload
	// analysis. Create with NewTrace(Workers) and read with Summary
	// after the run.
	Trace *Trace

	// shards, if positive, overrides a locality's pool shard count (one
	// per local worker): package tests set 1 to build the single
	// mutex-shared pool the sharded one is checked against.
	shards int
	// exit, if set (package tests), hears what each in-process locality
	// still holds once a search that was not cancelled has joined its
	// workers: nil, unless the locality was killed (locality.quiescent).
	exit func(rank int, left error)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Localities <= 0 {
		c.Localities = 1
	}
	if c.Localities > c.Workers {
		c.Localities = c.Workers
	}
	if c.DCutoff <= 0 {
		c.DCutoff = 1
	}
	if c.Budget <= 0 {
		c.Budget = 10_000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}
