package core

import (
	"fmt"
	"time"

	"yewpar/internal/dist"
	"yewpar/internal/pad"
)

// This file is the composition the paper's Figure 3 draws: a skeleton
// is a search type (enumeration, optimisation, decision — a searchType
// value) × a coordination (a Coordination) over one runtime: search, the
// one driver, which the exported entry points adapt.

// Coordination names a search coordination method. New coordinations
// can be added by adding a rule to ruleFor (walk.go), mirroring the
// extensibility point of Section 4 of the paper.
type Coordination int

const (
	// Sequential explores the tree on a single worker (Listing 2).
	Sequential Coordination = iota
	// DepthBounded spawns every node above d_cutoff (spawn-depth).
	DepthBounded
	// StackStealing splits the search on demand when thieves ask
	// (spawn-stack).
	StackStealing
	// Budget sheds low-depth subtrees every k_budget backtracks
	// (spawn-budget).
	Budget
	// Replicable is the skeleton of Archibald et al., "Replicable parallel
	// branch and bound search" (JPDC 2018), simplified: the cure for the
	// anomalies the paper's §2.1 cites. The tree above d_cutoff is searched
	// sequentially for the cutoff nodes and a starting incumbent, then each
	// cutoff subtree as a task pruning only against that frozen bound. The
	// visited set depends on the problem and d_cutoff alone, not on workers,
	// localities, order or timing. Single-process for now: that the frozen
	// bound reaches every rank before its first task is unshown.
	Replicable
)

// String returns the coordination's conventional name.
func (c Coordination) String() string {
	if c < 0 || int(c) >= len(coordNames) {
		return "unknown"
	}
	return coordNames[c]
}

var coordNames = [...]string{Sequential: "seq", DepthBounded: "depthbounded", StackStealing: "stacksteal", Budget: "budget", Replicable: "replicable"}

// searchType is the search-type half of a skeleton: everything the
// driver needs to know about what is being computed, built from a
// problem definition by enumeration, optimisation or decision. The
// closures of one value share the search's knowledge (incumbent,
// witness), which attach creates, so a value serves exactly one run. R
// is the entry point's result type.
type searchType[S, N, R any] struct {
	gen GenFactory[S, N]
	// bound is the priority source of OrderBound; nil (enumeration)
	// degrades that order to discrepancy.
	bound func(S, N) int64
	// attach creates the search's shared knowledge, hooks it to the
	// fabric (inc, cancelInfo), and returns the constructor of a
	// worker's visitor around the worker's own counters and locality.
	attach func(fab *fabric[N]) func(th *thief[N]) visitor[N]
	// local reads the result of this process's localities. Only valid
	// after the workers have joined.
	local func(ws []*workerCtx[S, N], stats Stats) R
	// An enumeration's answer is gathered: share encodes a local result's
	// value as this process's contribution to the gather of a
	// multi-process run, and merge folds another rank's share into the
	// coordinator's; a nil share is a rank that died before contributing.
	// An optimisation's or a decision's is the coordinator's own: known
	// folds the transport's retained node (BestKnown) into its result.
	share func(local R) ([]byte, error)
	merge func(agg *R, rank int, s *distShare) error
	known func(agg *R, obj int64, node []byte) error
}

// enumeration is the search type of the (accumulate) rule: per-worker
// monoid accumulators, combined after the join. The monoid value
// crosses the wire gob-encoded.
func enumeration[S, N, M any](space S, p EnumProblem[S, N, M]) searchType[S, N, EnumResult[M]] {
	return searchType[S, N, EnumResult[M]]{
		gen: p.Gen,
		attach: func(*fabric[N]) func(*thief[N]) visitor[N] {
			return func(th *thief[N]) visitor[N] { return newEnumVisitor(space, p, &th.stats) }
		},
		local: func(ws []*workerCtx[S, N], stats Stats) EnumResult[M] {
			acc := p.Monoid.Zero()
			for _, c := range ws {
				acc = p.Monoid.Plus(acc, c.visitor.(*enumVisitor[S, N, M]).acc)
			}
			return EnumResult[M]{Value: acc, Stats: stats}
		},
		share: func(local EnumResult[M]) ([]byte, error) {
			b, err := GobCodec[M]{}.Encode(local.Value)
			if err != nil {
				return nil, fmt.Errorf("core: encoding local monoid value: %w", err)
			}
			return b, nil
		},
		merge: func(agg *EnumResult[M], rank int, s *distShare) error {
			if s == nil {
				// Enumeration is the one search type replay cannot repair:
				// a dead rank's partial monoid value is gone, and replaying
				// its subtrees would double-count whatever it had already
				// folded in. Report the loss instead of a wrong total.
				return fmt.Errorf("core: locality %d died mid-enumeration; its partial value is unrecoverable (enumeration cannot survive locality death — see the fault-tolerance notes)", rank)
			}
			v, err := GobCodec[M]{}.Decode(s.Value)
			if err != nil {
				return fmt.Errorf("core: decoding locality %d monoid value: %w", rank, err)
			}
			agg.Value = p.Monoid.Plus(agg.Value, v)
			return nil
		},
	}
}

// optimisation is the search type of the (strengthen)/(prune) rules:
// one incumbent for this process's localities, a cached bound per
// locality, and across processes the best node the coordinator retained.
func optimisation[S, N any](space S, p OptProblem[S, N]) searchType[S, N, OptResult[N]] {
	var inc *incumbent[N]
	var codec Codec[N]
	return searchType[S, N, OptResult[N]]{
		gen:   p.Gen,
		bound: p.Bound,
		attach: func(fab *fabric[N]) func(*thief[N]) visitor[N] {
			inc, codec = newIncumbent[N](), fab.codec
			if fab.wire {
				inc.encode = codec.Encode
			}
			fab.inc = inc
			return func(th *thief[N]) visitor[N] {
				if fab.frozen != nil {
					// Replicable: a worker-private incumbent and bound (engine.frozenTask).
					return newOptVisitor(space, p, pad.New[incumbent[N]](), new(locality[N]), &th.stats)
				}
				return newOptVisitor(space, p, inc, th.loc, &th.stats)
			}
		},
		local: func(_ []*workerCtx[S, N], stats Stats) OptResult[N] {
			node, obj, has := inc.result()
			return OptResult[N]{Best: node, Objective: obj, Found: has, Stats: stats}
		},
		known: func(agg *OptResult[N], obj int64, node []byte) error {
			if agg.Found && obj <= agg.Objective {
				return nil
			}
			n, err := codec.Decode(node)
			if err != nil {
				return fmt.Errorf("core: decoding the retained best node: %w", err)
			}
			agg.Best, agg.Objective, agg.Found = n, obj, true
			return nil
		},
	}
}

// decision is the search type of the (shortcircuit) rule: the first
// worker to reach p.Target records the witness and cancels everyone,
// across localities; the coordinator returns its own witness or the one
// a cancel carried to it.
func decision[S, N any](space S, p DecisionProblem[S, N]) searchType[S, N, DecisionResult[N]] {
	wit := &witness[N]{}
	var codec Codec[N]
	return searchType[S, N, DecisionResult[N]]{
		gen:   p.Gen,
		bound: p.Bound,
		attach: func(fab *fabric[N]) func(*thief[N]) visitor[N] {
			codec = fab.codec
			if fab.wire {
				// A locally found witness rides the cancel broadcast, so it
				// reaches rank 0's retention before this process can die
				// with it (objective only, should the node not encode).
				fab.cancelInfo = func() (int64, []byte) {
					n, obj, _ := wit.get()
					if b, err := codec.Encode(n); err == nil {
						return obj, b
					}
					return obj, nil
				}
			}
			return func(th *thief[N]) visitor[N] {
				return newDecisionVisitor(space, p, wit, fab.cancel, &th.stats)
			}
		},
		local: func(_ []*workerCtx[S, N], stats Stats) DecisionResult[N] {
			node, obj, found := wit.get()
			return DecisionResult[N]{Witness: node, Objective: obj, Found: found, Stats: stats}
		},
		known: func(agg *DecisionResult[N], obj int64, node []byte) error {
			if agg.Found {
				return nil
			}
			n, err := codec.Decode(node)
			if err != nil {
				return fmt.Errorf("core: decoding the retained witness: %w", err)
			}
			agg.Witness, agg.Objective, agg.Found = n, obj, true
			return nil
		},
	}
}

// search is the one driver: it composes a search type with a
// coordination over a fabric, runs it, and folds the statistics. With a
// nil transport the fabric is cfg.Localities loopback localities in
// this process and the local result is the result. Otherwise this
// process is one locality of a deployment on tr (see distributed.go):
// every rank contributes its share to a terminal gather, and the
// coordinator reconciles its local result, the shares and what it
// retained into the global one.
func search[S, N, R any](tr dist.Transport, codec Codec[N], coord Coordination, space S, root N, st searchType[S, N, R], cfg Config) (R, error) {
	if tr == nil {
		cfg = cfg.withDefaults()
		if coord == Sequential {
			cfg.Workers, cfg.Localities = 1, 1
		}
	} else {
		if coord == Sequential || coord == Replicable {
			var none R
			return none, fmt.Errorf("core: coordination %v not supported across processes (use depthbounded, budget, or stacksteal)", coord)
		}
		cfg = distDefaults(cfg, tr)
	}
	rule := ruleFor(coord, cfg)
	// The fabric builds every locality whole — pool, ledger, split gate —
	// so all of it is in place by the time start lets peers request steals.
	fab := newFabric(tr, codec, rule, cfg)
	defer fab.close()
	ws := newWorkers(space, st.gen, cfg, fab.locs, st.attach(fab))
	// Task priorities for the ordered scheduling modes. Across processes
	// every rank constructs the problem identically, so each computes the
	// same root-bound reference and the priorities agree without
	// negotiation.
	e := newEngine(rule, cfg, ws, fab, newPrioAssigner(cfg.Order, space, root, st.bound))
	start := time.Now()
	fab.start()
	e.runPoolWorkers(root)
	if cfg.exit != nil && !fab.cancel.cancelled() {
		for _, l := range fab.locs {
			cfg.exit(l.rank, l.quiescent())
		}
	}
	stats := totalStats(ws)
	stats.Elapsed = time.Since(start)
	fab.foldStats(&stats)
	local := st.local(ws, stats)
	if tr == nil {
		return local, nil
	}

	share := distShare{Stats: stats}
	if st.share != nil {
		var err error
		if share.Value, err = st.share(local); err != nil {
			return local, err
		}
	}
	shares, total, err := gatherShares(tr, share)
	if err != nil || shares == nil {
		// A worker rank: its local contribution, which callers normally
		// discard.
		return local, err
	}
	// The coordinator's own contribution is its local result; the other
	// ranks' shares are merged into it, or, for a node result, what the
	// transport retained of every node-carrying bound broadcast and
	// cancel: every live rank's went ahead of its share, and a dead
	// rank's was retained before the bound it carried could prune.
	agg := st.local(ws, total)
	for rank, s := range shares {
		if rank == tr.Rank() || st.merge == nil {
			continue
		}
		if err := st.merge(&agg, rank, s); err != nil {
			return agg, err
		}
	}
	if obj, blob, ok := tr.BestKnown(); ok && st.known != nil {
		if err := st.known(&agg, obj, blob); err != nil {
			return agg, err
		}
	}
	return agg, failurePolicy(cfg, total.Deaths)
}

// Enum runs an enumeration search under the given coordination,
// returning the monoid fold of the whole tree.
func Enum[S, N, M any](coord Coordination, space S, root N, p EnumProblem[S, N, M], cfg Config) EnumResult[M] {
	res, _ := search(nil, nil, coord, space, root, enumeration(space, p), cfg)
	return res
}

// Opt runs an optimisation search under the given coordination,
// returning a node maximising the objective.
func Opt[S, N any](coord Coordination, space S, root N, p OptProblem[S, N], cfg Config) OptResult[N] {
	res, _ := search(nil, nil, coord, space, root, optimisation(space, p), cfg)
	return res
}

// Decide runs a decision search under the given coordination, looking
// for any node whose objective reaches p.Target.
func Decide[S, N any](coord Coordination, space S, root N, p DecisionProblem[S, N], cfg Config) DecisionResult[N] {
	res, _ := search(nil, nil, coord, space, root, decision(space, p), cfg)
	return res
}
