package core

import "time"

// Coordination names a search coordination method. New coordinations
// can be added by extending the dispatch in this file, mirroring the
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
)

// String returns the coordination's conventional name.
func (c Coordination) String() string {
	switch c {
	case Sequential:
		return "seq"
	case DepthBounded:
		return "depthbounded"
	case StackStealing:
		return "stacksteal"
	case Budget:
		return "budget"
	default:
		return "unknown"
	}
}

// dispatch starts the fabric and runs the chosen coordination over the
// worker contexts. Engines are built before the fabric starts so that
// every locality's pool is installed by the time peers can request
// steals. prio assigns task priorities for the ordered scheduling
// modes; the pool-based coordinations consume it, the others ignore it.
func dispatch[S, N any](coord Coordination, cfg Config, ws []*workerCtx[S, N], cancel *canceller, root N, fab *fabric[N], prio *prioAssigner[S, N]) {
	switch coord {
	case Sequential:
		fab.start(cancel)
		runSequential(ws[0], cancel, root)
	case DepthBounded:
		e := newEngine(cfg, ws, cancel, fab, prio)
		fab.start(cancel)
		runDepthBounded(e, root)
	case Budget:
		e := newEngine(cfg, ws, cancel, fab, prio)
		fab.start(cancel)
		runBudget(e, root)
	case StackStealing:
		fab.start(cancel)
		runStackStealing(cfg, ws, cancel, root)
	default:
		panic("core: unknown coordination")
	}
}

// Enum runs an enumeration search under the given coordination,
// returning the monoid fold of the whole tree.
func Enum[S, N, M any](coord Coordination, space S, root N, p EnumProblem[S, N, M], cfg Config) EnumResult[M] {
	cfg = cfg.withDefaults()
	if coord == Sequential {
		cfg.Workers, cfg.Localities = 1, 1
	}
	fab := newLoopbackFabric[N](cfg)
	defer fab.close()
	cancel := newCanceller()
	ws := newWorkers(space, p.Gen, cfg, func(_ int, sh *WorkerStats) visitor[N] {
		return newEnumVisitor(space, p, sh)
	})
	prio := newPrioAssigner[S, N](cfg.Order, space, root, nil)
	start := time.Now()
	dispatch(coord, cfg, ws, cancel, root, fab, prio)
	stats := totalStats(ws)
	stats.Elapsed = time.Since(start)
	fab.wireStats(&stats)
	fab.memStats(&stats)
	return EnumResult[M]{Value: combineEnum[S, N, M](p.Monoid, ws), Stats: stats}
}

// Opt runs an optimisation search under the given coordination,
// returning a node maximising the objective.
func Opt[S, N any](coord Coordination, space S, root N, p OptProblem[S, N], cfg Config) OptResult[N] {
	cfg = cfg.withDefaults()
	if coord == Sequential {
		cfg.Workers, cfg.Localities = 1, 1
	}
	fab := newLoopbackFabric[N](cfg)
	defer fab.close()
	cancel := newCanceller()
	inc := newIncumbent[N](fab.trs)
	fab.bounds = inc
	ws := newWorkers(space, p.Gen, cfg, func(w int, sh *WorkerStats) visitor[N] {
		return newOptVisitor(space, p, inc, w%cfg.Localities, sh)
	})
	prio := newPrioAssigner(cfg.Order, space, root, p.Bound)
	start := time.Now()
	dispatch(coord, cfg, ws, cancel, root, fab, prio)
	stats := totalStats(ws)
	stats.Elapsed = time.Since(start)
	stats.Broadcasts = inc.broadcasts()
	fab.wireStats(&stats)
	fab.memStats(&stats)
	node, obj, has := inc.result()
	return OptResult[N]{Best: node, Objective: obj, Found: has, Stats: stats}
}

// Decide runs a decision search under the given coordination, looking
// for any node whose objective reaches p.Target.
func Decide[S, N any](coord Coordination, space S, root N, p DecisionProblem[S, N], cfg Config) DecisionResult[N] {
	cfg = cfg.withDefaults()
	if coord == Sequential {
		cfg.Workers, cfg.Localities = 1, 1
	}
	fab := newLoopbackFabric[N](cfg)
	defer fab.close()
	cancel := newCanceller()
	wit := &witness[N]{}
	ws := newWorkers(space, p.Gen, cfg, func(_ int, sh *WorkerStats) visitor[N] {
		return newDecisionVisitor(space, p, wit, cancel, sh)
	})
	prio := newPrioAssigner(cfg.Order, space, root, p.Bound)
	start := time.Now()
	dispatch(coord, cfg, ws, cancel, root, fab, prio)
	stats := totalStats(ws)
	stats.Elapsed = time.Since(start)
	fab.wireStats(&stats)
	fab.memStats(&stats)
	node, obj, found := wit.get()
	return DecisionResult[N]{Witness: node, Objective: obj, Found: found, Stats: stats}
}

// The twelve skeletons of the paper: every combination of the four
// search coordinations and three search types, as named entry points.

// SequentialEnum is the Sequential × Enumeration skeleton.
func SequentialEnum[S, N, M any](space S, root N, p EnumProblem[S, N, M]) EnumResult[M] {
	return Enum(Sequential, space, root, p, Config{})
}

// SequentialOpt is the Sequential × Optimisation skeleton.
func SequentialOpt[S, N any](space S, root N, p OptProblem[S, N]) OptResult[N] {
	return Opt(Sequential, space, root, p, Config{})
}

// SequentialDecision is the Sequential × Decision skeleton.
func SequentialDecision[S, N any](space S, root N, p DecisionProblem[S, N]) DecisionResult[N] {
	return Decide(Sequential, space, root, p, Config{})
}

// DepthBoundedEnum is the Depth-Bounded × Enumeration skeleton.
func DepthBoundedEnum[S, N, M any](space S, root N, p EnumProblem[S, N, M], cfg Config) EnumResult[M] {
	return Enum(DepthBounded, space, root, p, cfg)
}

// DepthBoundedOpt is the Depth-Bounded × Optimisation skeleton.
func DepthBoundedOpt[S, N any](space S, root N, p OptProblem[S, N], cfg Config) OptResult[N] {
	return Opt(DepthBounded, space, root, p, cfg)
}

// DepthBoundedDecision is the Depth-Bounded × Decision skeleton.
func DepthBoundedDecision[S, N any](space S, root N, p DecisionProblem[S, N], cfg Config) DecisionResult[N] {
	return Decide(DepthBounded, space, root, p, cfg)
}

// StackStealEnum is the Stack-Stealing × Enumeration skeleton.
func StackStealEnum[S, N, M any](space S, root N, p EnumProblem[S, N, M], cfg Config) EnumResult[M] {
	return Enum(StackStealing, space, root, p, cfg)
}

// StackStealOpt is the Stack-Stealing × Optimisation skeleton.
func StackStealOpt[S, N any](space S, root N, p OptProblem[S, N], cfg Config) OptResult[N] {
	return Opt(StackStealing, space, root, p, cfg)
}

// StackStealDecision is the Stack-Stealing × Decision skeleton.
func StackStealDecision[S, N any](space S, root N, p DecisionProblem[S, N], cfg Config) DecisionResult[N] {
	return Decide(StackStealing, space, root, p, cfg)
}

// BudgetEnum is the Budget × Enumeration skeleton.
func BudgetEnum[S, N, M any](space S, root N, p EnumProblem[S, N, M], cfg Config) EnumResult[M] {
	return Enum(Budget, space, root, p, cfg)
}

// BudgetOpt is the Budget × Optimisation skeleton.
func BudgetOpt[S, N any](space S, root N, p OptProblem[S, N], cfg Config) OptResult[N] {
	return Opt(Budget, space, root, p, cfg)
}

// BudgetDecision is the Budget × Decision skeleton.
func BudgetDecision[S, N any](space S, root N, p DecisionProblem[S, N], cfg Config) DecisionResult[N] {
	return Decide(Budget, space, root, p, cfg)
}
