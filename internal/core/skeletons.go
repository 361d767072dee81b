package core

import (
	"encoding/binary"
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
	// StackStealing sheds from a running worker's stack when a thief
	// finds its locality dry (spawn-stack).
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
	// localities, processes, order or timing.
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
// witness, tally), which attach creates, so a value serves exactly one
// run. R is the entry point's result type.
type searchType[S, N, R any] struct {
	gen GenFactory[S, N]
	// bound is the priority source of OrderBound; nil (enumeration)
	// degrades that order to discrepancy.
	bound func(S, N) int64
	// attach creates the search's shared knowledge, hooks it to the
	// fabric (inc, cancelInfo, tally), and returns the constructor of a
	// worker's visitor around the worker's own counters and locality.
	attach func(fab *fabric[N]) func(th *thief[N]) visitor[N]
	// local reads this process's localities' result, the answer at the
	// coordinator: its committed total, or its own or its transport's
	// retained node (BestKnown). Valid once the workers joined; read once.
	local func(ws []*workerCtx[S, N], stats Stats) (R, error)
}

// tally is an enumeration's value on its way to the coordinator (family):
// close moves a worker's fold of a task it finished into the task's family
// or, with none, the worker's own total; fold adds an acked value to f;
// seal empties f into its ack's value.
type tally[N any] interface {
	close(v visitor[N], f *family)
	fold(f *family, val []byte)
	seal(f *family) []byte
}

// enumeration is the search type of the (accumulate) rule: per-worker
// monoid accumulators, combined after the join, and per-family ones
// committed at their origins (enumTally).
func enumeration[S, N, M any](space S, p EnumProblem[S, N, M]) searchType[S, N, EnumResult[M]] {
	t := enumTally[S, N, M]{p.Monoid}
	var fab *fabric[N]
	return searchType[S, N, EnumResult[M]]{
		gen: p.Gen,
		attach: func(f *fabric[N]) func(*thief[N]) visitor[N] {
			fab, f.tally = f, t
			return func(th *thief[N]) visitor[N] { return newEnumVisitor(space, p, &th.stats) }
		},
		local: func(ws []*workerCtx[S, N], stats Stats) (EnumResult[M], error) {
			acc := p.Monoid.Zero()
			for _, c := range ws {
				acc = p.Monoid.Plus(acc, c.visitor.(*enumVisitor[S, N, M]).own)
			}
			for _, l := range fab.locs {
				acc = p.Monoid.Plus(acc, t.take(&l.committed))
			}
			return EnumResult[M]{Value: acc, Stats: stats}, nil
		},
	}
}

// enumTally is enumeration's tally: a family's val is an M.
type enumTally[S, N, M any] struct{ mon Monoid[M] }

func (t enumTally[S, N, M]) close(v visitor[N], f *family) {
	ev := v.(*enumVisitor[S, N, M])
	if f == nil {
		ev.own = t.mon.Plus(ev.own, ev.acc)
	} else {
		t.add(f, ev.acc)
	}
	ev.acc = t.mon.Zero()
}

// fold and seal carry an int64, the counting monoids' value, as a varint:
// a gob stream costs some 30 allocations an ack. Any other M is gob.
func (t enumTally[S, N, M]) fold(f *family, val []byte) {
	var x M
	var err error
	if p, ok := any(&x).(*int64); !ok {
		x, err = GobCodec[M]{}.Decode(val)
	} else if v, n := binary.Varint(val); n > 0 {
		*p = v
	} else {
		err = fmt.Errorf("varint of %d bytes", len(val))
	}
	if err != nil {
		panic(fmt.Sprintf("core: decoding an acked monoid value: %v", err))
	}
	t.add(f, x)
}

func (t enumTally[S, N, M]) seal(f *family) []byte {
	x := t.take(f)
	if v, ok := any(x).(int64); ok {
		return binary.AppendVarint(nil, v)
	}
	b, err := GobCodec[M]{}.Encode(x)
	if err != nil {
		panic(fmt.Sprintf("core: encoding a family's monoid value: %v", err))
	}
	return b
}

func (t enumTally[S, N, M]) add(f *family, x M) {
	f.mu.Lock()
	p, ok := f.val.(*M)
	if !ok {
		p = new(M)
		*p, f.val = t.mon.Zero(), p
	}
	*p = t.mon.Plus(*p, x)
	f.mu.Unlock()
}

// take empties f, returning its fold.
func (t enumTally[S, N, M]) take(f *family) M {
	f.mu.Lock()
	defer f.mu.Unlock()
	x := t.mon.Zero()
	if p, ok := f.val.(*M); ok {
		x, *p = *p, x
	}
	return x
}

// optimisation is the search type of the (strengthen)/(prune) rules:
// one incumbent for this process's localities, a cached bound per
// locality, and across processes the best node the coordinator retained.
func optimisation[S, N any](space S, p OptProblem[S, N]) searchType[S, N, OptResult[N]] {
	var inc *incumbent[N]
	var fab *fabric[N]
	return searchType[S, N, OptResult[N]]{
		gen:   p.Gen,
		bound: p.Bound,
		attach: func(f *fabric[N]) func(*thief[N]) visitor[N] {
			inc, fab = newIncumbent[N](), f
			if fab.wire {
				inc.encode = fab.codec.Encode
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
		local: func(_ []*workerCtx[S, N], stats Stats) (OptResult[N], error) {
			node, obj, has := inc.result()
			res := OptResult[N]{Best: node, Objective: obj, Found: has, Stats: stats}
			if o, blob, ok := fab.home.tr.BestKnown(); ok && (!has || o > obj) {
				n, err := fab.codec.Decode(blob)
				if err != nil {
					return res, fmt.Errorf("core: decoding the retained best node: %w", err)
				}
				res.Best, res.Objective, res.Found = n, o, true
			}
			return res, nil
		},
	}
}

// decision is the search type of the (shortcircuit) rule: the first
// worker to reach p.Target records the witness and cancels everyone,
// across localities; the coordinator returns its own witness or the one
// a cancel carried to it.
func decision[S, N any](space S, p DecisionProblem[S, N]) searchType[S, N, DecisionResult[N]] {
	wit := &witness[N]{}
	var fab *fabric[N]
	return searchType[S, N, DecisionResult[N]]{
		gen:   p.Gen,
		bound: p.Bound,
		attach: func(f *fabric[N]) func(*thief[N]) visitor[N] {
			fab = f
			if fab.wire {
				// A locally found witness rides the cancel broadcast, so it
				// reaches rank 0's retention before this process can die
				// with it (objective only, should the node not encode).
				fab.cancelInfo = func() (int64, []byte) {
					n, obj, _ := wit.get()
					if b, err := fab.codec.Encode(n); err == nil {
						return obj, b
					}
					return obj, nil
				}
			}
			return func(th *thief[N]) visitor[N] {
				return newDecisionVisitor(space, p, wit, fab.cancel, &th.stats)
			}
		},
		local: func(_ []*workerCtx[S, N], stats Stats) (DecisionResult[N], error) {
			node, obj, found := wit.get()
			res := DecisionResult[N]{Witness: node, Objective: obj, Found: found, Stats: stats}
			if o, blob, ok := fab.home.tr.BestKnown(); ok && !found {
				n, err := fab.codec.Decode(blob)
				if err != nil {
					return res, fmt.Errorf("core: decoding the retained witness: %w", err)
				}
				res.Witness, res.Objective, res.Found = n, o, true
			}
			return res, nil
		},
	}
}

// search is the one driver: it composes a search type with a
// coordination over a fabric, runs it, and folds the statistics. With a
// nil transport the fabric is cfg.Localities loopback localities in
// this process and the local result is the result. Otherwise this
// process is one locality of a deployment on tr (see the package
// comment): every rank's Stats go to a terminal gather, and the
// coordinator, which holds the answer at Done, returns its own result
// with the totals.
func search[S, N, R any](tr dist.Transport, codec Codec[N], coord Coordination, space S, root N, st searchType[S, N, R], cfg Config) (R, error) {
	if tr == nil {
		cfg = cfg.withDefaults()
		if coord == Sequential {
			cfg.Workers, cfg.Localities = 1, 1
		}
	} else {
		if coord == Sequential {
			var none R
			return none, fmt.Errorf("core: coordination %v not supported across processes (use depthbounded, budget, stacksteal or replicable)", coord)
		}
		// Each process hosts one locality. On a standby deployment rank 0
		// is a pure coordinator, so no subtree can live only in its pool: the
		// root it seeds is handed over under supervision (Workers is set
		// after withDefaults, which would re-default 0 to GOMAXPROCS).
		cfg.Localities = 1
		if cfg = cfg.withDefaults(); tr.Standby() && tr.Rank() == 0 {
			cfg.Workers = 0
		}
	}
	rule := ruleFor(coord, cfg)
	// The fabric builds every locality whole — pool, ledger, hunger words —
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
	fab.root = root // before any death is heard (locality.OnDeath)
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
	if tr == nil {
		return st.local(ws, stats)
	}
	// The terminal collective: every rank's Stats go to the coordinator —
	// rank 0, or after a failover the promoted rank — which merges them
	// (wall-clock time is its own, not a sum). A dead locality's slot is
	// nil, and counts as a death, one heard of only after Done too.
	mine, err := GobCodec[Stats]{}.Encode(stats)
	if err != nil {
		panic(fmt.Sprintf("core: encoding gathered stats: %v", err))
	}
	blobs, err := tr.Gather(mine)
	if err != nil {
		err = fmt.Errorf("core: gathering results: %w", err)
	}
	total, died := Stats{Elapsed: stats.Elapsed}, int64(0)
	for rank, blob := range blobs {
		if blob == nil {
			died++
			continue
		}
		s, derr := GobCodec[Stats]{}.Decode(blob)
		if derr != nil {
			err = fmt.Errorf("core: decoding locality %d stats: %w", rank, derr)
			break
		}
		total.merge(s)
	}
	if err != nil || tr.Rank() != 0 && !tr.Promoted() {
		// A worker rank: its local contribution, which callers normally
		// discard.
		res, _ := st.local(ws, stats)
		return res, err
	}
	total.Deaths = max(total.Deaths, died)
	res, err := st.local(ws, total)
	if err == nil && cfg.MaxFailures >= 0 && total.Deaths > int64(cfg.MaxFailures) {
		err = fmt.Errorf("core: %d localities died mid-search, exceeding the failure budget of %d (result repaired by replay as far as the survivors' ledgers reach)", total.Deaths, cfg.MaxFailures)
	}
	return res, err
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

// DistEnum runs this process's locality of a distributed enumeration
// search. A subtree's monoid value crosses the wire gob-encoded on its
// hand-over's ack, so a worker's death is survived by replay; rank 0 — or,
// on a standby deployment, the rank promoted in its place, which takes rank
// 0's hand-over of the root over — returns the total committed there.
func DistEnum[S, N, M any](tr dist.Transport, codec Codec[N], coord Coordination, space S, root N, p EnumProblem[S, N, M], cfg Config) (EnumResult[M], error) {
	return search(tr, codec, coord, space, root, enumeration(space, p), cfg)
}

// DistOpt runs this process's locality of a distributed optimisation
// search over the given transport. All processes must call it with an
// identically constructed problem, under any coordination but
// Sequential (single-worker by definition): every coordination
// distributes through transport steals — under Stack-Stealing a steal
// that finds its victim's pool dry waits for a running worker's shed, and
// under Replicable every cutoff task carries the frozen bound. On
// the coordinator (rank 0) the returned result is the global one —
// best node across all localities, metrics summed; on workers it is
// the locality's local contribution, which callers normally discard.
func DistOpt[S, N any](tr dist.Transport, codec Codec[N], coord Coordination, space S, root N, p OptProblem[S, N], cfg Config) (OptResult[N], error) {
	return search(tr, codec, coord, space, root, optimisation(space, p), cfg)
}

// DistDecide runs this process's locality of a distributed decision
// search. The first locality to reach the target cancels the others
// through the transport, and the cancel, carrying the witness, ends the
// search at the coordinator; rank 0 returns its own witness or the one
// it retained.
func DistDecide[S, N any](tr dist.Transport, codec Codec[N], coord Coordination, space S, root N, p DecisionProblem[S, N], cfg Config) (DecisionResult[N], error) {
	return search(tr, codec, coord, space, root, decision(space, p), cfg)
}
