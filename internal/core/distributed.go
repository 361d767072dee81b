package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"time"

	"yewpar/internal/dist"
)

// This file hosts the multi-process skeleton entry points. Each OS
// process is one locality: it runs cfg.Workers workers over its own
// workpool, steals across the transport when idle, broadcasts
// incumbent bounds, and at the end contributes its local result and
// metrics to a gather that the coordinator (rank 0) reconciles. The
// problem definition (space, root, objective, bounds) must be
// constructed identically in every process — deployments are expected
// to launch the same binary with the same arguments, which the
// transport's spec handshake enforces.

// distShare is one locality's contribution to the final gather.
type distShare struct {
	Obj   int64  // best local objective (optimisation/decision)
	Has   bool   // whether Node is meaningful
	Node  []byte // codec-encoded best node or witness
	Value []byte // gob-encoded monoid value (enumeration)
	Stats Stats
}

func encodeShare(s distShare) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&s); err != nil {
		panic(fmt.Sprintf("core: encoding gather share: %v", err))
	}
	return buf.Bytes()
}

func decodeShare(b []byte) (distShare, error) {
	var s distShare
	err := gob.NewDecoder(bytes.NewReader(b)).Decode(&s)
	return s, err
}

// gatherShares runs the terminal collective: every locality
// contributes its share, and rank 0 — or, after a coordinator
// failover, the promoted rank — gets everyone's back, decoded, with
// the surviving localities' Stats merged into agg. Other callers get
// (nil, nil). A dead locality's slot is nil — its live subtrees were
// replayed by the survivors, so its missing share costs only its
// metrics (and, for enumeration, its partial value, which is why
// DistEnum refuses deaths).
func gatherShares(tr dist.Transport, share distShare, agg *Stats) ([]*distShare, error) {
	blobs, err := tr.Gather(encodeShare(share))
	if err != nil {
		return nil, fmt.Errorf("core: gathering results: %w", err)
	}
	if tr.Rank() != 0 && !tr.Promoted() {
		return nil, nil
	}
	shares := make([]*distShare, len(blobs))
	for rank, blob := range blobs {
		if blob == nil {
			continue // died before contributing; replay already covered its work
		}
		s, err := decodeShare(blob)
		if err != nil {
			return nil, fmt.Errorf("core: decoding locality %d share: %w", rank, err)
		}
		agg.merge(s.Stats)
		shares[rank] = &s
	}
	return shares, nil
}

// failurePolicy turns the observed death count into the Dist call's
// error, honouring Config.MaxFailures (negative = unlimited).
func failurePolicy(cfg Config, deaths int64) error {
	if deaths == 0 || cfg.MaxFailures < 0 || deaths <= int64(cfg.MaxFailures) {
		return nil
	}
	return fmt.Errorf("core: %d localities died mid-search, exceeding the failure budget of %d (result repaired by replay as far as the survivors' ledgers reach)", deaths, cfg.MaxFailures)
}

// bestRetained consults the transport's incumbent retention (rank 0
// only): the best (obj, node) pair any locality published before
// dying, decoded through the deployment codec.
func bestRetained[N any](tr dist.Transport, codec Codec[N]) (N, int64, bool) {
	var zero N
	obj, blob, ok := tr.BestKnown()
	if !ok {
		return zero, 0, false
	}
	n, err := codec.Decode(blob)
	if err != nil {
		return zero, 0, false
	}
	return n, obj, true
}

// distCoordination validates that a coordination is available across
// processes. Only Sequential is excluded (single-worker by
// definition): the pool-based coordinations distribute through
// transport steals, and Stack-Stealing distributes through on-demand
// wire splits (kSplit) of live generator stacks.
func distCoordination(coord Coordination) error {
	if coord == Sequential {
		return fmt.Errorf("core: coordination %v not supported across processes (it is single-worker by definition; use depthbounded, budget, or stacksteal)", coord)
	}
	return nil
}

// runDistEngine runs the local share of a distributed pool-based
// search: build the engine (installing the pool), start the transport,
// and drive the workers to global termination or cancellation. prio
// assigns task priorities for the ordered scheduling modes; because
// every process constructs the problem identically, each computes the
// same root-bound reference and the priorities agree across the
// deployment without negotiation.
func runDistEngine[S, N any](coord Coordination, cfg Config, ws []*workerCtx[S, N], cancel *canceller, root N, fab *fabric[N], prio *prioAssigner[S, N]) {
	e := newEngine(cfg, ws, cancel, fab, prio)
	if coord == StackStealing {
		// Install the split gates before the transport starts serving:
		// a peer's kSplit may arrive the moment registration completes.
		e.installSplitGates()
	}
	fab.start(cancel)
	switch coord {
	case DepthBounded:
		runDepthBounded(e, root)
	case Budget:
		runBudget(e, root)
	case StackStealing:
		runStackStealDist(e, root)
	default:
		panic("core: unknown coordination")
	}
}

// distDefaults normalises a distributed config: each process hosts
// exactly one locality, and latency injection is meaningless when the
// network is real. On a standby deployment rank 0 becomes a pure
// coordinator — zero local workers — so that no subtree can ever live
// only in its pool: the root it seeds is handed over under ledger
// supervision, making coordinator death fully survivable (Workers is
// set after withDefaults, which would otherwise re-default 0 to
// GOMAXPROCS).
func distDefaults(cfg Config, tr dist.Transport) Config {
	cfg.Localities = 1
	cfg.StealLatency = 0
	cfg.BoundLatency = 0
	cfg = cfg.withDefaults()
	if cfg.Standby && tr.Rank() == 0 {
		cfg.Workers = 0
	}
	return cfg
}

// DistOpt runs this process's locality of a distributed optimisation
// search over the given transport. All processes must call it with an
// identically constructed problem. On the coordinator (rank 0) the
// returned result is the global one — best node across all localities,
// metrics summed; on workers it is the locality's local contribution,
// which callers normally discard.
func DistOpt[S, N any](tr dist.Transport, codec Codec[N], coord Coordination, space S, root N, p OptProblem[S, N], cfg Config) (OptResult[N], error) {
	if err := distCoordination(coord); err != nil {
		return OptResult[N]{}, err
	}
	cfg = distDefaults(cfg, tr)
	fab := newDistFabric(tr, codec)
	cancel := newCanceller()
	inc := newIncumbent[N](fab.trs)
	inc.encode = codec.Encode
	fab.bounds = inc
	ws := newWorkers(space, p.Gen, cfg, func(_ int, sh *WorkerStats) visitor[N] {
		return newOptVisitor(space, p, inc, 0, sh)
	})
	prio := newPrioAssigner(cfg.Order, space, root, p.Bound)
	start := time.Now()
	runDistEngine(coord, cfg, ws, cancel, root, fab, prio)
	stats := totalStats(ws)
	stats.Elapsed = time.Since(start)
	stats.Broadcasts = inc.broadcasts()
	fab.wireStats(&stats)
	fab.faultStats(&stats)
	fab.memStats(&stats)
	node, obj, has := inc.result()

	share := distShare{Obj: obj, Has: has, Stats: stats}
	if has {
		b, err := codec.Encode(node)
		if err != nil {
			return OptResult[N]{}, fmt.Errorf("core: encoding local best node: %w", err)
		}
		share.Node = b
	}
	local := OptResult[N]{Best: node, Objective: obj, Found: has, Stats: stats}
	agg := OptResult[N]{Stats: Stats{Elapsed: stats.Elapsed}}
	shares, err := gatherShares(tr, share, &agg.Stats)
	if err != nil {
		return local, err
	}
	if shares == nil {
		return local, nil
	}
	for rank, s := range shares {
		if s != nil && s.Has && (!agg.Found || s.Obj > agg.Objective) {
			n, err := codec.Decode(s.Node)
			if err != nil {
				return agg, fmt.Errorf("core: decoding locality %d best node: %w", rank, err)
			}
			agg.Best, agg.Objective, agg.Found = n, s.Obj, true
		}
	}
	// The transport retains every node-carrying bound broadcast, so
	// an optimum found by a locality that died before the gather is
	// still recovered here.
	if n, robj, ok := bestRetained(tr, codec); ok && (!agg.Found || robj > agg.Objective) {
		agg.Best, agg.Objective, agg.Found = n, robj, true
	}
	return agg, failurePolicy(cfg, agg.Stats.Deaths)
}

// DistEnum runs this process's locality of a distributed enumeration
// search. The monoid value crosses the wire gob-encoded; rank 0
// returns the fold over every locality's partial value.
func DistEnum[S, N, M any](tr dist.Transport, codec Codec[N], coord Coordination, space S, root N, p EnumProblem[S, N, M], cfg Config) (EnumResult[M], error) {
	if err := distCoordination(coord); err != nil {
		return EnumResult[M]{}, err
	}
	cfg = distDefaults(cfg, tr)
	fab := newDistFabric(tr, codec)
	cancel := newCanceller()
	ws := newWorkers(space, p.Gen, cfg, func(_ int, sh *WorkerStats) visitor[N] {
		return newEnumVisitor(space, p, sh)
	})
	prio := newPrioAssigner[S, N](cfg.Order, space, root, nil)
	start := time.Now()
	runDistEngine(coord, cfg, ws, cancel, root, fab, prio)
	stats := totalStats(ws)
	stats.Elapsed = time.Since(start)
	fab.wireStats(&stats)
	fab.faultStats(&stats)
	fab.memStats(&stats)
	value := combineEnum[S, N, M](p.Monoid, ws)

	var vbuf bytes.Buffer
	if err := gob.NewEncoder(&vbuf).Encode(&value); err != nil {
		return EnumResult[M]{}, fmt.Errorf("core: encoding local monoid value: %w", err)
	}
	local := EnumResult[M]{Value: value, Stats: stats}
	agg := EnumResult[M]{Value: p.Monoid.Zero(), Stats: Stats{Elapsed: stats.Elapsed}}
	shares, err := gatherShares(tr, distShare{Value: vbuf.Bytes(), Stats: stats}, &agg.Stats)
	if err != nil {
		return local, err
	}
	if shares == nil {
		return local, nil
	}
	for rank, s := range shares {
		if s == nil {
			// Enumeration is the one skeleton replay cannot repair: a
			// dead rank's partial monoid value is gone, and replaying
			// its subtrees would double-count whatever it had already
			// folded in. Report the loss instead of a wrong total.
			return agg, fmt.Errorf("core: locality %d died mid-enumeration; its partial value is unrecoverable (enumeration cannot survive locality death — see the fault-tolerance notes)", rank)
		}
		var v M
		if err := gob.NewDecoder(bytes.NewReader(s.Value)).Decode(&v); err != nil {
			return agg, fmt.Errorf("core: decoding locality %d monoid value: %w", rank, err)
		}
		agg.Value = p.Monoid.Plus(agg.Value, v)
	}
	return agg, failurePolicy(cfg, agg.Stats.Deaths)
}

// DistDecide runs this process's locality of a distributed decision
// search. The first locality to reach the target cancels the others
// through the transport; rank 0 returns whichever witness survived the
// gather.
func DistDecide[S, N any](tr dist.Transport, codec Codec[N], coord Coordination, space S, root N, p DecisionProblem[S, N], cfg Config) (DecisionResult[N], error) {
	if err := distCoordination(coord); err != nil {
		return DecisionResult[N]{}, err
	}
	cfg = distDefaults(cfg, tr)
	fab := newDistFabric(tr, codec)
	cancel := newCanceller()
	wit := &witness[N]{}
	ws := newWorkers(space, p.Gen, cfg, func(_ int, sh *WorkerStats) visitor[N] {
		return newDecisionVisitor(space, p, wit, cancel, sh)
	})
	// A locally found witness rides the cancel broadcast, so it
	// reaches rank 0's retention before this process can die with it.
	fab.cancelInfo = func() (int64, []byte) {
		n, obj, found := wit.get()
		if !found {
			return 0, nil
		}
		blob, err := codec.Encode(n)
		if err != nil {
			return obj, nil
		}
		return obj, blob
	}
	prio := newPrioAssigner(cfg.Order, space, root, p.Bound)
	start := time.Now()
	runDistEngine(coord, cfg, ws, cancel, root, fab, prio)
	stats := totalStats(ws)
	stats.Elapsed = time.Since(start)
	fab.wireStats(&stats)
	fab.faultStats(&stats)
	fab.memStats(&stats)
	node, obj, found := wit.get()

	share := distShare{Obj: obj, Has: found, Stats: stats}
	if found {
		b, err := codec.Encode(node)
		if err != nil {
			return DecisionResult[N]{}, fmt.Errorf("core: encoding witness: %w", err)
		}
		share.Node = b
	}
	local := DecisionResult[N]{Witness: node, Objective: obj, Found: found, Stats: stats}
	agg := DecisionResult[N]{Stats: Stats{Elapsed: stats.Elapsed}}
	shares, err := gatherShares(tr, share, &agg.Stats)
	if err != nil {
		return local, err
	}
	if shares == nil {
		return local, nil
	}
	for rank, s := range shares {
		if s != nil && s.Has && !agg.Found {
			n, err := codec.Decode(s.Node)
			if err != nil {
				return agg, fmt.Errorf("core: decoding locality %d witness: %w", rank, err)
			}
			agg.Witness, agg.Objective, agg.Found = n, s.Obj, true
		}
	}
	// A witness found by a rank that died after cancelling survives in
	// the transport's retention.
	if !agg.Found {
		if n, robj, ok := bestRetained(tr, codec); ok {
			agg.Witness, agg.Objective, agg.Found = n, robj, true
		}
	}
	return agg, failurePolicy(cfg, agg.Stats.Deaths)
}
