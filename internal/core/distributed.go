package core

import (
	"fmt"

	"yewpar/internal/dist"
)

// This file hosts the multi-process skeleton entry points and the
// driver's gather step (search, in skeletons.go, runs them). Each OS
// process is one locality: it runs cfg.Workers workers over its own
// workpool, steals across the transport when idle, broadcasts
// incumbent bounds, and once the search is over (Done) contributes its
// metrics — and an enumeration its partial value — to a gather at the
// coordinator (rank 0, or the rank a failover promoted). An
// optimisation's or a decision's answer is not gathered: every rank's
// best node rode its bound broadcasts, and a witness its cancel, to the
// coordinator, which retains the best (Transport.BestKnown). The
// problem definition (space, root, objective, bounds) must be
// constructed identically in every process — deployments are expected
// to launch the same binary with the same arguments, which the
// transport's spec handshake enforces.

// distShare is one locality's contribution to the final gather.
type distShare struct {
	Value []byte // gob-encoded monoid value (enumeration)
	Stats Stats
}

// gatherShares runs the terminal collective: every locality
// contributes its share, and rank 0 — or, after a coordinator
// failover, the promoted rank — gets everyone's back, decoded, with
// the surviving localities' Stats merged into total (wall-clock time
// is the caller's own, not a sum). Other callers get nil shares. A
// dead locality's slot is nil — its live subtrees were replayed by the
// survivors, so its missing share costs only its metrics (and, for
// enumeration, its partial value, which is why DistEnum refuses
// deaths).
func gatherShares(tr dist.Transport, share distShare) (shares []*distShare, total Stats, err error) {
	mine, err := GobCodec[distShare]{}.Encode(share)
	if err != nil {
		panic(fmt.Sprintf("core: encoding gather share: %v", err))
	}
	blobs, err := tr.Gather(mine)
	if err != nil {
		return nil, total, fmt.Errorf("core: gathering results: %w", err)
	}
	if tr.Rank() != 0 && !tr.Promoted() {
		return nil, total, nil
	}
	total.Elapsed = share.Stats.Elapsed
	shares = make([]*distShare, len(blobs))
	var died int64
	for rank, blob := range blobs {
		if blob == nil {
			// Died before contributing; replay already covered its work.
			// A death the transport heard of only after Done counts too.
			died++
			continue
		}
		s, err := GobCodec[distShare]{}.Decode(blob)
		if err != nil {
			return nil, total, fmt.Errorf("core: decoding locality %d share: %w", rank, err)
		}
		total.merge(s.Stats)
		shares[rank] = &s
	}
	total.Deaths = max(total.Deaths, died)
	return shares, total, nil
}

// failurePolicy turns the observed death count into the Dist call's
// error, honouring Config.MaxFailures (negative = unlimited).
func failurePolicy(cfg Config, deaths int64) error {
	if deaths == 0 || cfg.MaxFailures < 0 || deaths <= int64(cfg.MaxFailures) {
		return nil
	}
	return fmt.Errorf("core: %d localities died mid-search, exceeding the failure budget of %d (result repaired by replay as far as the survivors' ledgers reach)", deaths, cfg.MaxFailures)
}

// distDefaults normalises a distributed config: each process hosts
// exactly one locality. On a standby deployment rank 0 becomes a pure
// coordinator — zero local workers — so that no subtree can ever live
// only in its pool: the root it seeds is handed over under ledger
// supervision, making coordinator death fully survivable (Workers is
// set after withDefaults, which would otherwise re-default 0 to
// GOMAXPROCS).
func distDefaults(cfg Config, tr dist.Transport) Config {
	cfg.Localities = 1
	cfg = cfg.withDefaults()
	if cfg.Standby && tr.Rank() == 0 {
		cfg.Workers = 0
	}
	return cfg
}

// DistOpt runs this process's locality of a distributed optimisation
// search over the given transport. All processes must call it with an
// identically constructed problem, under any coordination but
// Sequential (single-worker by definition) and Replicable: the pool-based
// coordinations distribute through transport steals, Stack-Stealing
// through on-demand wire splits (kSplit) of live generator stacks. On
// the coordinator (rank 0) the returned result is the global one —
// best node across all localities, metrics summed; on workers it is
// the locality's local contribution, which callers normally discard.
func DistOpt[S, N any](tr dist.Transport, codec Codec[N], coord Coordination, space S, root N, p OptProblem[S, N], cfg Config) (OptResult[N], error) {
	return search(tr, codec, coord, space, root, optimisation(space, p), cfg)
}

// DistEnum runs this process's locality of a distributed enumeration
// search. The monoid value crosses the wire gob-encoded; rank 0
// returns the fold over every locality's partial value.
func DistEnum[S, N, M any](tr dist.Transport, codec Codec[N], coord Coordination, space S, root N, p EnumProblem[S, N, M], cfg Config) (EnumResult[M], error) {
	return search(tr, codec, coord, space, root, enumeration(space, p), cfg)
}

// DistDecide runs this process's locality of a distributed decision
// search. The first locality to reach the target cancels the others
// through the transport, and the cancel, carrying the witness, ends the
// search at the coordinator; rank 0 returns its own witness or the one
// it retained.
func DistDecide[S, N any](tr dist.Transport, codec Codec[N], coord Coordination, space S, root N, p DecisionProblem[S, N], cfg Config) (DecisionResult[N], error) {
	return search(tr, codec, coord, space, root, decision(space, p), cfg)
}
