package core

import (
	"fmt"

	"yewpar/internal/dist"
)

// This file hosts the multi-process skeleton entry points and the
// driver's gather step (search, in skeletons.go, runs them). Each OS
// process is one locality: it runs cfg.Workers workers over its own
// workpool, steals across the transport when idle, broadcasts
// incumbent bounds, and once the search is over (Done) sends its
// metrics to a gather at the coordinator (rank 0, or the rank a
// failover promoted). No answer is gathered: every rank's best node
// rode its bound broadcasts, and a witness its cancel, to the
// coordinator, which retains the best (Transport.BestKnown), and an
// enumeration's values rode their families' acks to rank 0 (tally). The
// problem definition (space, root, objective, bounds) must be
// constructed identically in every process — deployments are expected
// to launch the same binary with the same arguments, which the
// transport's spec handshake enforces.

// gatherStats runs the terminal collective: rank 0 — or, after a
// failover, the promoted rank — gets every surviving locality's Stats
// merged into total (wall-clock time is its own, not a sum), with
// coordinator set. A dead locality's slot is nil, and counts as a death.
func gatherStats(tr dist.Transport, mine Stats) (total Stats, coordinator bool, err error) {
	b, err := GobCodec[Stats]{}.Encode(mine)
	if err != nil {
		panic(fmt.Sprintf("core: encoding gathered stats: %v", err))
	}
	blobs, err := tr.Gather(b)
	if err != nil {
		return total, false, fmt.Errorf("core: gathering results: %w", err)
	}
	if tr.Rank() != 0 && !tr.Promoted() {
		return total, false, nil
	}
	total.Elapsed = mine.Elapsed
	var died int64
	for rank, blob := range blobs {
		if blob == nil {
			// A death the transport heard of only after Done counts too.
			died++
			continue
		}
		s, err := GobCodec[Stats]{}.Decode(blob)
		if err != nil {
			return total, false, fmt.Errorf("core: decoding locality %d stats: %w", rank, err)
		}
		total.merge(s)
	}
	total.Deaths = max(total.Deaths, died)
	return total, true, nil
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

// DistEnum runs this process's locality of a distributed enumeration
// search. A subtree's monoid value crosses the wire gob-encoded on its
// hand-over's ack, so a worker's death is survived by replay; rank 0 — or,
// on a standby deployment, the rank promoted in its place, which takes rank
// 0's hand-over of the root over — returns the total committed there.
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
