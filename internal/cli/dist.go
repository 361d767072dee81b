package cli

import (
	"fmt"
	"io"
	"time"

	"yewpar/internal/apps/knapsack"
	"yewpar/internal/apps/maxclique"
	"yewpar/internal/apps/nqueens"
	"yewpar/internal/apps/sip"
	"yewpar/internal/apps/tsp"
	"yewpar/internal/apps/uts"
	"yewpar/internal/core"
	"yewpar/internal/dist"
)

// Multi-process distributed mode: `-dist coordinator` listens on
// -dist-addr and waits for -dist-workers `-dist worker` processes,
// then all localities run the same search, stealing work and sharing
// bounds over TCP. Every process must be launched with the same
// application flags — the registration handshake verifies it — and
// file-based instances must be readable at the same path everywhere
// (the usual shared-filesystem assumption of cluster deployments).
//
// The coordinator prints the aggregated result and metrics; workers
// print nothing on success.

// isPrinter reports whether this rank owns result output: the
// coordinator, or — after a v7 failover — the worker promoted in its
// place (the original rank 0 is dead and prints nothing). Evaluated
// after the search returns, once any promotion has happened.
func isPrinter(tr dist.Transport) bool {
	return tr.Rank() == 0 || tr.Promoted()
}

// distSpec canonicalises the options that must agree across all
// processes of a deployment.
func (o *Options) distSpec() string {
	// o.order, not the raw flag string: "disc" and "discrepancy" are the
	// same configuration and must not fail the spec handshake.
	return fmt.Sprintf("app=%s skel=%s order=%s d=%d b=%d f=%s gen=%s n=%d p=%g seed=%d kbound=%d items=%d cities=%d patn=%d uts=%d/%d/%g/%d/%s",
		o.App, o.Skeleton, o.order, o.DCutoff, o.Budget, o.File, o.Gen, o.N, o.P, o.Seed,
		o.KBound, o.Items, o.Cities, o.PatN, o.UTSB0, o.UTSM, o.UTSQ, o.UTSDepth, o.UTSShape)
}

// RunDist executes one process's role in a distributed deployment.
func RunDist(o *Options, w io.Writer) error {
	if o.Dist != "coordinator" && o.Dist != "worker" {
		return fmt.Errorf("unknown -dist role %q (want coordinator or worker)", o.Dist)
	}
	coord, err := ParseSkeleton(o.Skeleton)
	if err != nil {
		return err
	}
	if coord == core.Sequential {
		return fmt.Errorf("-dist supports the pool-based skeletons (depthbounded, budget, stacksteal), not %q", o.Skeleton)
	}
	// Reject unsupported apps before the transport comes up: a
	// coordinator must not sit listening for workers only to fail
	// after they register.
	switch o.App {
	case "maxclique", "kclique", "knapsack", "tsp", "uts", "queens", "sip":
	default:
		return fmt.Errorf("app %q is not available in -dist mode (supported: maxclique kclique knapsack tsp uts queens sip)", o.App)
	}

	var tr dist.Transport
	switch o.Dist {
	case "coordinator":
		l, err := dist.NewListenerOpts(o.DistAddr, o.distSpec(), dist.WireOptions{RegTimeout: o.RegTimeout, Topology: o.Topology, Standby: o.Standby, LinkGrace: o.LinkGrace})
		if err != nil {
			return fmt.Errorf("dist: listening on %s: %w", o.DistAddr, err)
		}
		fmt.Fprintf(w, "dist: listening on %s, waiting for %d workers\n", l.Addr(), o.DistWorkers)
		tr, err = l.Wait(o.DistWorkers)
		if err != nil {
			l.Close()
			return err
		}
		fmt.Fprintf(w, "dist: all %d workers registered\n", o.DistWorkers)
	case "worker":
		var err error
		tr, err = dist.DialOpts(o.DistAddr, o.distSpec(), dist.WireOptions{Topology: o.Topology, Standby: o.Standby, LinkGrace: o.LinkGrace})
		if err != nil {
			return err
		}
	}
	defer tr.Close()

	cfg := o.Config()
	start := time.Now()
	var stats core.Stats
	switch o.App {
	case "maxclique":
		g, err := LoadGraph(o)
		if err != nil {
			return err
		}
		s := maxclique.NewSpace(g)
		res, err := core.DistOpt(tr, maxclique.Codec(), coord, s, maxclique.Root(s), maxclique.OptProblem(), cfg)
		if err != nil {
			return err
		}
		stats = res.Stats
		if isPrinter(tr) {
			fmt.Fprintf(w, "maximum clique size: %d\n", res.Best.Clique.Count())
		}
	case "kclique":
		g, err := LoadGraph(o)
		if err != nil {
			return err
		}
		if o.KBound <= 0 {
			return fmt.Errorf("kclique requires -decision-bound k > 0")
		}
		s := maxclique.NewSpace(g)
		res, err := core.DistDecide(tr, maxclique.Codec(), coord, s, maxclique.Root(s), maxclique.DecisionProblem(o.KBound), cfg)
		if err != nil {
			return err
		}
		stats = res.Stats
		if isPrinter(tr) {
			fmt.Fprintf(w, "%d-clique exists: %v\n", o.KBound, res.Found)
		}
	case "knapsack":
		s := knapsack.Generate(o.Items, 10_000, knapsack.SubsetSum, o.Seed)
		res, err := core.DistOpt(tr, knapsack.Codec(), coord, s, knapsack.Root(s), knapsack.OptProblem(), cfg)
		if err != nil {
			return err
		}
		stats = res.Stats
		if isPrinter(tr) {
			fmt.Fprintf(w, "optimal profit: %d (items=%d cap=%d)\n", res.Objective, len(s.Items), s.Cap)
		}
	case "tsp":
		s := tsp.GenerateEuclidean(o.Cities, 1000, o.Seed)
		res, err := core.DistOpt(tr, tsp.Codec(), coord, s, tsp.Root(s), tsp.OptProblem(), cfg)
		if err != nil {
			return err
		}
		stats = res.Stats
		if isPrinter(tr) {
			fmt.Fprintf(w, "optimal tour cost: %d (%d cities)\n", -res.Objective, s.N)
		}
	case "uts":
		s := &uts.Space{B0: o.UTSB0, M: o.UTSM, Q: o.UTSQ, MaxDepth: o.UTSDepth, Seed: o.Seed}
		if o.UTSShape == "geometric" {
			s.Shape = uts.Geometric
		}
		res, err := core.DistEnum(tr, uts.Codec(), coord, s, uts.Root(s), uts.CountProblem(), cfg)
		if err != nil {
			return err
		}
		stats = res.Stats
		if isPrinter(tr) {
			fmt.Fprintf(w, "tree size: %d\n", res.Value)
		}
	case "queens":
		s := nqueens.NewSpace(o.N)
		res, err := core.DistEnum(tr, nqueens.Codec(), coord, s, nqueens.Root(s), nqueens.CountProblem(), cfg)
		if err != nil {
			return err
		}
		stats = res.Stats
		if isPrinter(tr) {
			fmt.Fprintf(w, "%d-queens solutions: %d\n", o.N, res.Value)
		}
	case "sip":
		s := sip.GenerateSat(o.N, o.P, o.PatN, 0.2, o.Seed)
		res, err := core.DistDecide(tr, sip.Codec(), coord, s, sip.Root(s), sip.DecisionProblem(s), cfg)
		if err != nil {
			return err
		}
		stats = res.Stats
		if isPrinter(tr) {
			fmt.Fprintf(w, "pattern (%d vertices) found in target (%d vertices): %v\n", s.P.N, s.T.N, res.Found)
		}
	default:
		return fmt.Errorf("app %q is not available in -dist mode (supported: maxclique kclique knapsack tsp uts queens sip)", o.App)
	}

	if isPrinter(tr) && o.ShowStats {
		fmt.Fprintf(w, "skeleton=%s workers=%d localities=%d elapsed=%v\n",
			coord, stats.Workers, tr.Size(), time.Since(start).Round(time.Millisecond))
		fmt.Fprintf(w, "nodes=%d prunes=%d spawns=%d steals=%d/%d backtracks=%d broadcasts=%d\n",
			stats.Nodes, stats.Prunes, stats.Spawns, stats.StealsOK,
			stats.StealsOK+stats.StealsFail, stats.Backtracks, stats.Broadcasts)
		if o.order != core.OrderNone {
			fmt.Fprintf(w, "order=%s ordered-steals=%d prio-hist=%v\n",
				o.order, stats.OrderedSteals, stats.PrioHist)
		}
		printWire(w, stats)
		fmt.Fprintf(w, "fault: deaths=%d replayed=%d ledger-peak=%d resumes=%d\n",
			stats.Deaths, stats.ReplayedTasks, stats.LedgerPeak, stats.LinkResumes)
		fmt.Fprintf(w, "mem: pool-peak=%d tasks (%d bytes est) spilled=%d tasks (%d bytes)\n",
			stats.PoolPeakTasks, stats.PoolPeakBytes, stats.SpilledTasks, stats.SpillBytes)
	}
	return nil
}
