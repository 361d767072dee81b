// Package cli implements the yewpar command-line driver: flag
// parsing, instance loading/generation, skeleton dispatch, and result
// reporting for all seven search applications. It mirrors the paper
// artifact's per-application binaries behind one executable and is
// factored out of package main so the whole surface is testable.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"yewpar/internal/apps/knapsack"
	"yewpar/internal/apps/maxclique"
	"yewpar/internal/apps/nqueens"
	"yewpar/internal/apps/semigroups"
	"yewpar/internal/apps/sip"
	"yewpar/internal/apps/tsp"
	"yewpar/internal/apps/uts"
	"yewpar/internal/core"
	"yewpar/internal/dist"
	"yewpar/internal/graph"
	"yewpar/internal/instances"
)

// Options are the parsed command-line options.
type Options struct {
	App        string
	Skeleton   string
	Workers    int
	Locs       int
	DCutoff    int
	Budget     int64
	Chunked    bool
	LinkLat    time.Duration
	PoolBudget int64
	SpillDir   string
	Order      string
	// order is Order parsed and validated by ParseArgs; everything
	// downstream (Config, the stats printers) reads this, so a typo'd
	// -order fails at parse time instead of silently degrading to an
	// unordered run.
	order core.Order

	File string
	Gen  string
	N    int
	P    float64
	Seed int64

	KBound   int
	Genus    int
	Items    int
	Cities   int
	PatN     int
	UTSB0    int
	UTSM     int
	UTSQ     float64
	UTSDepth int
	UTSShape string

	ShowStats bool
	TraceRun  bool

	CPUProfile   string
	MemProfile   string
	MutexProfile string
	PprofAddr    string

	Dist        string
	DistAddr    string
	DistWorkers int
	MaxFailures int
	RegTimeout  time.Duration
	Topology    string
	Standby     bool
	LinkGrace   time.Duration
}

// ParseArgs parses command-line arguments into Options.
func ParseArgs(args []string) (*Options, error) {
	o := &Options{}
	fs := flag.NewFlagSet("yewpar", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.StringVar(&o.App, "app", "maxclique", "application: maxclique|kclique|knapsack|tsp|sip|uts|ns|queens")
	fs.StringVar(&o.Skeleton, "skeleton", "seq", "search coordination: seq|depthbounded|stacksteal|budget, or bestfirst (= budget -order bound; optimisation apps)")
	fs.IntVar(&o.Workers, "workers", 0, "worker count (0 = GOMAXPROCS)")
	fs.IntVar(&o.Locs, "localities", 1, "simulated localities")
	fs.IntVar(&o.DCutoff, "d", 1, "depth-bounded spawn cutoff")
	fs.Int64Var(&o.Budget, "b", 10000, "budget coordination backtrack budget")
	fs.BoolVar(&o.Chunked, "chunked", false, "stack-stealing: steal whole lowest generator")
	fs.DurationVar(&o.LinkLat, "link-latency", 0, "simulated latency of every link between -localities: steals, bound broadcasts, cancels and acks all pay it")
	fs.Int64Var(&o.PoolBudget, "pool-budget", 0, "per-locality workpool memory budget in bytes (0 = unbounded); pressured localities deepen cutoffs and spill cold tasks to disk")
	fs.StringVar(&o.SpillDir, "spill-dir", "", "base directory for -pool-budget spill segments (empty = system temp dir); segments live in a per-run temp subdirectory removed on exit")
	fs.StringVar(&o.Order, "order", "none", "task scheduling order: none|discrepancy|bound")
	fs.StringVar(&o.File, "f", "", "DIMACS .clq input (clique apps; SIP target)")
	fs.StringVar(&o.Gen, "gen", "", "named generated instance (clique apps)")
	fs.IntVar(&o.N, "n", 120, "generator: size")
	fs.Float64Var(&o.P, "p", 0.6, "generator: density")
	fs.Int64Var(&o.Seed, "seed", 1, "generator: seed")
	fs.IntVar(&o.KBound, "decision-bound", 0, "kclique: clique size to find")
	fs.IntVar(&o.Genus, "genus", 16, "ns: genus to count")
	fs.IntVar(&o.Items, "items", 24, "knapsack: item count")
	fs.IntVar(&o.Cities, "cities", 14, "tsp: city count")
	fs.IntVar(&o.PatN, "pattern", 25, "sip: pattern size")
	fs.IntVar(&o.UTSB0, "uts-b0", 2000, "uts: root branching")
	fs.IntVar(&o.UTSM, "uts-m", 6, "uts: non-root branching")
	fs.Float64Var(&o.UTSQ, "uts-q", 0.16, "uts: branch probability")
	fs.IntVar(&o.UTSDepth, "uts-depth", 12, "uts: geometric depth limit")
	fs.StringVar(&o.UTSShape, "uts-shape", "binomial", "uts: binomial|geometric")
	fs.BoolVar(&o.ShowStats, "stats", true, "print search statistics")
	fs.BoolVar(&o.TraceRun, "trace", false, "print a per-task workload summary")
	fs.StringVar(&o.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.MemProfile, "memprofile", "", "write an end-of-run heap profile to this file")
	fs.StringVar(&o.MutexProfile, "mutexprofile", "", "sample all mutex contention and write the profile to this file")
	fs.StringVar(&o.PprofAddr, "pprof-addr", "", "serve net/http/pprof on this address for live inspection (intended for -dist workers)")
	fs.StringVar(&o.Dist, "dist", "", "multi-process role: coordinator|worker (empty = single process)")
	fs.StringVar(&o.DistAddr, "dist-addr", "127.0.0.1:9967", "coordinator address for -dist")
	fs.IntVar(&o.DistWorkers, "dist-workers", 2, "coordinator: worker processes to wait for")
	fs.IntVar(&o.MaxFailures, "max-failures", -1, "dist: worker deaths tolerated before the run reports an error (-1 = unlimited; deaths are always repaired by subtree replay)")
	fs.DurationVar(&o.RegTimeout, "reg-timeout", 0, "dist coordinator: registration window before missing workers fail the deployment (0 = default)")
	fs.StringVar(&o.Topology, "topology", "star", "steal/termination topology: star (hub-routed, coordinator live count) or mesh (direct peer steals, gossip bounds, termination wave)")
	fs.BoolVar(&o.Standby, "standby", false, "dist: arm coordinator failover — rank 0 runs as a pure coordinator and replicates its state to the lowest worker rank, which takes over and finishes the search if the coordinator dies (all ranks must agree)")
	fs.DurationVar(&o.LinkGrace, "link-grace", 0, "dist: arm resumable links (wire protocol v8) — a broken connection is kept alive for this grace window while the dialing side reconnects and replays unacknowledged frames, so transient partitions shorter than the grace heal with zero deaths (0 = off; all ranks must agree)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	switch o.Topology {
	case "", dist.TopologyStar, dist.TopologyMesh:
	default:
		return nil, fmt.Errorf("unknown topology %q (want star or mesh)", o.Topology)
	}
	ord, err := ParseOrder(o.Order)
	if err != nil {
		return nil, err
	}
	o.order = ord
	if o.Skeleton == "bestfirst" {
		// Best-first search is a composition, not a coordination: Budget
		// scheduled by the problem's bound. Every rank of a deployment
		// sees the rewritten pair, so either spelling joins the other.
		switch o.App {
		case "maxclique", "knapsack", "tsp":
		default:
			return nil, fmt.Errorf("bestfirst supports optimisation apps only, not %q", o.App)
		}
		o.Skeleton, o.order = "budget", core.OrderBound
	}
	return o, nil
}

// ParseOrder maps an -order flag value to a core.Order.
func ParseOrder(s string) (core.Order, error) {
	switch s {
	case "", "none":
		return core.OrderNone, nil
	case "discrepancy", "disc":
		return core.OrderDiscrepancy, nil
	case "bound":
		return core.OrderBound, nil
	}
	return 0, fmt.Errorf("unknown order %q (want none, discrepancy or bound)", s)
}

// ParseSkeleton maps a skeleton name to a Coordination.
func ParseSkeleton(s string) (core.Coordination, error) {
	switch s {
	case "seq", "sequential":
		return core.Sequential, nil
	case "depthbounded":
		return core.DepthBounded, nil
	case "stacksteal", "stackstealing":
		return core.StackStealing, nil
	case "budget":
		return core.Budget, nil
	}
	return 0, fmt.Errorf("unknown skeleton %q", s)
}

// Config builds the core.Config from the options.
func (o *Options) Config() core.Config {
	cfg := core.Config{
		Workers:    o.Workers,
		Localities: o.Locs,
		DCutoff:    o.DCutoff,
		Budget:     o.Budget,
		Chunked:    o.Chunked,
	}
	if o.LinkLat > 0 {
		cfg.NetFault = dist.LatencyPlan(o.LinkLat)
	}
	cfg.PoolBudget = o.PoolBudget
	cfg.SpillDir = o.SpillDir
	cfg.Order = o.order
	cfg.MaxFailures = o.MaxFailures
	cfg.Topology = o.Topology
	cfg.Standby = o.Standby
	cfg.LinkGrace = o.LinkGrace
	return cfg
}

// LoadGraph resolves the graph input: a DIMACS file, a named
// instance, or a generated G(n, p).
func LoadGraph(o *Options) (*graph.Graph, error) {
	if o.File != "" {
		f, err := os.Open(o.File)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return graph.ParseDIMACS(f)
	}
	if o.Gen != "" {
		for _, inst := range instances.Table1() {
			if inst.Name == o.Gen {
				return inst.Gen(), nil
			}
		}
		if o.Gen == "spreads_H44" {
			g, _ := instances.SpreadsH44Like()
			return g, nil
		}
		return nil, fmt.Errorf("unknown instance %q", o.Gen)
	}
	return graph.Random(o.N, o.P, o.Seed), nil
}

// Run executes the selected application and writes a human-readable
// report to w. Profile hooks (-cpuprofile and friends) bracket the
// whole run, including the distributed roles — a -dist worker with
// -pprof-addr serves live pprof for its entire lifetime.
func Run(args []string, w io.Writer) (err error) {
	o, err := ParseArgs(args)
	if err != nil {
		return err
	}
	stopProf, err := startProfiles(o)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && err == nil {
			err = perr
		}
	}()
	if o.Dist != "" {
		return RunDist(o, w)
	}
	coord, err := ParseSkeleton(o.Skeleton)
	if err != nil {
		return err
	}
	cfg := o.Config()
	var trace *core.Trace
	if o.TraceRun {
		workers := cfg.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		if coord == core.Sequential {
			workers = 1 // whatever -workers says: utilisation is of the one it runs on
		}
		trace = core.NewTrace(workers)
		cfg.Trace = trace
	}

	start := time.Now()
	var stats core.Stats
	switch o.App {
	case "maxclique":
		g, err := LoadGraph(o)
		if err != nil {
			return err
		}
		clique, st := maxclique.Solve(g, coord, cfg)
		stats = st
		fmt.Fprintf(w, "maximum clique size: %d\n", clique.Count())
	case "kclique":
		g, err := LoadGraph(o)
		if err != nil {
			return err
		}
		if o.KBound <= 0 {
			return fmt.Errorf("kclique requires -decision-bound k > 0")
		}
		_, found, st := maxclique.Decide(g, o.KBound, coord, cfg)
		stats = st
		fmt.Fprintf(w, "%d-clique exists: %v\n", o.KBound, found)
	case "knapsack":
		s := knapsack.Generate(o.Items, 10_000, knapsack.SubsetSum, o.Seed)
		profit, st := knapsack.Solve(s, coord, cfg)
		stats = st
		fmt.Fprintf(w, "optimal profit: %d (items=%d cap=%d)\n", profit, len(s.Items), s.Cap)
	case "tsp":
		s := tsp.GenerateEuclidean(o.Cities, 1000, o.Seed)
		cost, st := tsp.Solve(s, coord, cfg)
		stats = st
		fmt.Fprintf(w, "optimal tour cost: %d (%d cities)\n", cost, s.N)
	case "sip":
		var s *sip.Space
		if o.File != "" {
			g, err := LoadGraph(o)
			if err != nil {
				return err
			}
			vs := make([]int, min(o.PatN, g.N))
			for i := range vs {
				vs[i] = i
			}
			pat, _ := g.InducedSubgraph(vs)
			s = sip.NewSpace(pat, g)
		} else {
			s = sip.GenerateSat(o.N, o.P, o.PatN, 0.2, o.Seed)
		}
		_, found, st := sip.Solve(s, coord, cfg)
		stats = st
		fmt.Fprintf(w, "pattern (%d vertices) found in target (%d vertices): %v\n", s.P.N, s.T.N, found)
	case "uts":
		s := &uts.Space{B0: o.UTSB0, M: o.UTSM, Q: o.UTSQ, MaxDepth: o.UTSDepth, Seed: o.Seed}
		if o.UTSShape == "geometric" {
			s.Shape = uts.Geometric
		}
		count, st := uts.Count(s, coord, cfg)
		stats = st
		fmt.Fprintf(w, "tree size: %d\n", count)
	case "ns":
		count, st := semigroups.Count(o.Genus, coord, cfg)
		stats = st
		fmt.Fprintf(w, "numerical semigroups of genus %d: %d\n", o.Genus, count)
	case "queens":
		count, st := nqueens.Count(o.N, coord, cfg)
		stats = st
		fmt.Fprintf(w, "%d-queens solutions: %d\n", o.N, count)
	default:
		return fmt.Errorf("unknown app %q", o.App)
	}

	if o.ShowStats {
		fmt.Fprintf(w, "skeleton=%s workers=%d localities=%d elapsed=%v\n",
			coord, stats.Workers, o.Locs, time.Since(start).Round(time.Millisecond))
		fmt.Fprintf(w, "nodes=%d prunes=%d spawns=%d steals=%d/%d local-steals=%d backtracks=%d broadcasts=%d\n",
			stats.Nodes, stats.Prunes, stats.Spawns, stats.StealsOK,
			stats.StealsOK+stats.StealsFail, stats.LocalSteals, stats.Backtracks, stats.Broadcasts)
		if o.order != core.OrderNone {
			fmt.Fprintf(w, "order=%s ordered-steals=%d prio-hist=%v\n",
				o.order, stats.OrderedSteals, stats.PrioHist)
		}
		if stats.Frames > 0 {
			printWire(w, stats)
		}
		if stats.PoolPeakTasks > 0 || stats.SpilledTasks > 0 {
			fmt.Fprintf(w, "mem: pool-peak=%d tasks (%d bytes est) spilled=%d tasks (%d bytes)\n",
				stats.PoolPeakTasks, stats.PoolPeakBytes, stats.SpilledTasks, stats.SpillBytes)
		}
	}
	if trace != nil {
		fmt.Fprint(w, trace.Summary())
	}
	return nil
}

// printWire prints the transport's traffic: batch is the mean run a steal
// took, no-wait the share of stolen tasks that arrived as a run's extras —
// at no blocking round trip of their own.
func printWire(w io.Writer, stats core.Stats) {
	fmt.Fprintf(w, "wire: frames=%d bytes=%d batch=%.2f no-wait=%.0f%%\n",
		stats.Frames, stats.WireBytes, stats.BatchOccupancy(), 100*stats.PrefetchHitRate())
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
