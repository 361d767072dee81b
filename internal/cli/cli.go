// Package cli implements the yewpar command-line driver: flag parsing,
// the application table (apps.go) and Run. It mirrors the paper
// artifact's per-application binaries behind one executable and is
// factored out of package main so the whole surface is testable.
package cli

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on the default mux for -pprof-addr
	"runtime"
	"slices"
	"strings"
	"time"

	"yewpar/internal/core"
	"yewpar/internal/dist"
)

// Options are the parsed command-line options.
type Options struct {
	App string
	// app is App's row of the application table, found by ParseArgs.
	app        *app
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
	// order is Order parsed by ParseArgs, so that a typo'd -order fails at
	// parse time instead of silently degrading to an unordered run; Config
	// and the stats printer read this.
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
	Standby     bool
	LinkGrace   time.Duration
}

// ParseArgs parses command-line arguments into Options.
func ParseArgs(args []string) (*Options, error) {
	o := &Options{}
	fs := flag.NewFlagSet("yewpar", flag.ContinueOnError)
	var usage strings.Builder // the flag package's complaint, if any, and the flag list
	fs.SetOutput(&usage)
	fs.StringVar(&o.App, "app", apps[0].name, "application: "+appNames("|", false))
	fs.StringVar(&o.Skeleton, "skeleton", "seq", "search coordination: seq|depthbounded|stacksteal|budget|replicable, or bestfirst (= budget -order bound; optimisation apps)")
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
	fs.BoolVar(&o.Standby, "standby", false, "dist: arm coordinator failover — rank 0 runs as a pure coordinator, with no workers, and replicates its state to the lowest worker rank, which takes over and finishes the search if the coordinator dies (all ranks must agree)")
	fs.DurationVar(&o.LinkGrace, "link-grace", 0, "dist: arm resumable links (wire protocol v8) — a broken connection is kept alive for this grace window while the dialing side reconnects and replays unacknowledged frames, so transient partitions shorter than the grace heal with zero deaths (0 = off; all ranks must agree)")
	if err := fs.Parse(args); err != nil {
		return nil, fmt.Errorf("%s", strings.TrimSpace(usage.String()))
	}
	// A value core.Config would quietly replace with its default, or a
	// generator quietly clamp, is refused here: the stats line reports
	// what ran, so what was asked for has to be something that can.
	if err := cmp.Or(
		inRange("localities", o.Locs, 1, math.MaxInt32),
		inRange("d", o.DCutoff, 1, math.MaxInt32),
		inRange("b", o.Budget, 1, math.MaxInt64),
		inRange("pool-budget", o.PoolBudget, 0, math.MaxInt64),
		inRange("p", o.P, 0, 1),
		inRange("link-latency", o.LinkLat, 0, math.MaxInt64),
	); err != nil {
		return nil, err
	}
	i := slices.IndexFunc(apps, func(a app) bool { return a.name == o.App })
	if i < 0 {
		return nil, fmt.Errorf("unknown app %q", o.App)
	}
	o.app = &apps[i]
	var err error
	if o.order, err = ParseOrder(o.Order); err != nil {
		return nil, err
	}
	if o.Skeleton == "bestfirst" {
		// Best-first search is a composition, not a coordination: Budget
		// scheduled by the problem's bound. Every rank of a deployment
		// sees the rewritten pair, so either spelling joins the other.
		if o.app.kind != "opt" {
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

// ParseSkeleton maps a skeleton name — a Coordination's own, or an
// alias of one — to the Coordination.
func ParseSkeleton(s string) (core.Coordination, error) {
	name := map[string]string{"sequential": "seq", "stackstealing": "stacksteal"}[s]
	for c := core.Sequential; c <= core.Replicable; c++ {
		if c.String() == cmp.Or(name, s) {
			return c, nil
		}
	}
	return 0, fmt.Errorf("unknown skeleton %q", s)
}

// Config builds the core.Config from the options.
func (o *Options) Config() core.Config {
	cfg := core.Config{
		Workers:     o.Workers,
		Localities:  o.Locs,
		DCutoff:     o.DCutoff,
		Budget:      o.Budget,
		Chunked:     o.Chunked,
		PoolBudget:  o.PoolBudget,
		SpillDir:    o.SpillDir,
		Order:       o.order,
		MaxFailures: o.MaxFailures,
	}
	if o.LinkLat > 0 {
		cfg.NetFault = dist.LatencyPlan(o.LinkLat)
	}
	return cfg
}

// Run executes the selected application and writes a human-readable
// report to w: in this process alone, or as one rank of a -dist
// deployment, where the coordinator reports and workers print nothing on
// success. Either way it is one search, whose transport is nil in a
// single process. Profile hooks (-cpuprofile and friends) bracket the
// whole run — a -dist worker with -pprof-addr serves live pprof for its
// entire lifetime.
func Run(args []string, w io.Writer) (err error) {
	o, err := ParseArgs(args)
	if err != nil {
		return err
	}
	stopProf, err := startProfiles(o.CPUProfile, o.MemProfile, o.MutexProfile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && err == nil {
			err = perr
		}
	}()
	if o.PprofAddr != "" {
		// Live net/http/pprof, for -dist workers that run too long to wait
		// for the file profiles. A dead endpoint is worse than none, so a
		// bind error is fatal.
		ln, err := net.Listen("tcp", o.PprofAddr)
		if err != nil {
			return fmt.Errorf("pprof-addr: %w", err)
		}
		go http.Serve(ln, nil) // the default mux, where net/http/pprof registered
		defer ln.Close()
	}
	coord, err := ParseSkeleton(o.Skeleton)
	if err != nil {
		return err
	}
	if err := o.checkDist(coord); err != nil {
		return err
	}
	run, err := o.app.build(o)
	if err != nil {
		return err
	}
	cfg := o.Config()
	if o.TraceRun {
		workers := cfg.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		if coord == core.Sequential {
			workers = 1 // whatever -workers says: utilisation is of the one it runs on
		}
		cfg.Trace = core.NewTrace(workers)
	}
	var tr dist.Transport // nil: the search is this process's alone
	if o.Dist != "" {
		if tr, err = connect(o, w); err != nil {
			return err
		}
		defer tr.Close()
	}

	start := time.Now()
	answer, stats, err := run(tr, coord, cfg)
	// Under -dist the coordinator owns the report, or the worker promoted
	// in its place if it died (asked after the search: that is when a
	// promotion has happened).
	if err != nil || tr != nil && tr.Rank() != 0 && !tr.Promoted() {
		return err
	}
	fmt.Fprintln(w, answer)
	if o.ShowStats {
		// The localities that ran: the deployment's, or in one process as
		// many of -localities as there were workers to give one each.
		localities := min(o.Locs, stats.Workers)
		if tr != nil {
			localities = tr.Size()
		}
		fmt.Fprintf(w, "skeleton=%s workers=%d localities=%d elapsed=%v\n",
			coord, stats.Workers, localities, time.Since(start).Round(time.Millisecond))
		fmt.Fprintf(w, "nodes=%d prunes=%d spawns=%d steals=%d/%d local-steals=%d backtracks=%d broadcasts=%d\n",
			stats.Nodes, stats.Prunes, stats.Spawns, stats.StealsOK,
			stats.StealsOK+stats.StealsFail, stats.LocalSteals, stats.Backtracks, stats.Broadcasts)
		if o.order != core.OrderNone {
			fmt.Fprintf(w, "order=%s ordered-steals=%d prio-hist=%v\n",
				o.order, stats.OrderedSteals, stats.PrioHist)
		}
		// batch is the mean run a steal took, no-wait the share of stolen
		// tasks that arrived as a run's extras — at no blocking round trip
		// of their own.
		if tr != nil || stats.Frames > 0 {
			fmt.Fprintf(w, "wire: frames=%d bytes=%d batch=%.2f no-wait=%.0f%%\n",
				stats.Frames, stats.WireBytes, stats.BatchOccupancy(), 100*stats.PrefetchHitRate())
		}
		if tr != nil {
			fmt.Fprintf(w, "fault: deaths=%d replayed=%d ledger-peak=%d resumes=%d\n",
				stats.Deaths, stats.ReplayedTasks, stats.LedgerPeak, stats.LinkResumes)
		}
		if tr != nil || stats.PoolPeakTasks > 0 || stats.SpilledTasks > 0 {
			fmt.Fprintf(w, "mem: pool-peak=%d tasks (%d bytes est) spilled=%d tasks (%d bytes)\n",
				stats.PoolPeakTasks, stats.PoolPeakBytes, stats.SpilledTasks, stats.SpillBytes)
		}
	}
	if cfg.Trace != nil {
		fmt.Fprint(w, cfg.Trace.Summary())
	}
	return nil
}
