// Command experiments regenerates every table and figure of the
// paper's evaluation section on the simulated-locality runtime:
//
//	experiments -table1     YewPar vs hand-coded MaxClique overheads
//	experiments -fig4       k-clique scaling across localities
//	experiments -table2     18 alternate parallelisations (sweep)
//	experiments -ablation   link-latency ablation
//	experiments -all        everything
//
// Absolute times are host- and scale-dependent; the quantities the
// paper's claims rest on (relative slowdowns, speedup shapes, which
// skeleton wins where) are printed in the paper's row format.
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"yewpar/internal/apps/knapsack"
	"yewpar/internal/apps/maxclique"
	"yewpar/internal/apps/semigroups"
	"yewpar/internal/apps/sip"
	"yewpar/internal/apps/tsp"
	"yewpar/internal/apps/uts"
	"yewpar/internal/cli"
	"yewpar/internal/core"
	"yewpar/internal/dist"
	"yewpar/internal/instances"
)

var (
	flagTable1     = flag.Bool("table1", false, "run the Table 1 overhead comparison")
	flagOrdered    = flag.Bool("ordered", false, "run the ordered-scheduling (discrepancy/bound) experiment")
	flagFig4       = flag.Bool("fig4", false, "run the Figure 4 scaling experiment")
	flagTable2     = flag.Bool("table2", false, "run the Table 2 parallelisation sweep")
	flagAblation   = flag.Bool("ablation", false, "run the link-latency ablation")
	flagReplicable = flag.Bool("replicable", false, "run the anomaly/replicability demonstration")
	flagAll        = flag.Bool("all", false, "run everything")
	flagQuick      = flag.Bool("quick", false, "fewer repetitions / smaller sweeps")
	flagRuns       = flag.Int("runs", 3, "repetitions per measurement (median reported)")
	flagWorkers    = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS-1, min 1)")
	flagWPL        = flag.Int("wpl", 1, "figure 4: workers per locality")
	flagCPUProf    = flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	flagMemProf    = flag.String("memprofile", "", "write an end-of-run heap profile to this file")
	flagMutexProf  = flag.String("mutexprofile", "", "sample all mutex contention and write the profile to this file")
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	// Exact search materialises millions of short-lived tree nodes per
	// second across all workers; at the default GOGC the collector
	// consumes a large share of the machine. Give it headroom — the
	// paper's C++/HPX baseline pays no GC at all.
	debug.SetGCPercent(800)
	flag.Parse()
	if *flagAll {
		*flagTable1, *flagFig4, *flagTable2, *flagAblation, *flagReplicable, *flagOrdered = true, true, true, true, true, true
	}
	if !*flagTable1 && !*flagFig4 && !*flagTable2 && !*flagAblation && !*flagReplicable && !*flagOrdered {
		flag.Usage()
		return nil
	}
	if *flagQuick {
		*flagRuns = 1
	}
	if *flagWorkers <= 0 {
		*flagWorkers = max(runtime.GOMAXPROCS(0)-1, 1)
	}
	fmt.Printf("host: %d cores; parallel workers: %d; runs per point: %d\n\n",
		runtime.NumCPU(), *flagWorkers, *flagRuns)
	stopProf, err := cli.StartProfiles(*flagCPUProf, *flagMemProf, *flagMutexProf)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && err == nil {
			err = perr
		}
	}()
	if *flagTable1 {
		table1()
	}
	if *flagFig4 {
		figure4()
	}
	if *flagTable2 {
		table2()
	}
	if *flagAblation {
		ablations()
	}
	if *flagReplicable {
		replicable()
	}
	if *flagOrdered {
		ordered()
	}
	return nil
}

// ordered compares the scheduling orders (-order) on a multi-locality
// optimisation search: the claim under test is the flowshop follow-up's
// — a discrepancy- or bound-ordered global task order finds strong
// incumbents earlier, so the pruned tree shrinks relative to
// random-victim depth scheduling, independent of core count.
func ordered() {
	fmt.Println("== Ordered scheduling: nodes and time vs scheduling order ==")
	g := instances.Table1()[8].Gen() // p_hat300-3-like: bound-heavy
	for _, ord := range []core.Order{core.OrderNone, core.OrderDiscrepancy, core.OrderBound} {
		var stats core.Stats
		t := medianOf(*flagRuns, func() time.Duration {
			_, st := maxclique.Solve(g, core.DepthBounded,
				core.Config{Workers: *flagWorkers, Localities: 4, DCutoff: 2, Order: ord})
			stats = st
			return st.Elapsed
		})
		fmt.Printf("order=%-12s %8.3fs  nodes %9d  prunes %9d  ordered-steals %d/%d\n",
			ord, t.Seconds(), stats.Nodes, stats.Prunes, stats.OrderedSteals, stats.StealsOK)
	}
	fmt.Println()
}

// replicable demonstrates performance anomalies and their cure
// (paper §2.1 and its citation [4]): the ordinary skeletons' visited
// node counts vary run-to-run and with worker count, while the
// replicable skeleton's are constant.
func replicable() {
	fmt.Println("== Replicability: visited nodes across runs and worker counts ==")
	g := instances.Table1()[9].Gen() // p_hat500-3-like
	s := maxclique.NewSpace(g)
	p := maxclique.OptProblem()

	fmt.Printf("%-22s %14s %14s %14s\n", "skeleton", "w=4 run1", "w=4 run2", "w=16 run1")
	show := func(name string, run func(workers int) int64) {
		fmt.Printf("%-22s %14d %14d %14d\n", name, run(4), run(4), run(16))
	}
	show("DepthBounded (d=2)", func(w int) int64 {
		r := core.Opt(core.DepthBounded, s, maxclique.Root(s), p, core.Config{Workers: w, DCutoff: 2})
		return r.Stats.Nodes
	})
	show("StackStealing", func(w int) int64 {
		r := core.Opt(core.StackStealing, s, maxclique.Root(s), p, core.Config{Workers: w})
		return r.Stats.Nodes
	})
	show("Replicable (d=2)", func(w int) int64 {
		r := core.Opt(core.Replicable, s, maxclique.Root(s), p, core.Config{Workers: w, DCutoff: 2})
		return r.Stats.Nodes
	})
	fmt.Println("(the replicable skeleton's counts must be identical in every column)")
	fmt.Println()
}

// medianOf runs f runs times and returns the median duration.
func medianOf(runs int, f func() time.Duration) time.Duration {
	ts := make([]time.Duration, 0, runs)
	for i := 0; i < runs; i++ {
		ts = append(ts, f())
	}
	slices.Sort(ts)
	return ts[len(ts)/2]
}

func geoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// ---------------------------------------------------------------- Table 1

func table1() {
	fmt.Println("== Table 1: YewPar vs hand-written MaxClique ==")
	fmt.Println("(sequential skeleton vs specialised solver; Depth-Bounded d=1 vs")
	fmt.Println(" hand-coded depth-1 task parallelism; slowdown % = yewpar/hand - 1)")
	parWorkers := 15
	if max := runtime.GOMAXPROCS(0) - 1; parWorkers > max && max >= 1 {
		parWorkers = max
	}
	fmt.Printf("%-14s %10s %10s %8s %10s %10s %8s\n",
		"Instance", "SeqHand(s)", "SeqYew(s)", "Slow(%)", "ParHand(s)", "ParYew(s)", "Slow(%)")

	var seqRatios, parRatios []float64
	// The paper excludes very short runs (< 1.5s at its scale) from
	// the parallel mean; at our ~100x-smaller instance scale the
	// equivalent cut-off is a few milliseconds of hand-coded runtime.
	const parThreshold = 5 * time.Millisecond
	for _, inst := range instances.Table1() {
		g := inst.Gen()
		var handSize, yewSize int
		seqHand := medianOf(*flagRuns, func() time.Duration {
			t0 := time.Now()
			c, _ := maxclique.SeqHandcoded(g)
			handSize = c.Count()
			return time.Since(t0)
		})
		seqYew := medianOf(*flagRuns, func() time.Duration {
			c, stats := maxclique.Solve(g, core.Sequential, core.Config{})
			yewSize = c.Count()
			return stats.Elapsed
		})
		if handSize != yewSize {
			fmt.Printf("!! %s: size mismatch hand=%d yew=%d\n", inst.Name, handSize, yewSize)
		}
		parHand := medianOf(*flagRuns, func() time.Duration {
			t0 := time.Now()
			maxclique.ParHandcoded(g, parWorkers)
			return time.Since(t0)
		})
		parYew := medianOf(*flagRuns, func() time.Duration {
			_, stats := maxclique.Solve(g, core.DepthBounded,
				core.Config{Workers: parWorkers, DCutoff: 1})
			return stats.Elapsed
		})
		seqSlow := 100 * (seqYew.Seconds()/seqHand.Seconds() - 1)
		parSlow := 100 * (parYew.Seconds()/parHand.Seconds() - 1)
		seqRatios = append(seqRatios, seqYew.Seconds()/seqHand.Seconds())
		mark := " "
		if parHand >= parThreshold {
			parRatios = append(parRatios, parYew.Seconds()/parHand.Seconds())
			mark = "*"
		}
		fmt.Printf("%-14s %10.3f %10.3f %+8.2f %10.3f %10.3f %+8.2f%s\n",
			inst.Name, seqHand.Seconds(), seqYew.Seconds(), seqSlow, parHand.Seconds(), parYew.Seconds(), parSlow, mark)
	}
	fmt.Printf("\nGeo. mean sequential slowdown: %+.2f%%  (paper: +8.76%%)\n",
		100*(geoMean(seqRatios)-1))
	if len(parRatios) > 0 {
		fmt.Printf("Geo. mean parallel slowdown (* rows, %d workers): %+.2f%%  (paper: +16.56%% on 15 workers)\n\n",
			parWorkers, 100*(geoMean(parRatios)-1))
	} else {
		fmt.Printf("Geo. mean parallel slowdown: n/a (no row reached the %v cut-off)\n\n", parThreshold)
	}
}

// ---------------------------------------------------------------- Figure 4

func figure4() {
	fmt.Println("== Figure 4: k-clique scaling across localities ==")
	g, omega := instances.SpreadsH44Like()
	// Disprove ω+1: an unsatisfiable decision that must explore the
	// whole pruned tree, like proving there is no spread in H(4,4).
	k := omega + 1
	seq := medianOf(*flagRuns, func() time.Duration {
		_, _, stats := maxclique.Decide(g, k, core.Sequential, core.Config{})
		return stats.Elapsed
	})
	fmt.Printf("instance: %v, disproving k=%d; sequential: %.3fs\n", g, k, seq.Seconds())
	fmt.Printf("workers per locality: %d\n\n", *flagWPL)

	type skel struct {
		name  string
		coord core.Coordination
		cfg   core.Config
	}
	// The paper uses b=1e7 on an instance with hours of sequential
	// work; the budget scales with instance size, so at our
	// seconds-scale instance the equivalent setting is b=1e5.
	skels := []skel{
		{"Depth-Bounded (d=2)", core.DepthBounded, core.Config{DCutoff: 2}},
		{"Stack-Stealing (chunked)", core.StackStealing, core.Config{Chunked: true}},
		{"Budget (b=1e5)", core.Budget, core.Config{Budget: 100_000}},
	}
	// The wire columns attribute efficiency loss at scale: frames and
	// bytes are the transport Meter's logical traffic (real bytes when
	// rerun over `yewpar -dist`), batch is the mean tasks per steal
	// reply, no-wait the share of stolen tasks that arrived as a
	// run's extras, at no blocking round trip of their own.
	// The mem columns are the per-locality accountant's view: peak
	// resident frontier (max tasks across localities, with its encoded
	// byte estimate) and tasks spilled to disk — zero unless the run
	// sets -pool-budget.
	locSweep := []int{1, 2, 4, 8, 16, 17}
	fmt.Printf("%-26s %6s %10s %10s %10s %12s %6s %7s %10s %12s %8s\n",
		"Skeleton", "locs", "time(s)", "speedup", "frames", "wire-bytes", "batch", "no-wait",
		"pool-peak", "pool-peakB", "spilled")
	for _, sk := range skels {
		var base time.Duration
		for _, L := range locSweep {
			cfg := sk.cfg
			cfg.Localities = L
			cfg.Workers = L * *flagWPL
			var ws core.Stats
			t := medianOf(*flagRuns, func() time.Duration {
				_, found, stats := maxclique.Decide(g, k, sk.coord, cfg)
				if found {
					fmt.Println("!! impossible clique found")
				}
				ws = stats
				return stats.Elapsed
			})
			if L == 1 {
				base = t
			}
			fmt.Printf("%-26s %6d %10.3f %10.2f %10d %12d %6.2f %6.0f%% %10d %12d %8d\n",
				sk.name, L, t.Seconds(), base.Seconds()/t.Seconds(), ws.Frames, ws.WireBytes,
				ws.BatchOccupancy(), 100*ws.PrefetchHitRate(),
				ws.PoolPeakTasks, ws.PoolPeakBytes, ws.SpilledTasks)
		}
		fmt.Println()
	}
}

// ---------------------------------------------------------------- Table 2

// app2 is one Table 2 application: its instances under the package's
// runner, which returns the answer (every parallel run is validated
// against the Sequential one) and the elapsed time.
type app2 struct {
	name string
	n    int // number of instances
	run  func(i int, coord core.Coordination, cfg core.Config) (any, time.Duration)
}

// rows is a package's runner over its Table 2 instances.
func rows[S, V any](name string, insts []S, run func(dist.Transport, S, core.Coordination, core.Config) (V, core.Stats, error)) app2 {
	return app2{name, len(insts), func(i int, coord core.Coordination, cfg core.Config) (any, time.Duration) {
		v, stats, _ := run(nil, insts[i], coord, cfg) // a nil transport cannot fail
		return v, stats.Elapsed
	}}
}

func table2Apps() []app2 {
	var graphs []*maxclique.Space
	for _, c := range instances.Table2Clique() {
		graphs = append(graphs, maxclique.NewSpace(c.Gen()))
	}
	var genera []*semigroups.Space
	for _, g := range instances.Table2NS() {
		genera = append(genera, semigroups.NewSpace(g))
	}
	return []app2{
		rows("MaxClique", graphs, maxclique.Run),
		rows("TSP", instances.Table2TSP(), tsp.Run),
		rows("Knapsack", instances.Table2Knapsack(), knapsack.Run),
		rows("SIP", instances.Table2SIP(), sip.Run),
		rows("NS", genera, semigroups.Run),
		rows("UTS", instances.Table2UTS(), uts.Run),
	}
}

// sweepSetting is one point of the Table 2 parameter sweep.
type sweepSetting struct {
	label string
	cfg   core.Config
}

func sweeps(quick bool) map[core.Coordination][]sweepSetting {
	db := []sweepSetting{
		{"d=1", core.Config{DCutoff: 1}},
		{"d=2", core.Config{DCutoff: 2}},
		{"d=3", core.Config{DCutoff: 3}},
		{"d=4", core.Config{DCutoff: 4}},
	}
	bu := []sweepSetting{
		{"b=1e3", core.Config{Budget: 1_000}},
		{"b=1e4", core.Config{Budget: 10_000}},
		{"b=1e5", core.Config{Budget: 100_000}},
		{"b=1e6", core.Config{Budget: 1_000_000}},
	}
	ss := []sweepSetting{
		{"plain", core.Config{}},
		{"chunked", core.Config{Chunked: true}},
	}
	if quick {
		db, bu = db[:2], bu[:2]
	}
	return map[core.Coordination][]sweepSetting{
		core.DepthBounded:  db,
		core.Budget:        bu,
		core.StackStealing: ss,
	}
}

func table2() {
	fmt.Println("== Table 2: 18 alternate parallelisations ==")
	fmt.Printf("(geometric-mean speedup vs Sequential skeleton, %d workers;\n", *flagWorkers)
	fmt.Println(" Worst/Best over the parameter sweep, Random = seeded random setting)")
	fmt.Printf("%-10s %-14s %8s %8s %8s\n", "App", "Skeleton", "Worst", "Random", "Best")

	apps := table2Apps()
	sw := sweeps(*flagQuick)
	coords := []core.Coordination{core.DepthBounded, core.StackStealing, core.Budget}
	names := map[core.Coordination]string{
		core.DepthBounded: "Depth-Bounded", core.StackStealing: "Stack-Stealing", core.Budget: "Budget",
	}
	rng := rand.New(rand.NewSource(2020))
	all := map[core.Coordination][][3]float64{}

	for _, app := range apps {
		seqTimes := make([]time.Duration, app.n)
		seqVals := make([]any, app.n)
		for i := 0; i < app.n; i++ {
			seqVals[i], _ = app.run(i, core.Sequential, core.Config{}) // warm once
			seqTimes[i] = medianOf(*flagRuns, func() time.Duration {
				_, d := app.run(i, core.Sequential, core.Config{})
				return d
			})
		}
		for _, coord := range coords {
			settings := sw[coord]
			perSetting := make([]float64, 0, len(settings))
			for _, s := range settings {
				cfg := s.cfg
				cfg.Workers = *flagWorkers
				ratios := make([]float64, 0, app.n)
				for i := 0; i < app.n; i++ {
					v, d := app.run(i, coord, cfg)
					if v != seqVals[i] {
						fmt.Printf("!! %s/%v/%s instance %d: result %v != sequential %v\n",
							app.name, coord, s.label, i, v, seqVals[i])
					}
					ratios = append(ratios, seqTimes[i].Seconds()/d.Seconds())
				}
				perSetting = append(perSetting, geoMean(ratios))
			}
			worst, best := slices.Min(perSetting), slices.Max(perSetting)
			random := perSetting[rng.Intn(len(perSetting))]
			fmt.Printf("%-10s %-14s %8.2f %8.2f %8.2f\n", app.name, names[coord], worst, random, best)
			all[coord] = append(all[coord], [3]float64{worst, random, best})
		}
	}
	for _, coord := range coords {
		var w, r, b []float64
		for _, x := range all[coord] {
			w, r, b = append(w, x[0]), append(r, x[1]), append(b, x[2])
		}
		fmt.Printf("%-10s %-14s %8.2f %8.2f %8.2f\n", "All", names[coord], geoMean(w), geoMean(r), geoMean(b))
	}
	fmt.Println()
}

// --------------------------------------------------------------- Ablation

func ablations() {
	g := instances.Table1()[8].Gen() // p_hat300-3-like: bound-heavy
	fmt.Println("== Ablation: link latency (stale-knowledge tolerance; steals pay it too) ==")
	for _, lat := range []time.Duration{0, 100 * time.Microsecond, time.Millisecond, 10 * time.Millisecond} {
		var nodes, prunes int64
		t := medianOf(*flagRuns, func() time.Duration {
			_, stats := maxclique.Solve(g, core.DepthBounded,
				core.Config{Workers: *flagWorkers, Localities: 4, DCutoff: 2, NetFault: dist.LatencyPlan(lat)})
			nodes, prunes = stats.Nodes, stats.Prunes
			return stats.Elapsed
		})
		fmt.Printf("latency %-8v %8.3fs  nodes %9d  prunes %9d\n", lat, t.Seconds(), nodes, prunes)
	}
	fmt.Println()
}
