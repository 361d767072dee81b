// Command experiments regenerates the tables and figure of the paper's
// evaluation: -table1 (YewPar vs hand-coded MaxClique), -fig4 (k-clique
// scaling across localities), -table2 (18 alternate parallelisations),
// -ablation (link latency), -ordered (scheduling orders), -replicable
// (anomalies and their cure), or -all. Table 1 and -replicable run on
// the host's cores; the other four in virtual time (virtual.go), in a
// GOEXPERIMENT=synctest build only. The paper's claims rest on relative
// quantities, printed in its row format; absolute times are the host's.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"yewpar/internal/apps/maxclique"
	"yewpar/internal/core"
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
)

func main() {
	// Exact search materialises millions of short-lived tree nodes per
	// second across all workers; at the default GOGC the collector
	// consumes a large share of the machine. Give it headroom — the
	// paper's C++/HPX baseline pays no GC at all.
	debug.SetGCPercent(800)
	flag.Parse()
	if *flagAll {
		*flagTable1, *flagFig4, *flagTable2, *flagAblation, *flagReplicable, *flagOrdered = true, true, true, true, true, true
	}
	virt := *flagFig4 || *flagTable2 || *flagAblation || *flagOrdered
	if !*flagTable1 && !*flagReplicable && !virt {
		flag.Usage()
		return
	}
	if *flagQuick {
		*flagRuns = 1
	}
	fmt.Printf("host: %d cores; runs per point: %d\n\n", runtime.NumCPU(), *flagRuns)
	if virt { // first: a build without them fails at once
		if err := virtual(); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
	if *flagTable1 {
		table1()
	}
	if *flagReplicable {
		replicable()
	}
}

// replicable demonstrates performance anomalies and their cure
// (paper §2.1 and its citation [4]): the ordinary skeletons' visited
// node counts vary run-to-run and with worker count, while the
// replicable skeleton's are constant.
func replicable() {
	fmt.Println("== Replicability: visited nodes across runs and worker counts ==")
	s := maxclique.NewSpace(instances.Table1()[9].Gen()) // p_hat500-3-like
	fmt.Printf("%-22s %14s %14s %14s\n", "skeleton", "w=4 run1", "w=4 run2", "w=16 run1")
	for _, sk := range []struct {
		name  string
		coord core.Coordination
	}{{"DepthBounded (d=2)", core.DepthBounded}, {"StackStealing", core.StackStealing}, {"Replicable (d=2)", core.Replicable}} {
		nodes := func(w int) int64 {
			return core.Opt(sk.coord, s, maxclique.Root(s), maxclique.OptProblem(), core.Config{Workers: w, DCutoff: 2}).Stats.Nodes
		}
		fmt.Printf("%-22s %14d %14d %14d\n", sk.name, nodes(4), nodes(4), nodes(16))
	}
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

// geoMean is the geometric mean of xs; NaN when xs is empty.
func geoMean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// parWorkers is Table 1's parallel worker count, the one bench uses.
const parWorkers = 2

func table1() {
	fmt.Printf("== Table 1: YewPar vs hand-written MaxClique ==\n(sequential skeleton vs specialised solver; Depth-Bounded d=1 vs\n"+
		" hand-coded depth-1 task parallelism, %d workers each; slowdown %% = yewpar/hand - 1)\n", parWorkers)
	fmt.Printf("%-14s %10s %10s %8s %10s %10s %8s\n", "Instance", "SeqHand(s)", "SeqYew(s)", "Slow(%)", "ParHand(s)", "ParYew(s)", "Slow(%)")

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
		seqRatio, parRatio := seqYew.Seconds()/seqHand.Seconds(), parYew.Seconds()/parHand.Seconds()
		seqRatios = append(seqRatios, seqRatio)
		mark := " "
		if parHand >= parThreshold {
			parRatios = append(parRatios, parRatio)
			mark = "*"
		}
		fmt.Printf("%-14s %10.3f %10.3f %+8.2f %10.3f %10.3f %+8.2f%s\n",
			inst.Name, seqHand.Seconds(), seqYew.Seconds(), 100*(seqRatio-1), parHand.Seconds(), parYew.Seconds(), 100*(parRatio-1), mark)
	}
	fmt.Printf("\nGeo. mean sequential slowdown: %+.2f%%  (paper: +8.76%%)\n", 100*(geoMean(seqRatios)-1))
	if len(parRatios) > 0 {
		fmt.Printf("Geo. mean parallel slowdown (* rows, %d workers): %+.2f%%  (paper: +16.56%% on 15 workers)\n\n",
			parWorkers, 100*(geoMean(parRatios)-1))
	} else {
		fmt.Printf("Geo. mean parallel slowdown: n/a (no row reached the %v cut-off)\n\n", parThreshold)
	}
}
