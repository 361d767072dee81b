//go:build goexperiment.synctest

package main

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing/synctest"
	"time"

	"yewpar/internal/apps/knapsack"
	"yewpar/internal/apps/maxclique"
	"yewpar/internal/apps/semigroups"
	"yewpar/internal/apps/sip"
	"yewpar/internal/apps/tsp"
	"yewpar/internal/apps/uts"
	"yewpar/internal/core"
	"yewpar/internal/dist"
	"yewpar/internal/graph"
	"yewpar/internal/instances"
)

// The scaling sweeps run in virtual time. Inside a testing/synctest
// bubble the clock moves only when every goroutine in it is blocked, so
// an Objective that sleeps c per call (the engine calls it once per
// visited node) gives every node a cost of c and every worker a core of
// its own, whatever the host has. c is the real ns/node of the
// instance's Sequential skeleton, measured first, so a Sequential run's
// virtual time is its real time. The clock sees scheduling only.
const virtualLabel = "virtual: scheduling only, no lock, cache or runtime cost"

const perLocality = 16 // workers per locality, in every sweep

// search runs an instance under coord and cfg, charging c a visited node.
type search func(coord core.Coordination, cfg core.Config, c time.Duration) (any, core.Stats)

// charge makes every call of obj cost c.
func charge[S, N, M any](obj func(S, N) M, c time.Duration) func(S, N) M {
	if c == 0 {
		return obj
	}
	return func(s S, n N) M {
		time.Sleep(c)
		return obj(s, n)
	}
}

func opt[S, N any](s S, root N, p core.OptProblem[S, N]) search {
	return func(coord core.Coordination, cfg core.Config, c time.Duration) (any, core.Stats) {
		q := p
		q.Objective = charge(p.Objective, c)
		r := core.Opt(coord, s, root, q, cfg)
		return r.Objective, r.Stats
	}
}

func enum[S, N any](s S, root N, p core.EnumProblem[S, N, int64]) search {
	return func(coord core.Coordination, cfg core.Config, c time.Duration) (any, core.Stats) {
		q := p
		q.Objective = charge(p.Objective, c)
		r := core.Enum(coord, s, root, q, cfg)
		return r.Value, r.Stats
	}
}

func decide[S, N any](s S, root N, p core.DecisionProblem[S, N]) search {
	return func(coord core.Coordination, cfg core.Config, c time.Duration) (any, core.Stats) {
		q := p
		q.Objective = charge(p.Objective, c)
		r := core.Decide(coord, s, root, q, cfg)
		return r.Found, r.Stats
	}
}

func clique(g *graph.Graph) search {
	s := maxclique.NewSpace(g)
	return opt(s, maxclique.Root(s), maxclique.OptProblem())
}

// instance is a search with its Sequential answer and run, and its cost
// per node: the median of -runs real Sequential runs, over its nodes.
type instance struct {
	run  search
	want any
	seq  core.Stats
	c    time.Duration
}

func measure(s search) instance {
	in := instance{run: s}
	t := medianOf(*flagRuns, func() time.Duration {
		in.want, in.seq = s(core.Sequential, core.Config{}, 0)
		return in.seq.Elapsed
	})
	in.c = max(t/time.Duration(max(in.seq.Nodes, 1)), 1)
	return in
}

// seqTime is the Sequential run's virtual time.
func (in instance) seqTime() time.Duration { return time.Duration(in.seq.Nodes) * in.c }

func (in instance) speedup(st core.Stats) float64 { return float64(in.seqTime()) / float64(st.Elapsed) }

// virtually runs in on localities × perLocality workers (cfg's own at 0),
// -runs times, each in a bubble of its own, and returns the run of median
// virtual time. An answer that is not the Sequential one is reported.
func (in instance) virtually(label string, coord core.Coordination, cfg core.Config, localities int) core.Stats {
	if localities > 0 {
		cfg.Localities, cfg.Workers = localities, localities*perLocality
	}
	runs := make([]core.Stats, *flagRuns)
	for i := range runs {
		var v any
		done := make(chan bool, 1) // Run's return alone orders nothing for the race detector
		synctest.Run(func() { v, runs[i] = in.run(coord, cfg, in.c); done <- true })
		<-done
		if v != in.want {
			fmt.Printf("!! %s: result %v != sequential %v\n", label, v, in.want)
		}
	}
	slices.SortFunc(runs, func(a, b core.Stats) int { return cmp.Compare(a.Elapsed, b.Elapsed) })
	return runs[len(runs)/2]
}

func virtual() error {
	virt, real, in := calibration()
	fmt.Printf("(%s)\ncalibration: uts, %d nodes, Depth-Bounded d=3, 2 workers: virtual %.2fx, real %.2fx (median of 9 alternated pairs)\n\n",
		virtualLabel, in.seq.Nodes, virt, real)
	if *flagFig4 {
		figure4()
	}
	if *flagTable2 {
		table2()
	}
	if *flagAblation || *flagOrdered {
		fourLocalities()
	}
	return nil
}

// calibration reads a 2-worker uts speedup in virtual and in real time
// (the median of alternated pairs): the virtual one must be no lower. The
// geometric tree's largest d=3 task is 3% of it; a binomial one's, half.
func calibration() (virt, real float64, in instance) {
	s := instances.Table2UTS()[2]
	in = measure(enum(s, uts.Root(s), uts.CountProblem()))
	cfg := core.Config{Workers: 2, DCutoff: 3}
	pairs := make([]float64, 9)
	for i := range pairs {
		_, seq := in.run(core.Sequential, core.Config{}, 0)
		_, par := in.run(core.DepthBounded, cfg, 0)
		pairs[i] = seq.Elapsed.Seconds() / par.Elapsed.Seconds()
	}
	slices.Sort(pairs)
	return in.speedup(in.virtually("calibration", core.DepthBounded, cfg, 0)), pairs[len(pairs)/2], in
}

// row runs one point of a sweep and prints it; header names its columns.
func row(label string, in instance, coord core.Coordination, cfg core.Config, localities int) {
	st := in.virtually(label, coord, cfg, localities)
	fmt.Printf("%-34s %10.4f %8.2f %9d %8d %7d %9s\n", label, st.Elapsed.Seconds(), in.speedup(st),
		st.Nodes, st.Prunes, st.Frames, fmt.Sprintf("%d/%d", st.OrderedSteals, st.StealsOK))
}

const header = "%-34s virtual(s)  speedup     nodes   prunes  frames    steals\n"

func figure4() {
	g, omega := instances.SpreadsH44Like()
	// Disprove ω+1, like proving there is no spread in H(4,4).
	s := maxclique.NewSpace(g)
	in := measure(decide(s, maxclique.Root(s), maxclique.DecisionProblem(omega+1)))
	fmt.Printf("== Figure 4: k-clique scaling across localities ==\n%v, disproving k=%d; Sequential %.4fs, %d nodes, %v/node\n",
		g, omega+1, in.seqTime().Seconds(), in.seq.Nodes, in.c)
	fmt.Printf(header, "skeleton, localities x workers")
	// The paper's d=2 and b=1e7 suit hours of work: on this 0.6 s tree
	// d=2's largest task is a seventh of it, and b=1e5 sheds about once.
	for _, sk := range []setting{sweeps[0][3], sweeps[1][1], sweeps[2][0]} {
		for _, L := range []int{1, 2, 4, 8} {
			row(fmt.Sprintf("%v %s, %dx%d", sk.coord, sk.label, L, perLocality), in, sk.coord, sk.cfg, L)
		}
	}
	fmt.Println()
}

// each measures the searches f makes of xs (-quick: of the first).
func each[T any](xs []T, f func(T) search) []instance {
	if *flagQuick {
		xs = xs[:1]
	}
	ins := make([]instance, len(xs))
	for i, x := range xs {
		ins[i] = measure(f(x))
	}
	return ins
}

type setting struct {
	label string
	coord core.Coordination
	cfg   core.Config
}

// sweeps are Table 2's parameter sweeps, one per coordination.
var sweeps = [][]setting{
	{{"d=1", core.DepthBounded, core.Config{DCutoff: 1}}, {"d=2", core.DepthBounded, core.Config{DCutoff: 2}},
		{"d=3", core.DepthBounded, core.Config{DCutoff: 3}}, {"d=4", core.DepthBounded, core.Config{DCutoff: 4}}},
	{{"plain", core.StackStealing, core.Config{}}, {"chunked", core.StackStealing, core.Config{Chunked: true}}},
	{{"b=1e3", core.Budget, core.Config{Budget: 1_000}}, {"b=1e4", core.Budget, core.Config{Budget: 10_000}},
		{"b=1e5", core.Budget, core.Config{Budget: 100_000}}, {"b=1e6", core.Budget, core.Config{Budget: 1_000_000}}},
}

func table2() {
	fmt.Printf("== Table 2: 18 alternate parallelisations, 4 localities x %d workers ==\n", perLocality)
	fmt.Println("(speedup vs Sequential, geometric mean over an app's instances; Worst/Best over the sweep,\n" +
		" Random = a seeded random setting; the best's virtual time, summed, and nodes/Sequential's)")
	fmt.Printf("%-10s %-14s %7s %7s %7s %-8s %11s %9s\n", "App", "Skeleton", "Worst", "Random", "Best", "(best)", "virtual(s)", "nodes/seq")
	apps := []string{"MaxClique", "TSP", "Knapsack", "SIP", "NS", "UTS"}
	ins := [][]instance{
		each(instances.Table2Clique(), func(c instances.CliqueInstance) search { return clique(c.Gen()) }),
		each(instances.Table2TSP(), func(s *tsp.Space) search { return opt(s, tsp.Root(s), tsp.OptProblem()) }),
		each(instances.Table2Knapsack(), func(s *knapsack.Space) search { return opt(s, knapsack.Root(s), knapsack.OptProblem()) }),
		each(instances.Table2SIP(), func(s *sip.Space) search { return decide(s, sip.Root(s), sip.DecisionProblem(s)) }),
		each(instances.Table2NS(), func(g int) search {
			s := semigroups.NewSpace(g)
			return enum(s, semigroups.Root(s), semigroups.CountAtGenus(s))
		}),
		each(instances.Table2UTS(), func(s *uts.Space) search { return enum(s, uts.Root(s), uts.CountProblem()) }),
	}
	keep := 4 // settings per sweep
	if *flagQuick {
		keep = 2
	}
	rng := rand.New(rand.NewSource(2020))
	type point struct {
		label          string
		speedup, nodes float64
		virt           time.Duration
	}
	for a, app := range apps {
		for _, settings := range sweeps {
			var pts []point
			for _, s := range settings[:min(len(settings), keep)] {
				pt := point{label: s.label}
				var speedups, nodes []float64
				for i, in := range ins[a] {
					st := in.virtually(fmt.Sprintf("%s/%v/%s instance %d", app, s.coord, s.label, i), s.coord, s.cfg, 4)
					speedups = append(speedups, in.speedup(st))
					nodes = append(nodes, float64(st.Nodes)/float64(max(in.seq.Nodes, 1)))
					pt.virt += st.Elapsed
				}
				pt.speedup, pt.nodes = geoMean(speedups), geoMean(nodes)
				pts = append(pts, pt)
			}
			bySpeedup := func(a, b point) int { return cmp.Compare(a.speedup, b.speedup) }
			worst, best, random := slices.MinFunc(pts, bySpeedup), slices.MaxFunc(pts, bySpeedup), pts[rng.Intn(len(pts))]
			fmt.Printf("%-10s %-14v %7.2f %7.2f %7.2f %-8s %11.4f %9.2f\n", app, settings[0].coord,
				worst.speedup, random.speedup, best.speedup, best.label, best.virt.Seconds(), best.nodes)
		}
	}
	fmt.Println()
}

// fourLocalities runs the link-latency ablation (stale bounds; steals pay
// it too) and the flowshop follow-up's scheduling orders (strong
// incumbents found earlier shrink the pruned tree) on one maxclique.
func fourLocalities() {
	in := measure(clique(instances.Table1()[8].Gen()))
	fmt.Printf("== p_hat300-3-like, Depth-Bounded d=2, 4 localities x %d workers; Sequential %.4fs, %d nodes, %v/node ==\n",
		perLocality, in.seqTime().Seconds(), in.seq.Nodes, in.c)
	if *flagAblation {
		fmt.Printf(header, "Ablation: link latency")
		for _, lat := range []time.Duration{0, 100 * time.Microsecond, time.Millisecond, 10 * time.Millisecond} {
			row(fmt.Sprintf("latency %v", lat), in, core.DepthBounded, core.Config{DCutoff: 2, NetFault: dist.LatencyPlan(lat)}, 4)
		}
	}
	if *flagOrdered {
		fmt.Printf(header, "Ordered scheduling (steals: ordered/all)")
		for _, ord := range []core.Order{core.OrderNone, core.OrderDiscrepancy, core.OrderBound} {
			row(fmt.Sprintf("order=%v", ord), in, core.DepthBounded, core.Config{DCutoff: 2, Order: ord}, 4)
		}
	}
	fmt.Println()
}
