package yewpar

// One benchmark per table/figure of the paper's evaluation section,
// plus the design-choice ablations called out in DESIGN.md. Run with
//
//	go test -bench=. -benchmem
//
// BenchmarkTable1SeqOverhead  — Table 1 columns 2-4 (sequential overhead)
// BenchmarkTable1ParOverhead  — Table 1 columns 5-7 (parallel overhead)
// BenchmarkFigure4Scaling     — Figure 4 (k-clique locality scaling)
// BenchmarkTable2             — Table 2 (app × skeleton speedups)
// BenchmarkAblationLinkLatency — stale-bound tolerance (steals pay the latency too)
//
// Benchmarks use the mid-sized instances so a full -bench=. pass stays
// in minutes; cmd/experiments runs the full row sets.

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"yewpar/internal/apps/knapsack"
	"yewpar/internal/apps/maxclique"
	"yewpar/internal/apps/semigroups"
	"yewpar/internal/apps/sip"
	"yewpar/internal/apps/tsp"
	"yewpar/internal/apps/uts"
	"yewpar/internal/core"
	"yewpar/internal/coretest"
	"yewpar/internal/dist"
	"yewpar/internal/graph"
	"yewpar/internal/instances"
)

func TestMain(m *testing.M) {
	// Same GC headroom as the cmd/ harnesses: without it the
	// collector, not the search, dominates parallel benchmarks.
	debug.SetGCPercent(800)
	os.Exit(m.Run())
}

func benchWorkers() int {
	w := runtime.GOMAXPROCS(0) - 1
	if w < 1 {
		w = 1
	}
	return w
}

// table1Bench are the Table 1 instances small enough to iterate under
// the default benchtime.
var table1Bench = []string{"brock400_1", "brock400_4", "san400_0.9_1", "sanr400_0.7", "p_hat700-2"}

func table1Graph(name string) *graph.Graph {
	for _, inst := range instances.Table1() {
		if inst.Name == name {
			return inst.Gen()
		}
	}
	panic("unknown instance " + name)
}

func BenchmarkTable1SeqOverhead(b *testing.B) {
	for _, name := range table1Bench {
		g := table1Graph(name)
		b.Run(name+"/handcoded", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				maxclique.SeqHandcoded(g)
			}
		})
		b.Run(name+"/yewpar-seq", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				maxclique.Solve(g, core.Sequential, core.Config{})
			}
		})
	}
}

func BenchmarkTable1ParOverhead(b *testing.B) {
	w := benchWorkers()
	if w > 15 {
		w = 15 // the paper's 15-worker single-locality setting
	}
	for _, name := range table1Bench {
		g := table1Graph(name)
		b.Run(fmt.Sprintf("%s/handcoded-par-%dw", name, w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				maxclique.ParHandcoded(g, w)
			}
		})
		b.Run(fmt.Sprintf("%s/yewpar-depthbounded-%dw", name, w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				maxclique.Solve(g, core.DepthBounded, core.Config{Workers: w, DCutoff: 1})
			}
		})
	}
}

func BenchmarkFigure4Scaling(b *testing.B) {
	g, omega := instances.SpreadsH44Like()
	k := omega + 1 // unsatisfiable: forces full pruned-tree search
	skels := []struct {
		name  string
		coord core.Coordination
		cfg   core.Config
	}{
		{"depthbounded-d2", core.DepthBounded, core.Config{DCutoff: 2}},
		{"stacksteal-chunked", core.StackStealing, core.Config{Chunked: true}},
		// paper: b=1e7 on an hours-scale instance; budget scales with
		// instance size, so the seconds-scale stand-in uses 1e5.
		{"budget-1e5", core.Budget, core.Config{Budget: 100_000}},
	}
	maxL := benchWorkers()
	for _, sk := range skels {
		for _, locs := range []int{1, 2, 4, 8, 16, 17} {
			if locs > maxL {
				continue // cannot place one worker per locality
			}
			cfg := sk.cfg
			cfg.Localities = locs
			cfg.Workers = locs
			b.Run(fmt.Sprintf("%s/loc=%d", sk.name, locs), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, found, _ := maxclique.Decide(g, k, sk.coord, cfg); found {
						b.Fatal("impossible clique found")
					}
				}
			})
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	w := benchWorkers()
	cliqueSpace := maxclique.NewSpace(instances.Table2Clique()[0].Gen())
	knap := instances.Table2Knapsack()[0]
	tspS := instances.Table2TSP()[0]
	sipS := instances.Table2SIP()[0]
	utsS := instances.Table2UTS()[0]
	nsG := instances.Table2NS()[0]

	type cfgCase struct {
		name  string
		coord core.Coordination
		cfg   core.Config
	}
	cases := []cfgCase{
		{"seq", core.Sequential, core.Config{}},
		{"depthbounded", core.DepthBounded, core.Config{Workers: w, DCutoff: 2}},
		{"stacksteal", core.StackStealing, core.Config{Workers: w, Chunked: true}},
		{"budget", core.Budget, core.Config{Workers: w, Budget: 10_000}},
	}
	for _, c := range cases {
		b.Run("MaxClique/"+c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.Opt(c.coord, cliqueSpace, maxclique.Root(cliqueSpace), maxclique.OptProblem(), c.cfg)
			}
		})
	}
	for _, c := range cases {
		b.Run("Knapsack/"+c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				knapsack.Solve(knap, c.coord, c.cfg)
			}
		})
	}
	for _, c := range cases {
		b.Run("TSP/"+c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tsp.Solve(tspS, c.coord, c.cfg)
			}
		})
	}
	for _, c := range cases {
		b.Run("SIP/"+c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sip.Solve(sipS, c.coord, c.cfg)
			}
		})
	}
	for _, c := range cases {
		b.Run("NS/"+c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				semigroups.Count(nsG, c.coord, c.cfg)
			}
		})
	}
	for _, c := range cases {
		b.Run("UTS/"+c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				uts.Count(utsS, c.coord, c.cfg)
			}
		})
	}
}

func BenchmarkAblationVertexOrder(b *testing.B) {
	// Natural input order vs degeneracy relabelling: the preprocessing
	// the clique literature applies before branch and bound.
	g := table1Graph("sanr400_0.7")
	b.Run("natural", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			maxclique.Solve(g, core.Sequential, core.Config{})
		}
	})
	b.Run("degeneracy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, _ := maxclique.NewSpaceDegeneracy(g)
			core.Opt(core.Sequential, s, maxclique.Root(s), maxclique.OptProblem(), core.Config{})
		}
	})
}

func BenchmarkAblationLinkLatency(b *testing.B) {
	g := table1Graph("p_hat300-3")
	w := benchWorkers()
	for _, lat := range []time.Duration{0, 100 * time.Microsecond, time.Millisecond} {
		b.Run(lat.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				maxclique.Solve(g, core.DepthBounded,
					core.Config{Workers: w, Localities: 4, DCutoff: 2, NetFault: dist.LatencyPlan(lat)})
			}
		})
	}
}

// ------------------------------------------------------------------
// Skeleton tax (Table 1, revisited per-node): the generic skeletons
// vs the hand-coded bitset solver, with generator recycling isolated
// (the norecycle row hides the generator's Reset behind
// coretest.FactoryOnly, so every expansion takes the factory path).
// The allocation/scheduling overhaul's other lever, per-worker pool
// shards against the single shared pool per locality, was last measured
// when the knob that selected it was deleted; BENCH_engine.json keeps
// those numbers. ns/node and allocs/node are reported per search-tree
// node so instances of different sizes are comparable.

// measurePerNode runs one search per iteration, accumulating visited
// nodes, and reports ns/node and allocs/node (heap Mallocs across all
// workers, read after every goroutine has joined).
func measurePerNode(b *testing.B, run func() int64) {
	b.ReportAllocs()
	var ms0, ms1 runtime.MemStats
	var nodes int64
	b.ResetTimer()
	runtime.ReadMemStats(&ms0)
	for i := 0; i < b.N; i++ {
		nodes += run()
	}
	runtime.ReadMemStats(&ms1)
	if nodes == 0 {
		b.Fatal("search visited no nodes")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodes), "ns/node")
	b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(nodes), "allocs/node")
}

func BenchmarkSkeletonTax(b *testing.B) {
	g := table1Graph("p_hat300-3")
	b.Run("seq/handcoded", func(b *testing.B) {
		measurePerNode(b, func() int64 {
			_, nodes := maxclique.SeqHandcoded(g)
			return nodes
		})
	})
	space := maxclique.NewSpace(g)
	recycled := maxclique.OptProblem()
	factoryOnly := recycled
	factoryOnly.Gen = coretest.FactoryOnly(recycled.Gen)
	solve := func(coord core.Coordination, p core.OptProblem[*maxclique.Space, maxclique.Node], cfg core.Config) func() int64 {
		return func() int64 {
			return core.Opt(coord, space, maxclique.Root(space), p, cfg).Stats.Nodes
		}
	}
	b.Run("seq/skeleton", func(b *testing.B) {
		measurePerNode(b, solve(core.Sequential, recycled, core.Config{}))
	})
	b.Run("seq/skeleton-norecycle", func(b *testing.B) {
		measurePerNode(b, solve(core.Sequential, factoryOnly, core.Config{}))
	})

	w := benchWorkers()
	if w > 15 {
		w = 15 // the paper's 15-worker single-locality setting
	}
	b.Run(fmt.Sprintf("par-%dw/handcoded", w), func(b *testing.B) {
		measurePerNode(b, func() int64 {
			_, nodes := maxclique.ParHandcoded(g, w)
			return nodes
		})
	})
	b.Run(fmt.Sprintf("par-%dw/skeleton", w), func(b *testing.B) {
		measurePerNode(b, solve(core.DepthBounded, recycled, core.Config{Workers: w, DCutoff: 1}))
	})
}

// BenchmarkBackToBackSolves is ROADMAP per-node item (c) as a number:
// the bench command's fine-grained workload (UTS b0=100,000,
// Depth-Bounded d=8, two workers: 0.76 M tasks under a 100,000-wide
// root level) solved b.N times in one process with no runtime.GC() in
// between, so each solve starts on whatever heap the previous one left.
// Run with -benchtime 10x: B/op is what one solve allocates, and the
// spread between the fastest and the slowest solve is what the
// inherited heap costs.
func BenchmarkBackToBackSolves(b *testing.B) {
	sp := &uts.Space{Shape: uts.Binomial, B0: 100_000, M: 6, Q: 0.165, Seed: 1}
	root, p := uts.Root(sp), uts.CountProblem()
	b.ReportAllocs()
	lo, hi := time.Duration(1<<62), time.Duration(0)
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		res := core.Enum(core.DepthBounded, sp, root, p, core.Config{Workers: 2, DCutoff: 8})
		d := time.Since(t0)
		lo, hi = min(lo, d), max(hi, d)
		if res.Value != res.Stats.Nodes {
			b.Fatalf("counted %d nodes, visited %d", res.Value, res.Stats.Nodes)
		}
	}
	b.ReportMetric(float64(lo.Microseconds())/1e3, "min-ms/solve")
	b.ReportMetric(float64(hi.Microseconds())/1e3, "max-ms/solve")
}

// BenchmarkDistBackToBackSolves is BenchmarkBackToBackSolves for the
// bench command's wire-heavy workload: the same UTS tree under Budget
// b=10000 on a two-rank TCP star over 127.0.0.1, one worker a rank, a
// fresh deployment per solve as the bench command makes one, about
// eleven thousand steals a solve. Run with -benchtime 5x: B/op and
// allocs/op are what one solve — both ranks, deployment included —
// leaves the next one to collect.
func BenchmarkDistBackToBackSolves(b *testing.B) {
	sp := &uts.Space{Shape: uts.Binomial, B0: 100_000, M: 6, Q: 0.165, Seed: 1}
	root, p := uts.Root(sp), uts.CountProblem()
	b.ReportAllocs()
	lo, hi := time.Duration(1<<62), time.Duration(0)
	for i := 0; i < b.N; i++ {
		coord, worker, cleanup := benchTransportPair(b, "tcp", 0)
		t0 := time.Now()
		var res core.EnumResult[int64]
		var err, werr error
		done := make(chan struct{})
		go func() {
			defer close(done)
			_, werr = core.DistEnum(worker, uts.Codec(), core.Budget, sp, root, p, core.Config{Workers: 1, Budget: 10_000})
		}()
		res, err = core.DistEnum(coord, uts.Codec(), core.Budget, sp, root, p, core.Config{Workers: 1, Budget: 10_000})
		<-done
		d := time.Since(t0)
		cleanup()
		lo, hi = min(lo, d), max(hi, d)
		if err != nil || werr != nil {
			b.Fatalf("solve: %v / %v", err, werr)
		}
		if res.Value != res.Stats.Nodes {
			b.Fatalf("counted %d nodes, visited %d", res.Value, res.Stats.Nodes)
		}
	}
	b.ReportMetric(float64(lo.Microseconds())/1e3, "min-ms/solve")
	b.ReportMetric(float64(hi.Microseconds())/1e3, "max-ms/solve")
}

// BenchmarkNodeThroughput measures multi-worker node throughput of the
// pool-based engine. Two workloads: maxclique depthbounded (coarse
// tasks, pruning) and UTS budget (spawn-heavy enumeration, the pool
// stress case). Worker counts beyond GOMAXPROCS are still run — an
// oversubscribed engine must not collapse — but real contention relief
// needs real cores. (The single mutex-shared pool per locality these
// rows used to be paired with is in BENCH_engine.json's notes.)
func BenchmarkNodeThroughput(b *testing.B) {
	g := table1Graph("p_hat300-3")
	utsS := &uts.Space{Shape: uts.Binomial, B0: 2000, M: 6, Q: 0.166, Seed: 401}
	for _, w := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("maxclique-depthbounded/%dw", w), func(b *testing.B) {
			measurePerNode(b, func() int64 {
				_, st := maxclique.Solve(g, core.DepthBounded, core.Config{Workers: w, DCutoff: 2})
				return st.Nodes
			})
		})
	}
	for _, w := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("uts-budget/%dw", w), func(b *testing.B) {
			measurePerNode(b, func() int64 {
				_, st := uts.Count(utsS, core.Budget, core.Config{Workers: w, Budget: 500})
				return st.Nodes
			})
		})
	}
}

// ------------------------------------------------------------------
// Ordered scheduling (Config.Order): does a discrepancy- or
// bound-ordered global task order find the optimal incumbent after
// fewer visited nodes than random-victim depth scheduling? Nodes are
// counted through an atomic wrapper around the objective so
// "nodes-to-first-optimal-incumbent" — the count at the moment the
// final incumbent was installed — is exact and race-free. Recorded in
// BENCH_ordered.json.

// orderedRun executes one multi-locality maxclique solve and reports
// (total nodes, nodes at the last incumbent improvement).
func orderedRun(b *testing.B, g *graph.Graph, ord core.Order) (total, toIncumbent int64) {
	s := maxclique.NewSpace(g)
	p := maxclique.OptProblem()
	obj := p.Objective
	var visited, best atomic.Int64
	best.Store(-1)
	var mu sync.Mutex
	var nodesAtBest int64
	p.Objective = func(sp *maxclique.Space, n maxclique.Node) int64 {
		v := visited.Add(1)
		o := obj(sp, n)
		// The improvement test and the count store must be one atomic
		// step (a CAS-then-store lets a preempted loser overwrite the
		// final incumbent's count with a stale one); improvements are
		// rare, so the double-checked lock is off the hot path.
		if o > best.Load() {
			mu.Lock()
			if o > best.Load() {
				best.Store(o)
				nodesAtBest = v
			}
			mu.Unlock()
		}
		return o
	}
	w := benchWorkers()
	if w > 8 {
		w = 8
	}
	locs := 4
	if locs > w {
		locs = w
	}
	res := core.Opt(core.DepthBounded, s, maxclique.Root(s), p,
		core.Config{Workers: w, Localities: locs, DCutoff: 2, Order: ord})
	if !res.Found {
		b.Fatal("no clique found")
	}
	mu.Lock()
	defer mu.Unlock()
	return visited.Load(), nodesAtBest
}

func BenchmarkOrderedScheduling(b *testing.B) {
	g := table1Graph("p_hat300-3")
	for _, ord := range []core.Order{core.OrderNone, core.OrderDiscrepancy, core.OrderBound} {
		b.Run("maxclique/order="+ord.String(), func(b *testing.B) {
			var total, toInc int64
			for i := 0; i < b.N; i++ {
				tt, ti := orderedRun(b, g, ord)
				total += tt
				toInc += ti
			}
			b.ReportMetric(float64(total)/float64(b.N), "nodes/solve")
			b.ReportMetric(float64(toInc)/float64(b.N), "nodes-to-incumbent")
		})
	}
}

// ------------------------------------------------------------------
// Scale-out topology (Figure 4, revisited over real TCP): the same
// 4-locality maxclique deployment under the star topology (every steal
// crosses the hub) and the mesh topology (steals flow worker-to-worker,
// the hub keeps only registration, incumbents and aggregation), with
// and without an injected worker death. coordframes/op counts the
// frames the coordinator endpoint sent+received per solve — the star's
// scaling bottleneck, and the number the mesh exists to shrink; the
// mesh/star nofail ratio is gated by cmd/benchguard via
// BENCH_scaleout.json.

// scaleoutTransports brings up a real-TCP 1-coordinator + 3-worker
// deployment in process and returns the transports indexed by rank.
func scaleoutTransports(b *testing.B, topo string) []dist.Transport {
	b.Helper()
	opts := dist.WireOptions{Topology: topo}
	l, err := dist.NewListenerOpts("127.0.0.1:0", "scaleout", opts)
	if err != nil {
		b.Fatal(err)
	}
	trs := make([]dist.Transport, 4)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var derr error
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, err := dist.DialOpts(l.Addr(), "scaleout", opts)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				derr = err
				return
			}
			trs[tr.Rank()] = tr
		}()
	}
	coord, err := l.Wait(3)
	wg.Wait()
	if err != nil || derr != nil {
		b.Fatalf("scaleout deployment: %v / %v", err, derr)
	}
	trs[0] = coord
	return trs
}

// runScaleout executes one distributed maxclique solve and returns the
// coordinator endpoint's frame total (sent+received). With kill set, a
// worker's transport is severed mid-search; replay must still deliver
// the exact optimum at rank 0.
func runScaleout(b *testing.B, g *graph.Graph, topo string, kill bool, want int64) float64 {
	b.Helper()
	trs := scaleoutTransports(b, topo)
	defer func() {
		for _, tr := range trs {
			tr.Close()
		}
	}()
	s := maxclique.NewSpace(g)
	cfg := core.Config{Workers: 2, DCutoff: 2, MaxFailures: -1}
	results := make([]core.OptResult[maxclique.Node], 4)
	errs := make([]error, 4)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			results[r], errs[r] = core.DistOpt(trs[r], maxclique.Codec(), core.DepthBounded,
				s, maxclique.Root(s), maxclique.OptProblem(), cfg)
		}(r)
	}
	if kill {
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(60 * time.Millisecond)
			trs[2].Close() // severed mid-search; rank 2's engine errors out
		}()
	}
	wg.Wait()
	if errs[0] != nil {
		b.Fatalf("rank 0: %v", errs[0])
	}
	if !results[0].Found || results[0].Best.Clique.Count() != int(want) {
		b.Fatalf("clique size = %d (found=%v), want %d", results[0].Best.Clique.Count(), results[0].Found, want)
	}
	ws := trs[0].(dist.Meter).Wire()
	return float64(ws.FramesSent + ws.FramesRecv)
}

func BenchmarkScaleoutTopology(b *testing.B) {
	// Big enough that a 60ms-delayed kill lands mid-search, small
	// enough that a full star+mesh × nofail+death pass stays in seconds.
	g := graph.Random(130, 0.8, 42)
	best, _ := maxclique.SeqHandcoded(g)
	want := int64(best.Count())
	for _, tc := range []struct {
		name string
		topo string
	}{{"star", dist.TopologyStar}, {"mesh", dist.TopologyMesh}} {
		for _, kill := range []bool{false, true} {
			mode := "nofail"
			if kill {
				mode = "death"
			}
			b.Run(tc.name+"/"+mode, func(b *testing.B) {
				var frames float64
				for i := 0; i < b.N; i++ {
					frames += runScaleout(b, g, tc.topo, kill, want)
				}
				b.ReportMetric(frames/float64(b.N), "coordframes/op")
			})
		}
	}
}

// ------------------------------------------------------------------
// Coordinator failover (wire protocol v7): arming -standby makes the
// hub replicate its residual state (ledger hand-overs, bound stamps,
// death set, early gather shares) to the lowest worker rank, which
// promotes itself and finishes the search if the coordinator dies.
// The insurance premium is the extra kHubDelta/kHubSnap traffic on
// the coordinator's wire; the standby-on/standby-off ns/op ratio is
// gated by cmd/benchguard via BENCH_failover.json. The takeover arm
// (coordinator killed once it has exchanged takeoverKillFrames frames,
// result asserted at the promoted rank)
// is informational: it proves the bench measures a deployment that
// really can fail over, but its wall time includes the blackout and
// re-dial, which are latency floors, not throughput.

// takeoverKillFrames is how many frames the coordinator exchanges after
// Start before the takeover arm kills it: enough that the root has been
// handed over and steals and bounds are flowing, and a fraction of the
// 240-600 a whole solve exchanges — so the death is mid-search on a
// host of any speed, which a fixed delay was not (at 60 ms the solve
// had finished first in 3 runs of 6).
const takeoverKillFrames = 40

// failoverTransports brings up a real-TCP 1-coordinator + 3-worker
// star deployment in process with the given wire options.
func failoverTransports(b *testing.B, opts dist.WireOptions) []dist.Transport {
	b.Helper()
	l, err := dist.NewListenerOpts("127.0.0.1:0", "failover", opts)
	if err != nil {
		b.Fatal(err)
	}
	trs := make([]dist.Transport, 4)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var derr error
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, err := dist.DialOpts(l.Addr(), "failover", opts)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				derr = err
				return
			}
			trs[tr.Rank()] = tr
		}()
	}
	coord, err := l.Wait(3)
	wg.Wait()
	if err != nil || derr != nil {
		b.Fatalf("failover deployment: %v / %v", err, derr)
	}
	trs[0] = coord
	return trs
}

// runFailover executes one distributed maxclique solve and returns the
// coordinator endpoint's frame total. Both arms run rank 0 as a pure
// coordinator (core.Config.Standby) so their worker counts match and
// the standby-on/standby-off difference isolates the wire-level
// replication tax. With kill set, the coordinator's endpoint is closed
// mid-search and the exact optimum must come out of the promoted
// rank 1 instead.
func runFailover(b *testing.B, g *graph.Graph, wire dist.WireOptions, kill bool, want int64) float64 {
	b.Helper()
	trs := failoverTransports(b, wire)
	defer func() {
		for _, tr := range trs {
			tr.Close()
		}
	}()
	s := maxclique.NewSpace(g)
	cfg := core.Config{Workers: 2, DCutoff: 2, MaxFailures: -1, Standby: true}
	results := make([]core.OptResult[maxclique.Node], 4)
	errs := make([]error, 4)
	frames := func() int64 {
		ws := trs[0].Wire()
		return ws.FramesSent + ws.FramesRecv
	}
	start := frames()
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			results[r], errs[r] = core.DistOpt(trs[r], maxclique.Codec(), core.DepthBounded,
				s, maxclique.Root(s), maxclique.OptProblem(), cfg)
		}(r)
	}
	if kill {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for frames()-start < takeoverKillFrames {
				select {
				case <-trs[1].Done(): // the search outran the kill: the check below reports it
					return
				case <-time.After(100 * time.Microsecond):
				}
			}
			trs[0].Close() // the coordinator dies; rank 1 must take over
		}()
	}
	wg.Wait()
	reader := 0
	if kill {
		reader = 1
		if !trs[1].Promoted() {
			b.Fatal("rank 1 did not adopt the coordinator role")
		}
	}
	if errs[reader] != nil {
		b.Fatalf("rank %d: %v", reader, errs[reader])
	}
	if !results[reader].Found || results[reader].Best.Clique.Count() != int(want) {
		b.Fatalf("clique size = %d (found=%v), want %d",
			results[reader].Best.Clique.Count(), results[reader].Found, want)
	}
	return float64(frames())
}

func BenchmarkFailover(b *testing.B) {
	g := graph.Random(130, 0.8, 42)
	best, _ := maxclique.SeqHandcoded(g)
	want := int64(best.Count())
	for _, tc := range []struct {
		name string
		wire dist.WireOptions
		kill bool
	}{
		{"standby-off", dist.WireOptions{}, false},
		{"standby-on", dist.WireOptions{Standby: true}, false},
		{"takeover", dist.WireOptions{Standby: true}, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var frames float64
			for i := 0; i < b.N; i++ {
				frames += runFailover(b, g, tc.wire, tc.kill, want)
			}
			b.ReportMetric(frames/float64(b.N), "coordframes/op")
		})
	}
}

// ------------------------------------------------------------------
// Memory-bounded search (Config.PoolBudget): the per-locality memory
// accountant must cap the resident frontier — pressure-aware steal
// ranking, deepened cutoffs, and finally cold-bucket spill to disk —
// without changing the enumeration result, and must cost next to
// nothing when the frontier fits in RAM. The UTS binomial soak tree is
// the spawn-heavy stress case: the budget coordination floods the pool
// far past any sensible budget. poolpeak-B/op is the accountant's
// encoded-size estimate of the largest resident frontier (the proxy
// for peak pool RSS), spilled/op the tasks that crossed to disk.
// Budgets are derived from the measured unbounded peak: "fits-in-ram"
// (4x peak: accounting on, spill never fires — the overhead row),
// 1/4 and 1/16 of peak (the spill rows), plus the tentpole pairing of
// a tight budget under distributed stack stealing, where starved
// localities pull work via kSplit stack splits. The fits-in-ram
// ns/node tax (<= 1.10x) and the 1/16-budget peak (<= 0.5x unbounded)
// are gated by cmd/benchguard via BENCH_memory.json.
func BenchmarkMemoryBudget(b *testing.B) {
	utsS := &uts.Space{Shape: uts.Binomial, B0: 2000, M: 6, Q: 0.166, Seed: 401}
	w := benchWorkers()
	if w > 8 {
		w = 8
	}
	base := core.Config{Workers: w, Budget: 500}
	// One unbounded probe pins the oracle count and the peak the
	// budget rows are fractions of.
	wantNodes, probe := uts.Count(utsS, core.Budget, base)
	peak := probe.PoolPeakBytes
	if peak == 0 {
		b.Fatal("probe run recorded no pool peak")
	}

	run := func(b *testing.B, budget int64) {
		cfg := base
		cfg.PoolBudget = budget
		if budget > 0 {
			cfg.SpillDir = b.TempDir()
		}
		var nodes, peakSum, spilled int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			got, st := uts.Count(utsS, core.Budget, cfg)
			if got != wantNodes {
				b.Fatalf("count %d under budget %d, want %d", got, budget, wantNodes)
			}
			nodes += st.Nodes
			peakSum += st.PoolPeakBytes
			spilled += st.SpilledTasks
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodes), "ns/node")
		b.ReportMetric(float64(peakSum)/float64(b.N), "poolpeak-B/op")
		b.ReportMetric(float64(spilled)/float64(b.N), "spilled/op")
	}
	b.Run("uts/unbounded", func(b *testing.B) { run(b, 0) })
	b.Run("uts/fits-in-ram", func(b *testing.B) { run(b, peak*4) })
	b.Run("uts/budget=1of4", func(b *testing.B) { run(b, peak/4) })
	b.Run("uts/budget=1of16", func(b *testing.B) { run(b, peak/16) })

	// The tentpole pairing: the same tree under -skeleton stacksteal
	// -dist with a tight budget, over a 4-locality loopback deployment.
	b.Run("uts/stacksteal-dist-1of16", func(b *testing.B) {
		var nodes, peakSum, spilled int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net := dist.NewLoopback(4, dist.LoopbackOptions{})
			trs := net.Transports()
			cfg := core.Config{Workers: 2, PoolBudget: peak / 16, SpillDir: b.TempDir()}
			results := make([]core.EnumResult[int64], 4)
			errs := make([]error, 4)
			var wg sync.WaitGroup
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					results[r], errs[r] = core.DistEnum(trs[r], uts.Codec(), core.StackStealing,
						utsS, uts.Root(utsS), uts.CountProblem(), cfg)
				}(r)
			}
			wg.Wait()
			net.Close()
			for r, err := range errs {
				if err != nil {
					b.Fatalf("rank %d: %v", r, err)
				}
			}
			if results[0].Value != wantNodes {
				b.Fatalf("dist count %d, want %d", results[0].Value, wantNodes)
			}
			nodes += results[0].Stats.Nodes
			peakSum += results[0].Stats.PoolPeakBytes
			spilled += results[0].Stats.SpilledTasks
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodes), "ns/node")
		b.ReportMetric(float64(peakSum)/float64(b.N), "poolpeak-B/op")
		b.ReportMetric(float64(spilled)/float64(b.N), "spilled/op")
	})
}

// ------------------------------------------------------------------
// Wire protocol v2 throughput: how fast do stolen tasks cross a
// locality boundary, and at what protocol cost? The matrix covers the
// three v2 levers — transport (loopback hand-over vs real TCP), codec
// (self-describing gob vs compact hand-written), steal batching
// (1 task per round trip vs DefaultStealBatch) — with the gob/batch=1
// TCP row standing in for the PR 1 baseline protocol. frames/task and
// bytes/task are reported from the transport's Meter; see
// BENCH_transport.json for recorded numbers.

// benchVictim serves pre-stocked encoded tasks, like a locality with a
// deep backlog — including the v4 supervision work a real locality
// does per hand-over: minting an id, retaining the task in a ledger
// map, and retiring it when the thief's completion ack arrives. The
// no-failure cost of the supervised-task protocol is therefore inside
// the measured loop.
type benchVictim struct {
	mu        sync.Mutex
	supervise bool
	tasks     []dist.WireTask
	seq       uint64
	led       map[uint64]dist.WireTask
}

func (h *benchVictim) ServeSteal(thief int) (dist.WireTask, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.tasks) == 0 {
		return dist.WireTask{}, false
	}
	t := h.tasks[len(h.tasks)-1]
	h.tasks = h.tasks[:len(h.tasks)-1]
	if h.supervise {
		h.seq++
		t.ID = dist.TaskID(1, h.seq)
		if h.led == nil {
			h.led = make(map[uint64]dist.WireTask)
		}
		h.led[t.ID] = t
	}
	return t, true
}
func (h *benchVictim) OnBound(int, int64) {}
func (h *benchVictim) OnCancel(int)       {}
func (h *benchVictim) OnAck(_ int, id uint64) {
	h.mu.Lock()
	delete(h.led, id)
	h.mu.Unlock()
}
func (h *benchVictim) OnTask(t dist.WireTask) {
	h.mu.Lock()
	h.tasks = append(h.tasks, t)
	h.mu.Unlock()
}

// benchThief collects batch extras delivered through OnTask.
type benchThief struct {
	mu    sync.Mutex
	extra []dist.WireTask
}

func (h *benchThief) ServeSteal(int) (dist.WireTask, bool) { return dist.WireTask{}, false }
func (h *benchThief) OnBound(int, int64)                   {}
func (h *benchThief) OnCancel(int)                         {}
func (h *benchThief) OnAck(int, uint64)                    {}
func (h *benchThief) OnTask(t dist.WireTask) {
	h.mu.Lock()
	h.extra = append(h.extra, t)
	h.mu.Unlock()
}

func (h *benchThief) take() []dist.WireTask {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := h.extra
	h.extra = nil
	return out
}

// benchWalk samples count real nodes along random root-to-leaf walks.
func benchWalk[S, N any](space S, root N, gen core.GenFactory[S, N], count int) []N {
	rng := rand.New(rand.NewSource(99))
	nodes := []N{root}
	for len(nodes) < count {
		n := root
		for {
			nodes = append(nodes, n)
			g := gen(space, n)
			var kids []N
			for g.HasNext() {
				kids = append(kids, g.Next())
			}
			if len(kids) == 0 {
				break
			}
			n = kids[rng.Intn(len(kids))]
		}
	}
	return nodes[:count]
}

func benchTransportPair(b *testing.B, transport string, batch int) (thiefTr, victimTr dist.Transport, cleanup func()) {
	switch transport {
	case "loopback":
		net := dist.NewLoopback(2, dist.LoopbackOptions{})
		trs := net.Transports()
		return trs[0], trs[1], func() { net.Close() }
	case "tcp":
		l, err := dist.NewListenerOpts("127.0.0.1:0", "bench", dist.WireOptions{StealBatch: batch})
		if err != nil {
			b.Fatal(err)
		}
		var wtr dist.Transport
		var derr error
		done := make(chan struct{})
		go func() {
			defer close(done)
			wtr, derr = dist.Dial(l.Addr(), "bench")
		}()
		htr, err := l.Wait(1)
		<-done
		if err != nil || derr != nil {
			b.Fatalf("tcp pair: %v / %v", err, derr)
		}
		return htr, wtr, func() { htr.Close(); wtr.Close() }
	}
	panic("unknown transport")
}

func runTransportThroughput[N any](b *testing.B, transport string, batch int, codec core.Codec[N], nodes []N, supervise bool) {
	thiefTr, victimTr, cleanup := benchTransportPair(b, transport, batch)
	defer cleanup()
	victim := &benchVictim{supervise: supervise}
	thief := &benchThief{}
	thiefTr.Start(thief)
	victimTr.Start(victim)

	var before core.Stats
	meterInto := func(s *core.Stats) {
		for _, tr := range []dist.Transport{thiefTr, victimTr} {
			if m, ok := tr.(dist.Meter); ok {
				ws := m.Wire()
				s.Frames += ws.FramesSent
				s.WireBytes += ws.BytesSent
			}
		}
	}
	meterInto(&before)

	const tasksPerRound = 64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Victim encodes its backlog (as ServeSteal does on a real
		// locality), thief drains and decodes every stolen task.
		stock := make([]dist.WireTask, 0, tasksPerRound)
		for _, n := range nodes {
			bs, err := codec.EncodeTo(nil, n)
			if err != nil {
				b.Fatal(err)
			}
			stock = append(stock, dist.WireTask{Payload: bs, Depth: 1})
		}
		victim.mu.Lock()
		victim.tasks = stock
		victim.mu.Unlock()

		got := 0
		decode := func(ts ...dist.WireTask) {
			for _, wt := range ts {
				if _, err := codec.Decode(wt.Payload); err != nil {
					b.Fatal(err)
				}
				// Certify the subtree complete, as the engine does for
				// every received hand-over; the victim retires its
				// ledger copy when the (coalesced) ack lands.
				if wt.ID != 0 {
					thiefTr.Ack(1, wt.ID)
				}
				got++
			}
		}
		for got < tasksPerRound {
			wt, ok, err := thiefTr.Steal(1)
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				b.Fatal("victim ran dry early")
			}
			decode(wt)
			decode(thief.take()...)
		}
	}
	b.StopTimer()
	var after core.Stats
	meterInto(&after)
	total := float64(b.N * tasksPerRound)
	b.ReportMetric(float64(after.Frames-before.Frames)/total, "frames/task")
	b.ReportMetric(float64(after.WireBytes-before.WireBytes)/total, "bytes/task")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/task")
}

func BenchmarkTransportThroughput(b *testing.B) {
	cliqueSpace := maxclique.NewSpace(table1Graph("brock400_1"))
	cliqueNodes := benchWalk(cliqueSpace, maxclique.Root(cliqueSpace), maxclique.Gen, 64)
	knapSpace := knapsack.Generate(60, 10_000, knapsack.StronglyCorrelated, 7)
	knapNodes := benchWalk(knapSpace, knapsack.Root(knapSpace), knapsack.Gen, 64)

	type codecCase[N any] struct {
		name  string
		codec core.Codec[N]
	}
	cliqueCodecs := []codecCase[maxclique.Node]{
		{"gob", core.GobCodec[maxclique.Node]{}},
		{"compact", maxclique.Codec()},
	}
	knapCodecs := []codecCase[knapsack.Node]{
		{"gob", core.GobCodec[knapsack.Node]{}},
		{"compact", knapsack.Codec()},
	}
	for _, transport := range []string{"loopback", "tcp"} {
		batches := []int{1, dist.DefaultStealBatch}
		if transport == "loopback" {
			batches = batches[1:] // the in-process network has no option: it asks for the default
		}
		for _, batch := range batches {
			for _, cc := range cliqueCodecs {
				b.Run(fmt.Sprintf("%s/maxclique/%s/batch=%d", transport, cc.name, batch), func(b *testing.B) {
					runTransportThroughput(b, transport, batch, cc.codec, cliqueNodes, true)
				})
			}
			for _, cc := range knapCodecs {
				b.Run(fmt.Sprintf("%s/knapsack/%s/batch=%d", transport, cc.name, batch), func(b *testing.B) {
					runTransportThroughput(b, transport, batch, cc.codec, knapNodes, true)
				})
			}
		}
	}
	// The no-ledger ablation: the identical exchange with supervision
	// off (no id minting, no ledger retention, no completion acks).
	// The supervised/noledger ratio is the host-independent bound on
	// the fault-tolerance tax of the no-failure path, gated by
	// cmd/benchguard.
	b.Run(fmt.Sprintf("tcp/maxclique/compact/batch=%d/noledger", dist.DefaultStealBatch), func(b *testing.B) {
		runTransportThroughput(b, "tcp", dist.DefaultStealBatch, maxclique.Codec(), cliqueNodes, false)
	})
	b.Run(fmt.Sprintf("tcp/knapsack/compact/batch=%d/noledger", dist.DefaultStealBatch), func(b *testing.B) {
		runTransportThroughput(b, "tcp", dist.DefaultStealBatch, knapsack.Codec(), knapNodes, false)
	})
}

// ------------------------------------------------------------------
// Link-fault tolerance (wire protocol v8): every frame carries a
// sequence + CRC32C trailer, and arming -link-grace additionally puts
// a bounded retransmit log behind every connection so a severed link
// can resume instead of dying. The grace-on/grace-off ns/op ratio on a
// fault-free deployment is the session tax, gated by cmd/benchguard
// via BENCH_netfault.json. The partition arm (one worker cut for
// 200ms mid-search, result asserted with zero deaths) is
// informational: it proves the bench measures a deployment that
// really can resume, but its wall time includes the cut itself.

// runNetFault executes one distributed maxclique solve over a real-TCP
// star deployment and returns the summed session-resume count.
func runNetFault(b *testing.B, g *graph.Graph, wire dist.WireOptions, want int64) float64 {
	b.Helper()
	trs := failoverTransports(b, wire)
	defer func() {
		for _, tr := range trs {
			tr.Close()
		}
	}()
	s := maxclique.NewSpace(g)
	cfg := core.Config{Workers: 2, DCutoff: 2}
	results := make([]core.OptResult[maxclique.Node], 4)
	errs := make([]error, 4)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			results[r], errs[r] = core.DistOpt(trs[r], maxclique.Codec(), core.DepthBounded,
				s, maxclique.Root(s), maxclique.OptProblem(), cfg)
		}(r)
	}
	if wire.Fault != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(60 * time.Millisecond)
			wire.Fault.Partition([]int{2}, 200*time.Millisecond)
		}()
	}
	wg.Wait()
	if errs[0] != nil {
		b.Fatalf("rank 0: %v", errs[0])
	}
	if !results[0].Found || results[0].Best.Clique.Count() != int(want) {
		b.Fatalf("clique size = %d (found=%v), want %d",
			results[0].Best.Clique.Count(), results[0].Found, want)
	}
	if results[0].Stats.Deaths != 0 {
		b.Fatalf("deaths=%d on a sub-grace deployment", results[0].Stats.Deaths)
	}
	var resumes float64
	for _, tr := range trs {
		if m, ok := tr.(dist.Meter); ok {
			resumes += float64(m.Wire().Resumes)
		}
	}
	return resumes
}

func BenchmarkNetFault(b *testing.B) {
	g := graph.Random(130, 0.8, 42)
	best, _ := maxclique.SeqHandcoded(g)
	want := int64(best.Count())
	b.Run("grace-off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runNetFault(b, g, dist.WireOptions{}, want)
		}
	})
	b.Run("grace-on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runNetFault(b, g, dist.WireOptions{LinkGrace: 2 * time.Second}, want)
		}
	})
	b.Run("partition", func(b *testing.B) {
		var resumes float64
		for i := 0; i < b.N; i++ {
			resumes += runNetFault(b, g,
				dist.WireOptions{LinkGrace: 2 * time.Second, Fault: dist.NewFaultPlan(int64(i))}, want)
		}
		if resumes == 0 {
			b.Fatal("partition arm completed without a single session resume")
		}
		b.ReportMetric(resumes/float64(b.N), "resumes/op")
	})
}
