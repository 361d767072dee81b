package yewpar

// Benchmarks of the mechanisms the reproduction adds to the paper's
// design, one section each, and the gates that hold their costs. The
// paper's own tables and figure (Table 1, Table 2, Figure 4, the
// link-latency ablation) are cmd/experiments, which CI smoke-runs.
//
// A BenchmarkGate… function judges itself (internal/gate): a count that
// repeats exactly is held on one run, a wall-clock tax over ten
// alternated pairs of its two arms. One pass runs them all:
//
//	go test -run xxx -bench . -benchtime 1x ./...

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
	"yewpar/internal/apps/uts"
	"yewpar/internal/core"
	"yewpar/internal/coretest"
	"yewpar/internal/dist"
	"yewpar/internal/gate"
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

func table1Graph(name string) *graph.Graph {
	for _, inst := range instances.Table1() {
		if inst.Name == name {
			return inst.Gen()
		}
	}
	panic("unknown instance " + name)
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

// ------------------------------------------------------------------
// Skeleton tax (Table 1, revisited per-node): the generic skeletons
// vs the hand-coded bitset solver, with generator recycling isolated
// (the norecycle row hides the generator's Reset behind
// coretest.FactoryOnly, so every expansion takes the factory path).
// ns/node and allocs/node are reported per search-tree node so instances
// of different sizes are comparable.

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

// skeletonTaxArms are the two sides of the paper's Table 1 criterion on
// one graph: solves solves by the hand-coded MCSa solver, and as many by
// the generic engine through the maxclique skeleton.
func skeletonTaxArms(g *graph.Graph, solves int) (handcoded, skeleton func() float64) {
	space := maxclique.NewSpace(g)
	p := maxclique.OptProblem()
	handcoded = gate.Seconds(func() {
		for i := 0; i < solves; i++ {
			maxclique.SeqHandcoded(g)
		}
	})
	skeleton = gate.Seconds(func() {
		for i := 0; i < solves; i++ {
			core.Opt(core.Sequential, space, maxclique.Root(space), p, core.Config{})
		}
	})
	return handcoded, skeleton
}

// skeletonTaxBound: the Sequential skeleton on p_hat300-3 within 1.5x of
// the hand-coded solver measured in the same pair (the paper's Table 1
// reads about 2.1x; here 1.05-1.12x since the fused bitset kernels).
const skeletonTaxBound = 1.5

func BenchmarkGateSkeletonTax(b *testing.B) {
	handcoded, skeleton := skeletonTaxArms(table1Graph("p_hat300-3"), 3)
	gate.Ratio(b, skeletonTaxBound, handcoded, skeleton)
}

// A gate must fail what it guards against: the skeleton arm made to solve
// three times for the hand-coded arm's once — twice the bound — through
// the gate's own judge (testing.Benchmark reports a failed benchmark as
// zero runs). A small graph: what is tested is the verdict.
func TestSkeletonTaxGateFailsASlowedArm(t *testing.T) {
	handcoded, skeleton := skeletonTaxArms(graph.Random(100, 0.7, 3), 1)
	slowed := func() float64 { return skeleton() + skeleton() + skeleton() }
	res := testing.Benchmark(func(b *testing.B) { gate.Ratio(b, skeletonTaxBound, handcoded, slowed) })
	if res.N != 0 {
		t.Errorf("a skeleton arm at twice the gate's bound passed it: %v %v", res, res.Extra)
	}
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
// b=10000 on a two-rank TCP deployment over 127.0.0.1, one worker a rank, a
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
		coord, worker, cleanup := benchTransportPair(b, "tcp")
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
// needs real cores.
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
// final incumbent was installed — is exact and race-free.

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
// Four ranks over real TCP on 127.0.0.1 — a coordinator and three
// workers in one process — solving one maxclique instance: the
// deployment the scale-out, failover and link-fault sections below all
// measure, each under its own wire options.

// deployInstance is big enough that a kill or a cut a few dozen frames
// in lands mid-search, small enough that a solve takes tens of
// milliseconds.
func deployInstance() (g *graph.Graph, want int) {
	g = graph.Random(130, 0.8, 42)
	best, _ := maxclique.SeqHandcoded(g)
	return g, best.Count()
}

// midSearchFrames is how many frames the coordinator exchanges after
// Start before a chaos arm strikes: enough that the root has been
// handed over and steals and bounds are flowing, and a fraction of the
// 240-600 a whole solve exchanges — so the strike is mid-search on a
// host of any speed, which a fixed delay is not (at 60 ms the solve had
// finished first in 3 runs of 6).
const midSearchFrames = 40

// deployTCP brings up the deployment and returns the transports indexed
// by rank.
func deployTCP(b *testing.B, opts dist.WireOptions) []dist.Transport {
	b.Helper()
	l, err := dist.NewListenerOpts("127.0.0.1:0", "bench", opts)
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
			tr, err := dist.DialOpts(l.Addr(), "bench", opts)
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
		b.Fatalf("deployment: %v / %v", err, derr)
	}
	trs[0] = coord
	return trs
}

// deployed is what one solve on the deployment leaves to read.
type deployed struct {
	coordFrames float64 // frames the coordinator endpoint sent and received
	resumes     float64 // session resumes, all ranks
	deaths      int64   // ranks mourned
	promoted    bool    // rank 1 took the coordinator role over
}

// solveDeployed runs one distributed maxclique solve and checks the
// optimum where the report comes out: at rank 0, or at the promoted
// rank 1 when strike closed rank 0. strike, if any, is called once the
// coordinator has exchanged midSearchFrames frames, with the transports.
// With coordOnly rank 0 runs no workers, as it does under a standby.
func solveDeployed(b *testing.B, g *graph.Graph, want int, wire dist.WireOptions, cfg core.Config, coordOnly bool, strike func(trs []dist.Transport)) deployed {
	b.Helper()
	trs := deployTCP(b, wire)
	defer func() {
		for _, tr := range trs {
			tr.Close()
		}
	}()
	s := maxclique.NewSpace(g)
	cfg.Workers, cfg.DCutoff = 2, 2
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
		tr := trs[r]
		if r == 0 && coordOnly {
			tr = pureCoordinator{tr}
		}
		go func() {
			defer wg.Done()
			results[r], errs[r] = core.DistOpt(tr, maxclique.Codec(), core.DepthBounded,
				s, maxclique.Root(s), maxclique.OptProblem(), cfg)
		}()
	}
	if strike != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for frames()-start < midSearchFrames {
				select {
				case <-trs[1].Done(): // the search outran the strike: the caller's check reports it
					return
				case <-time.After(100 * time.Microsecond):
				}
			}
			strike(trs)
		}()
	}
	wg.Wait()
	reader := 0
	if trs[1].Promoted() {
		reader = 1
	}
	if errs[reader] != nil {
		b.Fatalf("rank %d: %v", reader, errs[reader])
	}
	if res := results[reader]; !res.Found || res.Best.Clique.Count() != want {
		b.Fatalf("clique size = %d (found=%v), want %d", res.Best.Clique.Count(), res.Found, want)
	}
	d := deployed{coordFrames: float64(frames()), deaths: results[reader].Stats.Deaths, promoted: reader == 1}
	for _, tr := range trs {
		d.resumes += float64(tr.Wire().Resumes)
	}
	return d
}

// pureCoordinator is a rank 0 that runs no workers without arming
// failover: the engine asks its transport (dist.Transport's Standby).
type pureCoordinator struct{ dist.Transport }

func (pureCoordinator) Standby() bool { return true }

// ------------------------------------------------------------------
// Scale-out (Figure 4, revisited over real TCP). coordframes/op counts
// the frames the coordinator endpoint sent+received per solve; steals
// flow worker-to-worker and never cross it (the dist package's
// TestMeshDirectStealConservation holds that).

// BenchmarkScaleoutDeath severs a worker's transport mid-search; replay
// must still deliver the exact optimum at rank 0. Informational: what a
// death costs in coordinator frames.
func BenchmarkScaleoutDeath(b *testing.B) {
	g, want := deployInstance()
	var frames float64
	for i := 0; i < b.N; i++ {
		frames += solveDeployed(b, g, want, dist.WireOptions{}, core.Config{MaxFailures: -1}, false,
			func(trs []dist.Transport) { trs[2].Close() }).coordFrames
	}
	b.ReportMetric(frames/float64(b.N), "coordframes/op")
}

// ------------------------------------------------------------------
// Coordinator failover (wire protocol v7): arming -standby makes the
// hub replicate its residual state (the root's holder and the
// incumbent) to the lowest worker rank, which promotes itself and
// finishes the search if the coordinator dies.
// The insurance premium is the kHubSnap traffic on the coordinator's
// wire: at most one snapshot per flush quantum, none while nothing
// changes.

// deployedSolves is a wall-clock arm: three solves on the deployment
// under the given wire options, bring-up included (that is where
// sessions are minted and the standby is told it is one), rank 0 running
// no workers with coordOnly.
func deployedSolves(b *testing.B, wire dist.WireOptions, cfg core.Config, coordOnly bool) func() float64 {
	g, want := deployInstance()
	return gate.Seconds(func() {
		for i := 0; i < 3; i++ {
			solveDeployed(b, g, want, wire, cfg, coordOnly, nil)
		}
	})
}

// BenchmarkGateStandbyTax: with -standby armed and nothing failing, the
// replication must cost at most 1.10x the identical deployment
// without it. Both arms run rank 0 as a pure coordinator (the standby
// arm because its transport says so, the other through pureCoordinator)
// so their worker counts match and the difference isolates the
// wire-level replication. The reference arm against
// itself reads 0.82-1.19 over ten pairs (a solve takes 44-69 ms by how
// many steals it happened to need), so one reading against 1.10 was a
// coin; nine pairs of ten over it are not, and are what a tax from about
// 1.3x produces. The same holds for the link-grace gate below.
func BenchmarkGateStandbyTax(b *testing.B) {
	cfg := core.Config{MaxFailures: -1}
	gate.Ratio(b, 1.10, deployedSolves(b, dist.WireOptions{}, cfg, true), deployedSolves(b, dist.WireOptions{Standby: true}, cfg, false))
}

// BenchmarkFailoverTakeover kills the coordinator mid-search; the exact
// optimum must come out of the promoted rank 1. Informational: it shows
// the gate above measures a deployment that really can fail over, but
// its wall time includes the blackout and re-dial, which are latency
// floors, not throughput.
func BenchmarkFailoverTakeover(b *testing.B) {
	g, want := deployInstance()
	for i := 0; i < b.N; i++ {
		d := solveDeployed(b, g, want, dist.WireOptions{Standby: true}, core.Config{MaxFailures: -1}, false,
			func(trs []dist.Transport) { trs[0].Close() })
		if !d.promoted {
			b.Fatal("rank 1 did not adopt the coordinator role")
		}
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
// Budgets are fractions of the measured unbounded peak.

// budgetProbe is the soak tree under the Budget coordination, with what
// one unbounded solve of it measured: the oracle count, and the resident
// peak the budgets are fractions of.
type budgetProbe struct {
	space       *uts.Space
	base        core.Config
	nodes, peak int64
}

func probeBudget(b *testing.B) budgetProbe {
	p := budgetProbe{
		space: &uts.Space{Shape: uts.Binomial, B0: 2000, M: 6, Q: 0.166, Seed: 401},
		base:  core.Config{Workers: min(benchWorkers(), 8), Budget: 500},
	}
	var st core.Stats
	p.nodes, st = uts.Count(p.space, core.Budget, p.base)
	if p.peak = st.PoolPeakBytes; p.peak == 0 {
		b.Fatal("probe run recorded no pool peak")
	}
	return p
}

// solve counts the tree under a pool budget (0: unbounded) and checks
// the count: spilling must not change the result.
func (p budgetProbe) solve(b *testing.B, budget int64) core.Stats {
	cfg := p.base
	cfg.PoolBudget = budget
	if budget > 0 {
		cfg.SpillDir = b.TempDir()
	}
	got, st := uts.Count(p.space, core.Budget, cfg)
	if got != p.nodes {
		b.Fatalf("count %d under budget %d, want %d", got, budget, p.nodes)
	}
	return st
}

// BenchmarkGatePoolBudget holds both halves of the budget's promise. A
// 1/16 budget keeps the resident frontier at or under half the unbounded
// peak (it measures 1/16; the accountant's peak is a count of bytes, so
// one reading decides). And with the frontier fitting in RAM (a budget
// of four times the peak: accounting on, spill never fires) a node costs
// at most 1.10x what it does on the unbounded engine.
func BenchmarkGatePoolBudget(b *testing.B) {
	p := probeBudget(b)
	b.Run("peak-1of16", func(b *testing.B) {
		got := p.solve(b, p.peak/16).PoolPeakBytes
		b.ReportMetric(float64(got)/float64(p.peak), "of-unbounded-peak")
		if 2*got > p.peak {
			b.Fatalf("resident peak %d B under a 1/16 budget, unbounded %d B: want at most half", got, p.peak)
		}
	})
	b.Run("accounting-tax", func(b *testing.B) {
		gate.Ratio(b, 1.10, gate.Seconds(func() { p.solve(b, 0) }), gate.Seconds(func() { p.solve(b, 4*p.peak) }))
	})
}

// BenchmarkMemoryBudget is the informational half: what the spill rows
// (1/4 and 1/16 of the peak) cost in ns/node against the unbounded row,
// and the pairing of a tight budget with distributed stack stealing,
// where a starved locality's steal waits for a running worker's shed.
func BenchmarkMemoryBudget(b *testing.B) {
	p := probeBudget(b)
	report := func(b *testing.B, run func() core.Stats) {
		var nodes, peakSum, spilled int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st := run()
			nodes += st.Nodes
			peakSum += st.PoolPeakBytes
			spilled += st.SpilledTasks
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodes), "ns/node")
		b.ReportMetric(float64(peakSum)/float64(b.N), "poolpeak-B/op")
		b.ReportMetric(float64(spilled)/float64(b.N), "spilled/op")
	}
	for _, row := range []struct {
		name   string
		budget int64
	}{{"unbounded", 0}, {"budget=1of4", p.peak / 4}, {"budget=1of16", p.peak / 16}} {
		b.Run("uts/"+row.name, func(b *testing.B) {
			report(b, func() core.Stats { return p.solve(b, row.budget) })
		})
	}

	// The same tree under -skeleton stacksteal -dist with a tight budget,
	// over a 4-rank in-process TCP deployment.
	b.Run("uts/stacksteal-dist-1of16", func(b *testing.B) {
		report(b, func() core.Stats {
			trs := deployTCP(b, dist.WireOptions{})
			cfg := core.Config{Workers: 2, PoolBudget: p.peak / 16, SpillDir: b.TempDir()}
			results := make([]core.EnumResult[int64], 4)
			errs := make([]error, 4)
			var wg sync.WaitGroup
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					results[r], errs[r] = core.DistEnum(trs[r], uts.Codec(), core.StackStealing,
						p.space, uts.Root(p.space), uts.CountProblem(), cfg)
				}()
			}
			wg.Wait()
			for _, tr := range trs {
				tr.Close()
			}
			for r, err := range errs {
				if err != nil {
					b.Fatalf("rank %d: %v", r, err)
				}
			}
			if results[0].Value != p.nodes {
				b.Fatalf("dist count %d, want %d", results[0].Value, p.nodes)
			}
			return results[0].Stats
		})
	})
}

// ------------------------------------------------------------------
// Steal throughput: how fast do stolen tasks cross a locality boundary,
// and at what protocol cost? Two transports (loopback hand-over, real
// TCP) by two applications' compact codecs, a steal taking the default
// run; frames/task and bytes/task are read from the transport's Meter.
// (The gob codec and one task per round trip, the PR 1 protocol these
// rows were once compared with, have no caller left to measure for.)

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

func benchTransportPair(b *testing.B, transport string) (thiefTr, victimTr dist.Transport, cleanup func()) {
	switch transport {
	case "loopback":
		net := dist.NewLoopback(2, dist.LoopbackOptions{})
		trs := net.Transports()
		return trs[0], trs[1], func() { net.Close() }
	case "tcp":
		l, err := dist.NewListener("127.0.0.1:0", "bench")
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

// perTask is what the exchange cost per stolen task.
type perTask struct{ ns, frames, bytes float64 }

// stealRounds runs rounds rounds of the exchange: in each, the victim
// encodes a 64-task backlog (as ServeSteal does on a real locality) and
// the thief drains and decodes every stolen task. With supervise the
// victim mints an id per hand-over and retains the task in its ledger
// until the thief's completion ack retires it.
func stealRounds[N any](b *testing.B, transport string, codec core.Codec[N], nodes []N, supervise bool, rounds int) perTask {
	thiefTr, victimTr, cleanup := benchTransportPair(b, transport)
	defer cleanup()
	victim := &benchVictim{supervise: supervise}
	thief := &benchThief{}
	thiefTr.Start(thief)
	victimTr.Start(victim)

	meter := func() (frames, bytes int64) {
		for _, tr := range []dist.Transport{thiefTr, victimTr} {
			ws := tr.Wire()
			frames += ws.FramesSent
			bytes += ws.BytesSent
		}
		return frames, bytes
	}
	frames0, bytes0 := meter()

	const tasksPerRound = 64
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < rounds; i++ {
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
	elapsed := time.Since(start)
	frames1, bytes1 := meter()
	total := float64(rounds * tasksPerRound)
	return perTask{float64(elapsed.Nanoseconds()) / total, float64(frames1-frames0) / total, float64(bytes1-bytes0) / total}
}

// stealNodes samples 64 real nodes of each application the throughput
// rows and the ledger gate exchange.
func stealNodes() ([]maxclique.Node, []knapsack.Node) {
	cliqueSpace := maxclique.NewSpace(table1Graph("brock400_1"))
	knapSpace := knapsack.Generate(60, 10_000, knapsack.StronglyCorrelated, 7)
	return benchWalk(cliqueSpace, maxclique.Root(cliqueSpace), maxclique.Gen, 64),
		benchWalk(knapSpace, knapsack.Root(knapSpace), knapsack.Gen, 64)
}

func BenchmarkTransportThroughput(b *testing.B) {
	cliqueNodes, knapNodes := stealNodes()
	report := func(b *testing.B, t perTask) {
		b.ReportMetric(t.frames, "frames/task")
		b.ReportMetric(t.bytes, "bytes/task")
		b.ReportMetric(t.ns, "ns/task")
	}
	for _, transport := range []string{"loopback", "tcp"} {
		b.Run(transport+"/maxclique", func(b *testing.B) {
			report(b, stealRounds(b, transport, maxclique.Codec(), cliqueNodes, true, b.N))
		})
		b.Run(transport+"/knapsack", func(b *testing.B) {
			report(b, stealRounds(b, transport, knapsack.Codec(), knapNodes, true, b.N))
		})
	}
}

// ledgerTaxBound: supervision may cost at most as much again as the
// exchange it rides on. It reads 1.0-1.3x (0.3-0.8 us of id, ledger
// insert and delete, and ack on a 2 us task), and sixty pairs on
// unchanged code lay between 0.80 and 1.63, the reference arm against
// itself between 0.73 and 1.23: 2.0 is over every one of them and under
// what a ledger that stopped being O(1) per task would read. (At 300
// rounds an arm the pairs spread to 0.59-2.16, and the 3.0 that spread
// needed admitted a supervision cost eight times today's.)
const ledgerTaxBound = 2.0

// BenchmarkGateLedgerTax bounds what supervision costs when nothing
// fails: 1,000 rounds of the TCP exchange under the ledger (id minting,
// retention, completion acks) against the identical 1,000 without it,
// per application.
func BenchmarkGateLedgerTax(b *testing.B) {
	cliqueNodes, knapNodes := stealNodes()
	b.Run("maxclique", func(b *testing.B) { ledgerTaxGate(b, maxclique.Codec(), cliqueNodes) })
	b.Run("knapsack", func(b *testing.B) { ledgerTaxGate(b, knapsack.Codec(), knapNodes) })
}

func ledgerTaxGate[N any](b *testing.B, codec core.Codec[N], nodes []N) {
	arm := func(supervise bool) func() float64 {
		return func() float64 { return stealRounds(b, "tcp", codec, nodes, supervise, 1000).ns }
	}
	gate.Ratio(b, ledgerTaxBound, arm(false), arm(true))
}

// ------------------------------------------------------------------
// Link-fault tolerance (wire protocol v8): every frame carries a
// sequence + CRC32C trailer, and arming -link-grace additionally puts
// a bounded retransmit log behind every connection so a severed link
// can resume instead of dying.

// BenchmarkGateLinkGraceTax: arming -link-grace (session minting,
// per-connection retransmit logs, resume-capable readers) on a
// fault-free deployment must cost at most 1.10x the identical
// deployment with grace zero.
func BenchmarkGateLinkGraceTax(b *testing.B) {
	gate.Ratio(b, 1.10, deployedSolves(b, dist.WireOptions{}, core.Config{}, false),
		deployedSolves(b, dist.WireOptions{LinkGrace: 2 * time.Second}, core.Config{}, false))
}

// BenchmarkNetFaultPartition cuts one worker off for 200 ms mid-search;
// the optimum must come out with zero deaths and at least one session
// resume. Informational: it shows the gate above measures a deployment
// that really can resume, but its wall time includes the cut itself.
func BenchmarkNetFaultPartition(b *testing.B) {
	g, want := deployInstance()
	var resumes float64
	for i := 0; i < b.N; i++ {
		plan := dist.NewFaultPlan(int64(i))
		d := solveDeployed(b, g, want, dist.WireOptions{LinkGrace: 2 * time.Second, Fault: plan}, core.Config{}, false,
			func([]dist.Transport) { plan.Partition([]int{2}, 200*time.Millisecond) })
		if d.deaths != 0 {
			b.Fatalf("deaths=%d on a cut shorter than the grace", d.deaths)
		}
		resumes += d.resumes
	}
	if resumes == 0 {
		b.Fatal("partition arm completed without a single session resume")
	}
	b.ReportMetric(resumes/float64(b.N), "resumes/op")
}
