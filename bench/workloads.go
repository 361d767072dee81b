package main

import (
	"fmt"
	"sync"
	"time"

	"yewpar/internal/apps/knapsack"
	"yewpar/internal/apps/maxclique"
	"yewpar/internal/apps/uts"
	"yewpar/internal/core"
	"yewpar/internal/dist"
	"yewpar/internal/graph"
)

// searchWorkers is the worker count of every parallel arm, whatever
// the host: the benchmark compares commits, not machines, and a count
// that followed the host would make node counts and task counts
// incomparable between recordings.
const searchWorkers = 2

// workload is one row of the benchmark: how its instance is derived
// from the seed, which arm is measured and which is the reference it
// is judged against. Every solve is closed-loop with a single client:
// the next solve starts only when the previous one has returned.
type workload struct {
	name string
	why  string
	// refArm names the reference arm: the hand-coded solver (Table 1)
	// or the Sequential skeleton (Table 2, Figure 4).
	refArm string
	// measuredPerRef is how many measured solves run per reference
	// solve in the interleaved schedule.
	measuredPerRef int
	// workers is the number of search workers of the measured arm.
	workers int
	// countsNodes marks an enumeration whose answer is its node count,
	// so Stats.Nodes must equal the answer in every arm.
	countsNodes bool
	// exactNodes/exactSpawns declare counts that are independent of
	// the schedule and therefore must be identical in every solve.
	exactNodes, exactSpawns bool
	// generate derives the instance from the seed and builds its search
	// space. mini selects a miniature of the same family, pushed through
	// the same code path, for warm-up, probes and tests.
	generate func(seed int64, mini bool) instance
}

// instance is a generated input with its arms.
type instance interface {
	describe() string
	// deploy brings up the fabric the measured arm runs on (listen,
	// dial, registration); nil for in-process arms. One deployment
	// serves one solve.
	deploy() ([]dist.Transport, error)
	measured(trs []dist.Transport, traced bool, rec *recorder, parent int) (outcome, error)
	reference() (outcome, error)
}

// outcome is what one solve returned, as seen from outside the engine.
type outcome struct {
	answer      int64         // clique size, tree size or profit: what the oracle compares
	nodes       int64         // search nodes the arm reports
	wall        time.Duration // the entry-point call (at rank 0 for a deployment)
	stats       core.Stats
	coordFrames int64           // frames sent+received by the rank-0 endpoint
	tasks       []time.Duration // per-task execution times (traced solves only)
}

var workloads = []*workload{
	{
		name:           "clique_seq",
		why:            "Table 1: Sequential maxclique skeleton vs the hand-coded solver; all time in bitset kernels, generator and the sequential loop, pools/codec/wire idle",
		refArm:         "handcoded",
		measuredPerRef: 1,
		workers:        1,
		exactNodes:     true,
		generate: func(seed int64, mini bool) instance {
			n := 220
			if mini {
				n = 120
			}
			g := graph.Random(n, 0.75, seed+6)
			return &cliqueInst{g: g, s: maxclique.NewSpace(g)}
		},
	},
	{
		name:           "uts_par",
		why:            "Table 2, fine-grained: UTS enumeration, DepthBounded d=8, 2 workers in one locality; 0.76M tasks stress pool push/pop/rob and termination, no bounds, bitsets or wire",
		refArm:         "sequential",
		measuredPerRef: 3,
		workers:        searchWorkers,
		countsNodes:    true,
		exactNodes:     true,
		exactSpawns:    true,
		generate:       func(seed int64, mini bool) instance { return newUTS(seed, mini, false) },
	},
	{
		name:           "uts_tcp",
		why:            "Figure 4, wire-heavy: same UTS tree, Budget b=10000 over in-process TCP star, 2 localities x 1 worker; thousands of steals so RTT, codec, frames and acks set the time",
		refArm:         "sequential",
		measuredPerRef: 3,
		workers:        searchWorkers,
		countsNodes:    true,
		exactNodes:     true,
		generate:       func(seed int64, mini bool) instance { return newUTS(seed, mini, true) },
	},
	{
		name:           "knapsack_mesh",
		why:            "30 ns/node subset-sum knapsack, DepthBounded d=6 over in-process TCP mesh, 2 x 1: the per-node engine path is the cost, the wire carries only bounds and the termination wave",
		refArm:         "sequential",
		measuredPerRef: 3,
		workers:        searchWorkers,
		generate: func(seed int64, mini bool) instance {
			items := 29
			if mini {
				items = 18
			}
			return &knapInst{s: knapsack.Generate(items, 10_000, knapsack.SubsetSum, seed+102)}
		},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// ---- clique_seq --------------------------------------------------

type cliqueInst struct {
	g *graph.Graph
	s *maxclique.Space
}

func (c *cliqueInst) describe() string {
	return fmt.Sprintf("graph.Random(n=%d, p=0.75), %d edges", c.g.N, c.g.Edges())
}

func (c *cliqueInst) deploy() ([]dist.Transport, error) { return nil, nil }

func (c *cliqueInst) measured(_ []dist.Transport, traced bool, _ *recorder, _ int) (outcome, error) {
	traces := newTraces(traced, 1, 1)
	t0 := time.Now()
	res := core.Opt(core.Sequential, c.s, maxclique.Root(c.s), maxclique.OptProblem(), core.Config{Trace: traces[0]})
	o := outcome{wall: time.Since(t0), answer: int64(res.Best.Clique.Count()), nodes: res.Stats.Nodes, stats: res.Stats, tasks: taskTimes(traces)}
	if !res.Found || !c.g.IsClique(res.Best.Clique) {
		return o, fmt.Errorf("skeleton result is not a clique of the input graph")
	}
	return o, nil
}

func (c *cliqueInst) reference() (outcome, error) {
	t0 := time.Now()
	set, nodes := maxclique.SeqHandcoded(c.g)
	o := outcome{wall: time.Since(t0), answer: int64(set.Count()), nodes: nodes}
	if !c.g.IsClique(set) {
		return o, fmt.Errorf("hand-coded result is not a clique of the input graph")
	}
	return o, nil
}

// ---- uts_par, uts_tcp --------------------------------------------

type utsInst struct {
	sp  *uts.Space
	tcp bool
}

func newUTS(seed int64, mini, tcp bool) *utsInst {
	b0 := 100_000
	if mini {
		b0 = 400
	}
	return &utsInst{sp: &uts.Space{Shape: uts.Binomial, B0: b0, M: 6, Q: 0.165, Seed: seed}, tcp: tcp}
}

func (u *utsInst) describe() string {
	return fmt.Sprintf("uts binomial b0=%d m=%d q=%g", u.sp.B0, u.sp.M, u.sp.Q)
}

func (u *utsInst) deploy() ([]dist.Transport, error) {
	if !u.tcp {
		return nil, nil
	}
	return deployTCP("bench uts_tcp", dist.WireOptions{Topology: dist.TopologyStar})
}

func (u *utsInst) measured(trs []dist.Transport, traced bool, rec *recorder, parent int) (outcome, error) {
	root, p := uts.Root(u.sp), uts.CountProblem()
	if !u.tcp {
		traces := newTraces(traced, 1, searchWorkers)
		t0 := time.Now()
		res := core.Enum(core.DepthBounded, u.sp, root, p, core.Config{Workers: searchWorkers, DCutoff: 8, Trace: traces[0]})
		return outcome{wall: time.Since(t0), answer: res.Value, nodes: res.Stats.Nodes, stats: res.Stats, tasks: taskTimes(traces)}, nil
	}
	traces := newTraces(traced, len(trs), 1)
	o, err := runRanks(trs, rec, parent, func(r int) (int64, core.Stats, error) {
		res, err := core.DistEnum(trs[r], uts.Codec(), core.Budget, u.sp, root, p, core.Config{Workers: 1, Budget: 10_000, Trace: traces[r]})
		return res.Value, res.Stats, err
	})
	o.tasks = taskTimes(traces)
	return o, err
}

func (u *utsInst) reference() (outcome, error) {
	t0 := time.Now()
	res := core.Enum(core.Sequential, u.sp, uts.Root(u.sp), uts.CountProblem(), core.Config{})
	return outcome{wall: time.Since(t0), answer: res.Value, nodes: res.Stats.Nodes, stats: res.Stats}, nil
}

// ---- knapsack_mesh -----------------------------------------------

type knapInst struct{ s *knapsack.Space }

func (k *knapInst) describe() string {
	return fmt.Sprintf("knapsack subset-sum, %d items, capacity %d", len(k.s.Items), k.s.Cap)
}

func (k *knapInst) deploy() ([]dist.Transport, error) {
	return deployTCP("bench knapsack_mesh", dist.WireOptions{Topology: dist.TopologyMesh})
}

func (k *knapInst) measured(trs []dist.Transport, traced bool, rec *recorder, parent int) (outcome, error) {
	traces := newTraces(traced, len(trs), 1)
	o, err := runRanks(trs, rec, parent, func(r int) (int64, core.Stats, error) {
		cfg := core.Config{Workers: 1, DCutoff: 6, Topology: dist.TopologyMesh, Trace: traces[r]}
		res, err := core.DistOpt(trs[r], knapsack.Codec(), core.DepthBounded, k.s, knapsack.Root(k.s), knapsack.OptProblem(), cfg)
		return res.Objective, res.Stats, err
	})
	o.tasks = taskTimes(traces)
	return o, err
}

func (k *knapInst) reference() (outcome, error) {
	t0 := time.Now()
	res := core.Opt(core.Sequential, k.s, knapsack.Root(k.s), knapsack.OptProblem(), core.Config{})
	return outcome{wall: time.Since(t0), answer: res.Objective, nodes: res.Stats.Nodes, stats: res.Stats}, nil
}

// ---- fabric helpers ----------------------------------------------

// deployTCP brings up a real-TCP deployment of searchWorkers
// localities inside this process on 127.0.0.1: the coordinator listens,
// the other ranks dial and register. The returned transports are
// indexed by rank.
func deployTCP(spec string, opts dist.WireOptions) ([]dist.Transport, error) {
	opts.RegTimeout = 10 * time.Second
	l, err := dist.NewListenerOpts("127.0.0.1:0", spec, opts)
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	trs := make([]dist.Transport, searchWorkers)
	dialed := make(chan error, searchWorkers-1)
	var mu sync.Mutex
	for i := 1; i < searchWorkers; i++ {
		go func() {
			tr, err := dist.DialOpts(l.Addr(), spec, opts)
			if err == nil {
				mu.Lock()
				trs[tr.Rank()] = tr
				mu.Unlock()
			}
			dialed <- err
		}()
	}
	coord, err := l.Wait(searchWorkers - 1)
	if err != nil {
		// Unblocks dialers still retrying against the listener.
		_ = l.Close()
		err = fmt.Errorf("registration: %w", err)
	}
	for i := 1; i < searchWorkers; i++ {
		if derr := <-dialed; derr != nil && err == nil {
			err = fmt.Errorf("dial: %w", derr)
		}
	}
	trs[0] = coord
	if err != nil {
		closeAll(trs)
		return nil, err
	}
	return trs, nil
}

func closeAll(trs []dist.Transport) {
	for _, tr := range trs {
		if tr != nil {
			_ = tr.Close() // teardown of a finished solve: nothing to act on
		}
	}
}

// runRanks runs one Dist* call per rank concurrently, as the processes
// of a deployment would, and reports rank 0's view: its result, its
// aggregated stats and the wall time of its call.
func runRanks(trs []dist.Transport, rec *recorder, parent int, call func(rank int) (int64, core.Stats, error)) (outcome, error) {
	type result struct {
		answer int64
		stats  core.Stats
		wall   time.Duration
		err    error
	}
	out := make([]result, len(trs))
	var wg sync.WaitGroup
	for r := range trs {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			id := rec.begin(fmt.Sprintf("rank%d.dist_call", r), parent, 1+r)
			t0 := time.Now()
			a, st, err := call(r)
			out[r] = result{a, st, time.Since(t0), err}
			rec.end(id)
		}(r)
	}
	wg.Wait()
	o := outcome{answer: out[0].answer, nodes: out[0].stats.Nodes, wall: out[0].wall, stats: out[0].stats}
	if m, ok := trs[0].(dist.Meter); ok {
		ws := m.Wire()
		o.coordFrames = ws.FramesSent + ws.FramesRecv
	}
	for r := range out {
		if out[r].err != nil {
			return o, fmt.Errorf("rank %d: %w", r, out[r].err)
		}
	}
	return o, nil
}

// newTraces returns one core.Trace per locality when the solve is
// traced, and nil entries (tracing off) otherwise.
func newTraces(traced bool, localities, workersEach int) []*core.Trace {
	traces := make([]*core.Trace, localities)
	if traced {
		for i := range traces {
			traces[i] = core.NewTrace(workersEach)
		}
	}
	return traces
}

func taskTimes(traces []*core.Trace) []time.Duration {
	var ds []time.Duration
	for _, tr := range traces {
		if tr == nil {
			continue
		}
		for _, e := range tr.Events() {
			ds = append(ds, e.Duration())
		}
	}
	return ds
}
