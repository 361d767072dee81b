package core

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"yewpar/internal/dist"
	"yewpar/internal/semantics"
)

// The package's deployments are built here and nowhere else, and so are
// dist's: its conformance suite holds the transport contract case by
// case, these rows whole searches over it. A scenario is one row of a
// table: a tree, a search type, a coordination and its knobs, one to four
// localities, and what goes wrong: link latency, a
// partition that heals, localities killed. run deploys it — every rank's
// Dist* on one in-process TCP network, so that every fault runs on the
// one endpoint, or the single-process entry point, on loopback
// localities, when there is one process — and holds it to one set of
// invariants:
//
//   - the answer is the oracle's: the tree's own fold and maximum for a
//     semantics tree, which the operational model (semantics.Config.Run)
//     computes too, Sequential's otherwise; unkilled, an enumeration visits
//     exactly every node, and so does an optimisation that prunes nothing;
//   - no rank's contribution to the live count is ever negative
//     (liveAudit; in-process localities: TestLiveCountNeverEarly);
//   - every locality not killed is quiescent once its workers join
//     (Config.exit);
//   - no spill file and no goroutine outlives the run;
//   - Deaths counts the kills that landed and a live rank rank 0 mourned,
//     whose call errs with dist.ErrMourned; the result comes from the
//     promoted rank exactly when rank 0 was killed, and the call errs
//     exactly when the failure budget says so;
//   - every rank's call returns within a deadline: a hang fails its row,
//     by name, not the package.
//
// The hand-written cases are named rows, each test holding its own, a
// row of several processes also run as one process on loopback
// localities; TestDrawn draws the rest from consecutive seeds.

// searchKind is a row's search type.
type searchKind int

const (
	enumerate searchKind = iota
	optimise
	decide
)

func (k searchKind) String() string { return [...]string{"enum", "opt", "decide"}[k] }

// outcome is one rank's answer, its node type erased: the fold, or the
// objective reported with the optimum or witness and that node's own.
type outcome struct {
	val, node int64
	found     bool
	stats     Stats
	err       error
}

// tree is what a row searches, whatever its node type.
type tree interface {
	// solve runs one rank's search over tr, or the single-process entry
	// point when tr is nil: search, which every Dist* and entry point is.
	solve(tr dist.Transport, sc *scenario, cfg Config) outcome
	// truth is the oracle: the fold (enumerate) or the maximum, and the size.
	truth(k searchKind) (val, nodes int64)
	// model checks the operational model's answer on a semantics tree.
	model(sc *scenario) error
}

// searchTree is a tree over space S with nodes N. Decision searches its
// optimisation problem for a target.
type searchTree[S, N any] struct {
	label string
	space S
	root  N
	enum  EnumProblem[S, N, int64]
	opt   OptProblem[S, N]
	sem   *semantics.Tree // the same tree, when it is a semantics one

	once           sync.Once
	sum, max, size int64    // the tree's own, or Sequential's
	models         sync.Map // [2]int64{kind, target} → the model's answer
}

func (st *searchTree[S, N]) String() string { return st.label }

func (st *searchTree[S, N]) truth(k searchKind) (int64, int64) {
	st.once.Do(func() {
		if t := st.sem; t != nil {
			st.sum, st.max, st.size = int64(t.Sum()), int64(t.Max()), int64(t.Size())
			return
		}
		r := Enum(Sequential, st.space, st.root, st.enum, Config{})
		st.sum, st.size = r.Value, r.Stats.Nodes
		st.max = Opt(Sequential, st.space, st.root, st.opt, Config{}).Objective
	})
	if k == enumerate {
		return st.sum, st.size
	}
	return st.max, st.size
}

func (st *searchTree[S, N]) model(sc *scenario) error {
	t := st.sem
	if t == nil {
		return nil
	}
	key := [2]int64{int64(sc.search), sc.target}
	got, ok := st.models.Load(key)
	if !ok {
		kind := [...]semantics.Kind{semantics.Enumeration, semantics.Optimisation, semantics.Decision}[sc.search]
		c := semantics.NewConfig(t, kind, int(sc.target), 1+int(sc.cfg.Seed&3))
		c.Run(sc.cfg.Seed, semantics.Params{DCutoff: 2, KBudget: 2}, nil, 60*t.Size()*t.Size()+2000)
		got, _ = st.models.LoadOrStore(key, int64(c.Result()))
	}
	want, _ := st.truth(sc.search)
	if sc.search == decide {
		want = min(want, sc.target)
	}
	if got != want {
		return fmt.Errorf("the operational model computes %d on %v, the tree %d", got, st, want)
	}
	return nil
}

func (st *searchTree[S, N]) solve(tr dist.Transport, sc *scenario, cfg Config) outcome {
	codec, obj := GobCodec[N]{}, func(n N) int64 { return st.opt.Objective(st.space, n) }
	switch sc.search {
	case enumerate:
		r, err := search(tr, codec, sc.coord, st.space, st.root, enumeration(st.space, st.enum), cfg)
		return outcome{val: r.Value, found: true, stats: r.Stats, err: err}
	case optimise:
		r, err := search(tr, codec, sc.coord, st.space, st.root, optimisation(st.space, st.opt), cfg)
		return outcome{val: r.Objective, node: obj(r.Best), found: r.Found, stats: r.Stats, err: err}
	}
	p := DecisionProblem[S, N]{Gen: st.opt.Gen, Objective: st.opt.Objective, Bound: st.opt.Bound, PruneLevel: st.opt.PruneLevel, Target: sc.target}
	r, err := search(tr, codec, sc.coord, st.space, st.root, decision(st.space, p), cfg)
	return outcome{val: r.Objective, node: obj(r.Witness), found: r.Found, stats: r.Stats, err: err}
}

// Search problems over a semantics.Tree, the one random tree of the
// package's tests: a node is its path, h its objective, and the subtree
// maximum its admissible bound.

func treeGen(t *semantics.Tree, parent string) NodeGenerator[string] {
	return NewSliceGen(t.Children[parent])
}

func hOf(t *semantics.Tree, n string) int64 { return int64(t.H[n]) }

func enumProblem() EnumProblem[*semantics.Tree, string, int64] {
	return EnumProblem[*semantics.Tree, string, int64]{Gen: treeGen, Objective: hOf, Monoid: SumInt64{}}
}

func optProblem(withBound bool) OptProblem[*semantics.Tree, string] {
	p := OptProblem[*semantics.Tree, string]{Gen: treeGen, Objective: hOf}
	if withBound {
		p.Bound = func(t *semantics.Tree, n string) int64 { return int64(t.SubtreeMax(n)) }
	}
	return p
}

func decisionProblem(target int64, withBound bool) DecisionProblem[*semantics.Tree, string] {
	p := optProblem(withBound)
	return DecisionProblem[*semantics.Tree, string]{Gen: p.Gen, Objective: p.Objective, Bound: p.Bound, Target: target}
}

// sortByBound reorders every child list by non-increasing subtree
// maximum, establishing the sibling-order precondition of PruneLevel.
func sortByBound(t *semantics.Tree) {
	for id, kids := range t.Children {
		t.Children[id] = slices.SortedStableFunc(slices.Values(kids), func(a, b string) int { return t.SubtreeMax(b) - t.SubtreeMax(a) })
	}
}

// chainTree is a unary tree of n nodes valued 0..n-1, and wideTree n
// leaves valued i%997 under a root valued 0: the degenerate shapes
// GenTree never draws.
func chainTree(n int) *semantics.Tree {
	t := &semantics.Tree{Children: map[string][]string{}, H: map[string]int{}}
	for i, id := 0, ""; i < n; i, id = i+1, id+"a" {
		if t.H[id] = i; i < n-1 {
			t.Children[id] = []string{id + "a"}
		}
	}
	return t
}

func wideTree(n int) *semantics.Tree {
	t := &semantics.Tree{Children: map[string][]string{}, H: map[string]int{"": 0}}
	for i := 0; i < n; i++ {
		id := string(rune(33+i%90)) + string(rune('0'+i/90))
		t.Children[""] = append(t.Children[""], id)
		t.H[id] = i % 997
	}
	return t
}

// treeOf is t as a row searches it, bounded by subtree maxima or not.
func treeOf(label string, t *semantics.Tree, bounded bool) *searchTree[*semantics.Tree, string] {
	return &searchTree[*semantics.Tree, string]{label: label, space: t, enum: enumProblem(), opt: optProblem(bounded), sem: t}
}

func semTree(seed int64, maxBranch, maxDepth int) *searchTree[*semantics.Tree, string] {
	return treeOf(fmt.Sprintf("GenTree(%d, %d, %d)", seed, maxBranch, maxDepth), semantics.GenTree(seed, maxBranch, maxDepth), true)
}

// toySpace is a subset sum: a node adds one of the values after its
// position, its objective is the sum so far, and enumeration counts.
type toySpace struct{ Vals []int64 }

type toyNode struct {
	Pos int
	Sum int64
}

func toyGen(s toySpace, p toyNode) NodeGenerator[toyNode] {
	var children []toyNode
	for i := p.Pos; i < len(s.Vals); i++ {
		children = append(children, toyNode{Pos: i + 1, Sum: p.Sum + s.Vals[i]})
	}
	return NewSliceGen(children)
}

func toyTree(label string, vals []int64, bounded bool) *searchTree[toySpace, toyNode] {
	p := OptProblem[toySpace, toyNode]{Gen: toyGen, Objective: func(_ toySpace, n toyNode) int64 { return n.Sum }}
	if bounded {
		// The current sum plus every positive value still choosable.
		p.Bound = func(s toySpace, n toyNode) int64 {
			b := n.Sum
			for _, v := range s.Vals[n.Pos:] {
				b += max(v, 0)
			}
			return b
		}
	}
	return &searchTree[toySpace, toyNode]{label: label, space: toySpace{vals}, opt: p,
		enum: EnumProblem[toySpace, toyNode, int64]{Gen: toyGen, Objective: func(toySpace, toyNode) int64 { return 1 }, Monoid: SumInt64{}}}
}

// toy12 is small enough to finish before most steals land; fault
// (2^22 nodes, no bound, so nothing prunes) keeps every rank holding live
// work for most of the run, so a kill lands mid-search.
var (
	toy12 = toyTree("toy12", []int64{3, -1, 4, -1, 5, -9, 2, -6, 5, 3, -5, 8}, false)
	fault = toyTree("fault", faultVals(22), false)
)

// faultVals has mixed signs, so the optimum is a non-trivial subset.
func faultVals(n int) []int64 {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64((i%5)*7 - 9 + i)
	}
	return vals
}

// memSpace stresses the frontier: the root fans out into Wide subtrees
// (one spawn loop floods the pool), each a uniform Branch-ary tree of
// depth Depth. Enumeration counts; optimisation maximises a hash of the
// node id. memNode's fields are exported: spills gob it.
type memSpace struct{ Wide, Branch, Depth int }

type memNode struct {
	ID    int64
	Depth int
}

func memGen(s memSpace, p memNode) NodeGenerator[memNode] {
	var b int
	switch {
	case p.Depth == 0:
		b = s.Wide
	case p.Depth <= s.Depth:
		b = s.Branch
	}
	kids := make([]memNode, b)
	for i := range kids {
		kids[i] = memNode{ID: p.ID*int64(s.Wide+s.Branch) + int64(i+1), Depth: p.Depth + 1}
	}
	return NewSliceGen(kids)
}

func memTree(s memSpace) *searchTree[memSpace, memNode] {
	return &searchTree[memSpace, memNode]{label: fmt.Sprintf("%+v", s), space: s,
		enum: EnumProblem[memSpace, memNode, int64]{Gen: memGen, Objective: func(memSpace, memNode) int64 { return 1 }, Monoid: SumInt64{}},
		opt:  OptProblem[memSpace, memNode]{Gen: memGen, Objective: func(_ memSpace, n memNode) int64 { return (n.ID * 2654435761) % 100000 }}}
}

// The hand-written cases are named rows: each test holds its own, with
// the case's parameters, and one that asserted more than the invariants
// keeps that as its extra check. tolerant is two workers a rank that
// absorb any death.
var (
	tolerant = Config{Workers: 2, DCutoff: 3, MaxFailures: -1}
	fault16  = toyTree("fault16", faultVals(16), false)
)

// db is a DepthBounded row; onStandby arms sc's standby.
func db(tr tree, s searchKind, ranks int, cfg Config, kills ...kill) scenario {
	return scenario{tree: tr, search: s, coord: DepthBounded, ranks: ranks, cfg: cfg, kills: kills}
}

func onStandby(sc scenario) scenario { sc.standby = true; return sc }

// rows runs a test's rows, each a subtest named by its place when there are
// several and it has no name. A row of several processes runs on in-process
// TCP, as subtest "tcp", and its search runs again as one process, subtest
// "loopback": the ranks become as many loopback localities, with every
// rank's workers, and none is killed: in-process localities never die.
func rows(t *testing.T, scs ...scenario) {
	for i, sc := range scs {
		if sc.name == "" && len(scs) > 1 {
			sc.name = fmt.Sprint(i)
		}
		if sc.ranks <= 1 {
			sc.check(t)
			continue
		}
		one := sc
		one.name, one.ranks, one.standby, one.mourned, one.kills = path.Join(sc.name, "loopback"), 0, false, 0, nil
		one.cfg.Localities, one.cfg.Workers = sc.ranks, cmp.Or(sc.cfg.Workers, runtime.GOMAXPROCS(0))*sc.ranks
		one.check(t)
		sc.name = path.Join(sc.name, "tcp")
		sc.check(t)
	}
}

func TestDistOptMatchesSequential(t *testing.T) {
	var scs []scenario
	for _, coord := range []Coordination{DepthBounded, Budget, StackStealing} {
		scs = append(scs, scenario{name: coord.String(), tree: toy12, search: optimise, coord: coord, ranks: 3, cfg: Config{Workers: 2, DCutoff: 2, Budget: 8}})
	}
	rows(t, scs...)
}

func TestDistOptOrderedMatchesUnordered(t *testing.T) {
	bounded := toyTree("toy12, bounded", toy12.space.Vals, true)
	var scs []scenario
	for _, coord := range []Coordination{DepthBounded, Budget} {
		for ord := OrderNone; ord <= OrderBound; ord++ {
			scs = append(scs, scenario{name: fmt.Sprintf("%v/%v", coord, ord), tree: bounded, search: optimise, coord: coord, ranks: 3,
				cfg: Config{Workers: 2, DCutoff: 2, Budget: 8, Order: ord}})
		}
	}
	rows(t, scs...)
}

func TestDistEnumCountsWholeTree(t *testing.T) {
	rows(t, db(toy12, enumerate, 3, Config{Workers: 2, DCutoff: 2}))
}
func TestDistDecideFindsWitness(t *testing.T) {
	rows(t, scenario{tree: toy12, search: decide, target: 20, coord: DepthBounded, ranks: 2, cfg: Config{Workers: 2, DCutoff: 2}})
}
func TestDistOptRejectsUnsupportedCoordination(t *testing.T) {
	rows(t, scenario{tree: toy12, search: optimise, coord: Sequential, ranks: 2})
}

// Replicable across processes: every cutoff task carries the frozen bound,
// so each rank holds it before its first one runs, and the deployment
// visits exactly the nodes one process does at the same cutoff. (One
// worker a rank, so that most cutoff tasks cross the wire.)
func TestDistReplicableVisitsWhatOneProcessDoes(t *testing.T) {
	tr := toyTree("fault18, bounded", faultVals(18), true)
	var scs []scenario
	for _, search := range []searchKind{enumerate, optimise} {
		one := tr.solve(nil, &scenario{search: search, coord: Replicable}, Config{DCutoff: 3})
		for ranks := 2; ranks <= 4; ranks++ {
			scs = append(scs, scenario{name: fmt.Sprintf("%v/%d", search, ranks), tree: tr, search: search, coord: Replicable, ranks: ranks,
				cfg: Config{Workers: 1, DCutoff: 3}, extra: func(t *testing.T, o outcome) {
					if o.stats.Nodes != one.stats.Nodes || o.stats.Prunes != one.stats.Prunes {
						t.Errorf("visited %d nodes, pruned %d; one process %d and %d", o.stats.Nodes, o.stats.Prunes, one.stats.Nodes, one.stats.Prunes)
					}
				}})
		}
	}
	rows(t, scs...)
}
func TestDistOptSurvivesWorkerDeath(t *testing.T) {
	sc := db(fault, optimise, 4, tolerant, kill{rank: 2})
	rows(t, sc, delayed(sc))
}
func TestDistOptSurvivesDoubleDeath(t *testing.T) {
	sc := db(fault, optimise, 4, tolerant, kill{rank: 1}, kill{rank: 3})
	rows(t, sc, delayed(sc))
}
func TestDistOptMaxFailuresPolicy(t *testing.T) {
	rows(t, db(fault, optimise, 3, Config{Workers: 2, DCutoff: 3}, kill{rank: 2}),
		db(fault, optimise, 3, Config{Workers: 2, DCutoff: 3, MaxFailures: 1}, kill{rank: 2}))
}
func TestDistEnumSurvivesWorkerDeath(t *testing.T) {
	one, two := db(fault, enumerate, 3, tolerant, kill{rank: 2}), db(fault, enumerate, 4, tolerant, kill{rank: 1}, kill{rank: 3})
	rows(t, one, two, delayed(one), delayed(two))
}

// A standby coordinator killed once a worker holds work; and, with rank 0's
// link to rank 1, the successor, slowed down, as rank 2 first registers
// work. Mostly that is the root, and rank 0 dies before rank 2's kHeld
// reaches it: rank 1 takes the root over as held by nobody and replays it
// while rank 2 searches it too (about 5 runs in 6). Otherwise rank 1 took
// the root first and rank 2 stole from it: rank 1 names itself the holder.
// There an engine that heard of rank 0's death after the takeover replayed
// rank 1's hand-overs to rank 2 too, and the search ended with rank 2's
// later hand-overs unacked (dist.DeathHearer). Each optimising and
// enumerating, and the first with every link delayed too.
func TestDistOptSurvivesCoordinatorDeath(t *testing.T) {
	held := onStandby(db(fault, optimise, 4, tolerant, kill{rank: 0, by: []int{1, 2, 3}}))
	slow := onStandby(db(fault16, optimise, 3, tolerant, kill{rank: 0, by: []int{2}}))
	slow.net = dist.NewFaultPlan(1)
	slow.net.SetLink(0, 1, dist.LinkFault{Latency: 5 * time.Millisecond})
	rows(t, held, slow, enumTwin(held), enumTwin(slow), delayed(held), enumTwin(delayed(held)))
}

// A zero Config on a standby deployment: the engine asks its transport,
// so rank 0 runs no workers (judge counts them) and each other GOMAXPROCS.
func TestStandbyComesFromTheTransport(t *testing.T) {
	rows(t, onStandby(db(toy12, optimise, 3, Config{})), onStandby(db(toy12, enumerate, 3, Config{})))
}

// enumTwin is sc as an enumeration: on rank 0's death too, the exact fold.
func enumTwin(sc scenario) scenario { sc.search = enumerate; return sc }

// delayed is sc with every link's frames held 200 µs on their way, so that
// a death finds some of them still in flight.
func delayed(sc scenario) scenario { return slowed(sc, 200*us, 0) }
func TestDistOptCoordinatorDeathSpillCleanup(t *testing.T) {
	cfg := tolerant
	cfg.PoolBudget = 8 << 10
	sc := onStandby(db(fault, optimise, 3, cfg, kill{rank: 0, by: []int{1, 2}}))
	rows(t, sc, enumTwin(sc))
}
func TestDistOptFaultStatsPlumbing(t *testing.T) {
	sc := db(fault, optimise, 4, tolerant, kill{rank: 1})
	sc.extra = func(t *testing.T, o outcome) {
		if o.stats.LedgerPeak <= 0 {
			t.Errorf("LedgerPeak = %d, want > 0: a killed worker held handed-over work", o.stats.LedgerPeak)
		}
	}
	rows(t, sc, delayed(sc))
}

func TestMemoryBudgetSpillsAndMatchesOracle(t *testing.T) {
	spills, cfg := memTree(memSpace{3000, 3, 2}), Config{Workers: 4, Localities: 2, DCutoff: 3}
	sc := scenario{tree: spills, search: enumerate, coord: DepthBounded, cfg: cfg}
	sc.cfg.PoolBudget = 8 << 10
	sc.extra = func(t *testing.T, o outcome) {
		free := Enum(DepthBounded, spills.space, memNode{}, spills.enum, cfg)
		if _, nodes := spills.truth(enumerate); free.Stats.SpilledTasks != 0 || free.Value != nodes {
			t.Errorf("unbounded: %d tasks spilled, %d of %d nodes counted", free.Stats.SpilledTasks, free.Value, nodes)
		}
		if st := o.stats; st.SpilledTasks == 0 || st.SpillBytes == 0 || 2*st.PoolPeakTasks > free.Stats.PoolPeakTasks {
			t.Errorf("%d tasks (%d bytes) spilled, a resident peak of %d against %d unbounded", st.SpilledTasks, st.SpillBytes, st.PoolPeakTasks, free.Stats.PoolPeakTasks)
		}
	}
	rows(t, sc)
}
func TestMemoryBudgetBudgetCoordination(t *testing.T) {
	rows(t, scenario{tree: memTree(memSpace{2000, 2, 3}), search: enumerate, coord: Budget, cfg: Config{Workers: 4, Localities: 2, Budget: 4, PoolBudget: 8 << 10}})
}
func TestMemorySpillCleanupAfterDeath(t *testing.T) {
	cfg := tolerant
	cfg.PoolBudget = 8 << 10
	rows(t, db(memTree(memSpace{2500, 2, 2}), optimise, 3, cfg, kill{rank: 2}))
}
func TestMemoryStackStealDistMatchesOracle(t *testing.T) {
	rows(t, scenario{tree: memTree(memSpace{400, 3, 3}), search: enumerate, coord: StackStealing, ranks: 3, cfg: Config{Workers: 2, PoolBudget: 8 << 10}})
}
func TestMemorySpillReadmitStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	sc := scenario{tree: memTree(memSpace{1200, 2, 2}), search: enumerate, coord: DepthBounded, cfg: Config{Workers: 8, Localities: 2, DCutoff: 3, PoolBudget: 4 << 10}}
	rows(t, sc, sc, sc)
}

// The two bugs the draw found. A decision with a worker killed on its
// first work: every call — the dead rank's too — returns, with a witness
// exactly when one exists, on delayed links too.
func TestDistDecideSurvivesWorkerDeath(t *testing.T) {
	opt16, _ := fault16.truth(optimise)
	row := func(tr tree, target int64, ranks int, cfg Config, dies int) scenario {
		sc := db(tr, decide, ranks, cfg, kill{rank: dies})
		sc.target = target
		return sc
	}
	budget := row(fault16, opt16, 3, Config{Workers: 2, Budget: 64, MaxFailures: -1}, 2)
	budget.coord = Budget
	rows(t, row(toy12, 20, 3, Config{Workers: 2, DCutoff: 2, MaxFailures: -1}, 2),
		row(toy12, 20, 4, Config{Workers: 1, MaxFailures: -1}, 3),
		row(fault16, opt16, 4, tolerant, 2), budget,
		row(fault16, opt16+1, 4, tolerant, 2), delayed(row(fault16, opt16, 4, tolerant, 2)))
}

// A partition inside the link grace heals without a death: on TCP by
// resuming the sessions it cut, on loopback by delivering at the heal.
func TestPartitionHealsWithoutDeath(t *testing.T) {
	sc := db(fault16, optimise, 3, tolerant)
	sc.net = dist.NewFaultPlan(1)
	sc.parts = []dist.ChaosPartition{{Ranks: []int{2}, Dur: 300 * time.Millisecond}}
	sc.extra = func(t *testing.T, o outcome) {
		if tcp := strings.HasSuffix(t.Name(), "/tcp"); o.stats.LinkResumes > 0 != tcp {
			t.Errorf("%d session resumes on TCP %v", o.stats.LinkResumes, tcp)
		}
	}
	rows(t, sc)
}

// A standby coordinator killed as it registers the root, before anyone
// holds it, optimising and enumerating.
func TestStandbyCoordinatorDiesHoldingTheRoot(t *testing.T) {
	var scs []scenario
	for ranks := 2; ranks <= 4; ranks++ {
		sc := onStandby(db(fault16, optimise, ranks, tolerant, kill{rank: 0}))
		scs = append(scs, sc, enumTwin(sc))
	}
	rows(t, scs...)
}

// A standby coordinator and then the worker holding the root killed at
// another's first work: slow links from rank 0 leave the root to rank 2,
// and rank 1, the successor, first works from it. With the root's
// supervisor and holder gone, rank 1 searches the whole tree again, with
// rank 3 or, on three ranks, alone. On TCP it found a node sent to rank 0
// alone that died with it while its bound spread.
func TestStandbyCoordinatorThenRootHolderDie(t *testing.T) {
	sc := onStandby(db(toyTree("fault20", faultVals(20), false), optimise, 4, tolerant, kill{rank: 0, by: []int{1}}, kill{rank: 2, by: []int{1}}))
	sc.net = dist.NewFaultPlan(1)
	sc.net.SetLink(0, 1, dist.LinkFault{Latency: 5 * time.Millisecond})
	sc.net.SetLink(0, 3, dist.LinkFault{Latency: 5 * time.Millisecond})
	sc.extra = func(t *testing.T, o outcome) {
		if _, nodes := sc.tree.truth(optimise); o.stats.Nodes < nodes {
			t.Errorf("survivors visited %d nodes of %d: the root was not searched again", o.stats.Nodes, nodes)
		}
	}
	three := sc
	three.ranks = 3
	rows(t, sc, enumTwin(sc), three, enumTwin(three))
}

// A standby coordinator killed mid-search, early, when its snapshots may
// not yet name the root's holder, and late, once they do; with the link
// between rank 1, the successor, and rank 3 slowed down, so that rank 3's
// hand-over and traffic land after rank 1 holds the role, or rank 2, whose
// node found while it is on its way must still reach the role; after a
// worker, whose death and gather slot rank 1 must hold when it takes the
// role over; and on three ranks. Each optimising and enumerating. Every
// kill lands; no ack crosses rank 0, so rank 0's late death alone, once a
// snapshot has named the root's holder, replays nothing: every node is
// visited once.
func TestStandbyCoordinatorDiesMidSearch(t *testing.T) {
	var scs []scenario
	// Rank 0 dies at 20 ms, mostly before a snapshot names the root's
	// holder, and at 100 ms, late enough even under -race for one to have
	// named it; a slowed link can delay the hand-over past that, so the
	// node count is held on unslowed late rows alone.
	for _, after := range []time.Duration{20 * time.Millisecond, 100 * time.Millisecond} {
		rank0 := kill{rank: 0, after: after, by: []int{1, 2, 3}}
		killed := onStandby(db(fault, optimise, 4, tolerant, rank0))
		late := func(from int) scenario {
			sc := killed
			sc.net = dist.NewFaultPlan(1)
			sc.net.SetLink(from, 1, dist.LinkFault{Latency: 50 * time.Millisecond})
			return sc
		}
		mourned, three := killed, killed
		mourned.kills, three.ranks = []kill{{rank: 3}, rank0}, 3
		for i, base := range []scenario{killed, late(3), late(2), mourned, three} {
			for _, sc := range []scenario{base, enumTwin(base)} {
				sc.name = fmt.Sprintf("%s/%v/%v", [...]string{"killed", "late-survivor", "late-publisher", "mourned", "three-ranks"}[i], after, sc.search)
				whole := sc.net == nil && len(sc.kills) == 1 && after == 100*time.Millisecond
				sc.extra = func(t *testing.T, o outcome) {
					_, nodes := sc.tree.truth(sc.search)
					if strings.HasSuffix(t.Name(), "/tcp") && (o.stats.Deaths != int64(len(sc.kills)) || whole && o.stats.Nodes != nodes) {
						t.Errorf("%d deaths of %d kills, %d nodes visited of %d", o.stats.Deaths, len(sc.kills), o.stats.Nodes, nodes)
					}
				}
				scs = append(scs, sc)
			}
		}
	}
	rows(t, scs...)
}

// A coordinator that mourns a live rank: rank 1's link to rank 0 turns
// slower than LivenessTimeout at its first work, and nothing is killed.
// Rank 0 tells rank 1 it is dead ahead of the link's close, and rank 1
// stops (dist.ErrMourned): it neither errs at the gather for want of a
// coordinator nor, as the standby, takes the role over while rank 0
// returns the answer.
func TestCoordinatorMournsALiveRank(t *testing.T) {
	sc := db(fault, optimise, 3, tolerant)
	sc.mourned = 1
	rows(t, sc, enumTwin(sc), onStandby(sc), enumTwin(onStandby(sc)))
}

// drawn is a standby row that draw(seed) drew, written out so that a
// change to draw leaves it as it was: a tree semTree(seed, branch,
// depth) and rank 0 a pure coordinator; slowed gives it draw's link
// latency and partitions, and fell its kills: rank 0 and worker w at
// rank 1's next work.
func drawn(seed int64, branch, depth int, s searchKind, target int64, coord Coordination, ranks int, cfg Config, kills ...kill) scenario {
	cfg.Seed = seed
	return scenario{name: fmt.Sprintf("seed=%d", seed), tree: semTree(seed, branch, depth), search: s, target: target,
		coord: coord, ranks: ranks, standby: true, cfg: cfg, kills: kills}
}

func slowed(sc scenario, lat, jit time.Duration, parts ...dist.ChaosPartition) scenario {
	sc.net = dist.NewFaultPlan(sc.cfg.Seed)
	sc.net.SetDefault(dist.LinkFault{Latency: lat, Jitter: jit})
	sc.parts = parts
	return sc
}

func fell(w int, after time.Duration) []kill {
	return []kill{{rank: 0, after: after, by: []int{1}}, {rank: w, after: after, by: []int{1}}}
}

const us = time.Microsecond

// A standby coordinator and a second worker killed at rank 1's next work,
// each schedule as draw drew it when it failed on TCP: every survivor
// mourns the dead worker, even one whose link broke while rank 0 lived; the
// optimum's node outlives both deaths (seeds 123, 281 and 361 under load);
// every death is counted, even one heard of after Done; no link outlives
// its rank's Close; a decision ends where its cancel reaches the role. Seed
// 284 kills at rank 2's work: on the deleted star topology a survivor's
// rejoin report landed split, and the search ended before it was admitted
// (a hang).
func TestStandbyCoordinatorAndWorkerDie(t *testing.T) {
	rows(t,
		drawn(46, 4, 8, decide, 999, StackStealing, 4, Config{Workers: 3, DCutoff: 3, Budget: 2, Order: OrderDiscrepancy, PoolBudget: 8 << 10, MaxFailures: -1}, fell(2, 400*us)...),
		slowed(drawn(55, 3, 5, enumerate, 0, StackStealing, 4, Config{Workers: 1, DCutoff: 2, Budget: 16}, fell(2, 400*us)...),
			44*us, 41*us, dist.ChaosPartition{Ranks: []int{1}, After: 410 * us, Dur: 2 * time.Millisecond}),
		drawn(57, 3, 8, optimise, 0, StackStealing, 3, Config{Workers: 1, DCutoff: 4, Budget: 16, Order: OrderDiscrepancy, MaxFailures: -1}, fell(2, 0)...),
		slowed(drawn(75, 4, 5, enumerate, 0, DepthBounded, 4, Config{Workers: 1, DCutoff: 4, Budget: 2, Chunked: true, Order: OrderBound, PoolBudget: 2 << 10, MaxFailures: -1}, fell(3, 0)...),
			93*us, 46*us, dist.ChaosPartition{Ranks: []int{1}, After: 627 * us, Dur: 3 * time.Millisecond}),
		drawn(90, 4, 5, optimise, 0, StackStealing, 3, Config{Workers: 2, DCutoff: 1, Budget: 64, Chunked: true, Order: OrderBound}, fell(2, 0)...),
		drawn(123, 4, 6, optimise, 0, StackStealing, 4, Config{Workers: 3, DCutoff: 4, Budget: 128, Order: OrderBound}, fell(3, 200*us)...),
		drawn(182, 3, 7, optimise, 0, Budget, 3, Config{Workers: 2, DCutoff: 3, Budget: 2}, fell(2, 0)...),
		slowed(drawn(185, 4, 6, optimise, 0, StackStealing, 3, Config{Workers: 3, DCutoff: 2, Budget: 2, Chunked: true, Order: OrderBound, PoolBudget: 8 << 10}, fell(2, 200*us)...),
			4*us, 33*us),
		drawn(281, 4, 6, decide, 996, DepthBounded, 4, Config{Workers: 3, DCutoff: 2, Budget: 32, Order: OrderBound, PoolBudget: 8 << 10, MaxFailures: 1}, fell(2, 200*us)...),
		drawn(284, 3, 6, enumerate, 0, Budget, 4, Config{Workers: 2, DCutoff: 2, Budget: 64, Chunked: true, Order: OrderBound, MaxFailures: -1},
			kill{rank: 0, after: 200 * us, by: []int{2}}, kill{rank: 3, after: 200 * us, by: []int{2}}),
		slowed(drawn(352, 4, 6, enumerate, 0, Budget, 4, Config{Workers: 3, DCutoff: 1, Budget: 4}, fell(3, 200*us)...),
			72*us, 37*us, dist.ChaosPartition{Ranks: []int{1}, After: 624 * us, Dur: 2 * time.Millisecond}),
		drawn(361, 4, 7, optimise, 0, DepthBounded, 4, Config{Workers: 2, DCutoff: 3, Budget: 16, Order: OrderDiscrepancy, PoolBudget: 4 << 10, MaxFailures: -1}, fell(3, 400*us)...))
}

// A cancelled standby decision, rank 0 alive or killed, ends with Done at
// the rank holding the coordinator role when the cancel reaches it, before
// anything is gathered, and reports the witness that rank retained.
func TestStandbyDecisionEndsAtItsGather(t *testing.T) {
	rows(t,
		drawn(28, 3, 6, decide, 988, StackStealing, 4, Config{Workers: 3, DCutoff: 4, Budget: 8, Chunked: true, Order: OrderBound, PoolBudget: 4 << 10, MaxFailures: -1}, kill{rank: 1}),
		drawn(117, 3, 7, decide, 985, Budget, 4, Config{Workers: 1, DCutoff: 3, Budget: 32, Order: OrderDiscrepancy, MaxFailures: -1}),
		slowed(drawn(126, 3, 5, decide, 976, DepthBounded, 4, Config{Workers: 3, DCutoff: 4, Budget: 1, Chunked: true, PoolBudget: 4 << 10, MaxFailures: -1}),
			49*us, 46*us),
		drawn(197, 3, 6, decide, 992, StackStealing, 3, Config{Workers: 1, DCutoff: 4, Budget: 32, Chunked: true, Order: OrderDiscrepancy, PoolBudget: 4 << 10, MaxFailures: 1}, kill{rank: 0, after: 200 * us}),
		drawn(346, 4, 6, decide, 997, StackStealing, 4, Config{Workers: 2, DCutoff: 2, Budget: 1, Chunked: true, MaxFailures: -1}, kill{rank: 0, after: 200 * us}),
		drawn(459, 3, 8, decide, 999, DepthBounded, 3, Config{Workers: 1, DCutoff: 4, Budget: 2, Chunked: true, MaxFailures: -1}),
		drawn(46, 4, 8, decide, 998, DepthBounded, 4, Config{Workers: 2, DCutoff: 3, MaxFailures: -1}, kill{rank: 0, by: []int{1, 2, 3}, cancel: true}),
		drawn(281, 4, 6, decide, 996, DepthBounded, 4, Config{Workers: 2, DCutoff: 3, MaxFailures: -1}, kill{rank: 0, by: []int{1, 2, 3}, cancel: true}),
		drawn(361, 4, 7, decide, 996, StackStealing, 4, Config{Workers: 2, MaxFailures: -1}, kill{rank: 0, by: []int{1, 2, 3}, cancel: true}))
}

// Replicable (Coordination's doc) finds the optimum at every cutoff.
func TestReplicableFindsMax(t *testing.T) {
	var scs []scenario
	for _, seed := range []int64{1, 3, 23, 31, 47} {
		tr := semTree(seed, 4, 9)
		for d := 1; d <= 3; d++ {
			scs = append(scs, scenario{tree: tr, search: optimise, coord: Replicable, cfg: Config{Workers: 6, DCutoff: d}})
		}
	}
	rows(t, scs...)
}

func TestReplicableWithPruneLevel(t *testing.T) {
	sorted := semantics.GenTree(17, 4, 9)
	sortByBound(sorted)
	tr := treeOf("GenTree(17, 4, 9), sorted", sorted, true)
	tr.opt.PruneLevel = true
	rows(t, scenario{tree: tr, search: optimise, coord: Replicable, cfg: Config{Workers: 4, DCutoff: 2}})
}

func TestReplicableSingleNodeTree(t *testing.T) {
	rows(t, scenario{tree: treeOf("one node", chainTree(1), false), search: optimise, coord: Replicable, cfg: Config{Workers: 4, DCutoff: 2}})
}

func TestReplicableNoBound(t *testing.T) {
	rows(t, scenario{tree: treeOf("GenTree(19, 4, 8), unbounded", semantics.GenTree(19, 4, 8), false), search: optimise, coord: Replicable, cfg: Config{Workers: 4, DCutoff: 1}})
}

// It pays for determinism in pruning: never fewer nodes than Sequential.
func TestReplicableVisitsAtLeastSequential(t *testing.T) {
	tr := semTree(13, 5, 10)
	seq := Opt(Sequential, tr.space, "", tr.opt, Config{}).Stats.Nodes
	rows(t, scenario{tree: tr, search: optimise, coord: Replicable, cfg: Config{Workers: 4, DCutoff: 2}, extra: func(t *testing.T, o outcome) {
		if o.stats.Nodes < seq {
			t.Errorf("visited %d nodes, Sequential %d", o.stats.Nodes, seq)
		}
	}})
}

// The defining property: Nodes, Prunes, Spawns and Backtracks are the same
// on every run, whatever the workers, localities, victim seed, order,
// memory budget, tracing or link latency.
func TestReplicableDeterministicNodeCounts(t *testing.T) {
	tr, want := toyTree("toy12, bounded", toy12.space.Vals, true), [4]int64{}
	same := func(t *testing.T, o outcome) {
		got := [4]int64{o.stats.Nodes, o.stats.Prunes, o.stats.Spawns, o.stats.Backtracks}
		if want == [4]int64{} {
			want = got
		}
		if got != want || o.stats.PoolPeakTasks == 0 {
			t.Errorf("nodes, prunes, spawns, backtracks %v (pool peak %d), want %v", got, o.stats.PoolPeakTasks, want)
		}
	}
	row := func(cfg Config) scenario {
		cfg.DCutoff = 3
		return scenario{tree: tr, search: optimise, coord: Replicable, cfg: cfg, extra: same}
	}
	var scs []scenario
	for _, w := range []int{1, 2, 7, 16} {
		for locs := 1; locs <= 3; locs++ {
			for i := range 6 { // victim seeds 1 and 2, each under every order
				scs = append(scs, row(Config{Workers: w, Localities: locs, Seed: int64(1 + i/3), Order: Order(i % 3)}))
			}
		}
	}
	spill, traced, slow := row(Config{Workers: 1, PoolBudget: 1 << 10}), row(Config{Workers: 4, Trace: NewTrace(4)}), row(Config{Workers: 6, Localities: 3})
	spill.extra = func(t *testing.T, o outcome) { // one worker: the root's runs, capped at the headroom, fill the pool to a spill
		if same(t, o); o.stats.SpilledTasks == 0 {
			t.Error("nothing spilled under a 1 KiB pool budget")
		}
	}
	traced.extra = func(t *testing.T, o outcome) {
		if same(t, o); int64(traced.cfg.Trace.Summary().Tasks) != o.stats.Spawns+1 {
			t.Errorf("%d traced tasks for %d spawns and the root", traced.cfg.Trace.Summary().Tasks, o.stats.Spawns)
		}
	}
	slow.net = dist.LatencyPlan(100 * time.Microsecond)
	rows(t, append(scs, spill, traced, slow)...)
}

// The operational model (Section 3) and the engine (Section 4) compute
// the same folds and maxima on the same trees — Theorems 3.1–3.3 as a
// property of the engine — under every coordination, in one locality and
// across several, on GenTree(seed, 3, 6).
func TestModelMatchesEngineEnumeration(t *testing.T)  { modelRows(t, enumerate, 0) }
func TestModelMatchesEngineOptimisation(t *testing.T) { modelRows(t, optimise, 1000) }

func modelRows(t *testing.T, search searchKind, from int64) {
	for seed := from; seed < from+200; seed++ {
		tr := semTree(seed, 3, 6)
		for _, locs := range []int{1, 2, 3} {
			for _, coord := range allCoords {
				scenario{name: fmt.Sprintf("seed=%d/%v/l%d", seed, coord, locs), tree: tr, search: search, coord: coord,
					cfg: Config{Workers: 4, Localities: locs, DCutoff: 2, Budget: 2, Seed: seed}}.check(t)
			}
		}
	}
}

// kill is one death of a kill schedule: rank dies at the first
// registration of work by one of by (none: by rank itself) once after has
// passed — armed through a dist.ChaosPlan, it lands where the dying rank
// provably holds registered work, or a coordinator the root — or, with
// cancel, rank 0 dies as a cancel by one of by reaches it, before it acts.
type kill struct {
	rank   int
	after  time.Duration
	by     []int
	cancel bool
}

// scenario is one row.
type scenario struct {
	name    string // the subtest, seed=N for a drawn row
	tree    tree
	search  searchKind
	target  int64 // decide
	coord   Coordination
	cfg     Config
	ranks   int  // Dist* processes on one in-process TCP network; 0 or 1: the single-process entry point
	standby bool // failover armed on the wire, rank 0 a pure coordinator (several processes only)
	mourned int  // a rank whose link to rank 0 turns slower than LivenessTimeout at its first work: rank 0 mourns it while it runs
	net     *dist.FaultPlan
	parts   []dist.ChaosPartition
	kills   []kill
	extra   func(t *testing.T, o outcome) // a named row's check beyond the invariants
}

func (sc scenario) String() string {
	return fmt.Sprintf("%v %v/%v on %v, %d ranks (standby %v), %+v, kills %v, partitions %v",
		sc.search, sc.coord, sc.cfg.Order, sc.tree, sc.ranks, sc.standby, sc.cfg, sc.kills, len(sc.parts))
}

// rowDeadline is how long a row may take before it counts as a hang.
const rowDeadline = 30 * time.Second

// check runs the row, as a subtest when it has a name.
func (sc scenario) check(t *testing.T) {
	t.Helper()
	if sc.name == "" {
		sc.run(t)
		return
	}
	t.Run(sc.name, sc.run)
}

func (sc scenario) run(t *testing.T) {
	cfg, ranks := sc.cfg, max(sc.ranks, 1)
	if cfg.PoolBudget > 0 {
		cfg.SpillDir = t.TempDir()
	}
	var dead sync.Map // rank → true once killed, or mourned
	isDead := func(rank int) bool { _, ok := dead.Load(rank); return ok }
	var slow sync.Once
	if sc.mourned > 0 {
		dead.Store(sc.mourned, true)
		sc.net = dist.NewFaultPlan(1)
	}
	cfg.exit = func(rank int, left error) {
		if left != nil && !isDead(rank) {
			t.Error(left)
		}
	}
	goroutines := runtime.NumGoroutine()
	outs := make([]outcome, ranks)
	returned := make(chan struct{})
	armed := make([]atomic.Bool, ranks)
	plan := dist.ChaosPlan{Partitions: sc.parts, Net: sc.net}
	var trs, raw []dist.Transport
	if sc.ranks <= 1 {
		cfg.NetFault = sc.net
		go func() { defer close(returned); outs[0] = sc.tree.solve(nil, &sc, cfg) }()
	} else {
		raw = sc.deployTCP(t)
		// A standby's rank 0 outlives the search's end at a live rank: it
		// has the answer, or is about to return it, and no takeover
		// follows a search that is over, so its successor, whom the row
		// would ask, has none.
		ended := func() bool {
			for r, tr := range raw {
				select {
				case <-tr.Done():
					if !isDead(r) && sc.standby {
						return true
					}
				default:
				}
			}
			return false
		}
		fire := func(rank int, cancel bool) {
			for _, k := range sc.kills {
				if k.cancel == cancel && armed[k.rank].Load() && (rank == k.rank && k.by == nil || slices.Contains(k.by, rank)) && !(k.rank == 0 && ended()) {
					if _, was := dead.LoadOrStore(k.rank, true); !was {
						raw[k.rank].Close() // a kill
					}
				}
			}
		}
		onWork := func(rank int) {
			if sc.mourned > 0 && rank == sc.mourned {
				slow.Do(func() { sc.net.SetLink(0, rank, dist.LinkFault{Latency: 2 * liveness}) })
			}
			fire(rank, false)
		}
		audit := &liveAudit{t: t, perRank: make([]atomic.Int64, ranks), onWork: onWork, onHeard: func(from int) { fire(from, true) }}
		for _, k := range sc.kills {
			if k.after == 0 {
				armed[k.rank].Store(true)
			} else {
				plan.Kills = append(plan.Kills, dist.ChaosKill{Rank: k.rank, After: k.after})
			}
		}
		var wg sync.WaitGroup
		for r, tr := range raw {
			tr = &auditedTransport{Transport: tr, a: audit, rank: r}
			trs = append(trs, tr)
			wg.Add(1)
			go func() { defer wg.Done(); outs[r] = sc.tree.solve(tr, &sc, cfg) }()
		}
		go func() { wg.Wait(); close(returned) }()
	}
	stop := plan.Start(func(rank int) { armed[rank].Store(true) })
	deadline := time.NewTimer(rowDeadline)
	defer deadline.Stop()
	select {
	case <-returned:
	case <-deadline.C:
		t.Fatalf("no return within %v: %v", rowDeadline, sc)
	}
	stop()

	landed, owner := int64(0), 0
	dead.Range(func(any, any) bool { landed++; return true })
	for isDead(owner) {
		owner++
	}
	for r, tr := range trs {
		if tr.Promoted() != (r == owner && owner > 0) {
			t.Errorf("rank %d: Promoted() = %v with rank %d returning the result", r, tr.Promoted(), owner)
		}
		if r != owner && !isDead(r) && outs[r].err != nil && sc.coord != Sequential {
			t.Errorf("rank %d: %v", r, outs[r].err)
		}
		if sc.mourned > 0 && r == sc.mourned && !errors.Is(outs[r].err, dist.ErrMourned) {
			t.Errorf("rank %d: %v, want it mourned", r, outs[r].err)
		}
	}
	for _, tr := range raw {
		tr.Close()
	}
	if err := sc.judge(outs[owner], landed); err != nil {
		t.Errorf("%v\n\t%v", err, sc)
	}
	if sc.extra != nil {
		sc.extra(t, outs[owner])
	}
	if left, _ := os.ReadDir(cfg.SpillDir); cfg.SpillDir != "" && len(left) > 0 {
		t.Errorf("spill files outlive the run: %v", left)
	}
	for wait := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
		if time.Now().After(wait) {
			t.Errorf("%d goroutines outlive the run", runtime.NumGoroutine()-goroutines)
			break
		}
	}
}

// liveness is short enough that a death learned of only from a silent
// link still lands well inside rowDeadline.
const liveness = 500 * time.Millisecond

// deployTCP connects the row's ranks over in-process TCP, indexed by the
// rank registration gave each: the wire options are the row's standby and
// fault plan, with sessions that outlast a drawn partition, and the
// liveness above.
func (sc scenario) deployTCP(t *testing.T) []dist.Transport {
	opts := dist.WireOptions{Standby: sc.standby, Fault: sc.net,
		Heartbeat: 50 * time.Millisecond, LivenessTimeout: liveness}
	if len(sc.parts) > 0 {
		opts.LinkGrace = time.Second
	}
	l, err := dist.NewListenerOpts("127.0.0.1:0", "harness", opts)
	if err != nil {
		t.Fatal(err)
	}
	trs, dialed := make([]dist.Transport, sc.ranks), make(chan error)
	for range sc.ranks - 1 {
		go func() {
			tr, err := dist.DialOpts(l.Addr(), "harness", opts)
			if err == nil {
				trs[tr.Rank()] = tr
			}
			dialed <- err
		}()
	}
	hub, err := l.Wait(sc.ranks - 1)
	for range sc.ranks - 1 {
		if e := <-dialed; err == nil {
			err = e
		}
	}
	if err != nil {
		t.Fatalf("deploying %d ranks over TCP: %v", sc.ranks, err)
	}
	trs[0] = hub
	return trs
}

// judge holds the result-owning rank's outcome to the oracle, given the
// number of kills that landed.
func (sc scenario) judge(o outcome, landed int64) error {
	val, nodes := sc.tree.truth(sc.search)
	switch budget := int64(sc.cfg.MaxFailures); {
	case sc.coord == Sequential && sc.ranks > 1:
		return wantErr(o.err, "not supported across processes")
	case o.stats.Deaths != landed && !(sc.search == decide && o.found && o.stats.Deaths < landed):
		// (A witness cancels the search, perhaps before anyone heard.)
		return fmt.Errorf("Deaths = %d, %d kills landed", o.stats.Deaths, landed)
	case budget >= 0 && o.stats.Deaths > budget:
		if err := wantErr(o.err, "failure budget"); err != nil {
			return err
		}
	case o.err != nil:
		return o.err
	}
	if err := sc.tree.model(&sc); err != nil {
		return err
	}
	switch sc.search {
	case enumerate:
		if o.val != val || landed == 0 && o.stats.Nodes != nodes { // a kill's replays and lost stats move Nodes
			return fmt.Errorf("folds to %d over %d nodes, want %d over %d", o.val, o.stats.Nodes, val, nodes)
		}
	case optimise:
		if !o.found || o.val != val || o.node != val {
			return fmt.Errorf("optimum %d (found %v, its node's objective %d), want %d", o.val, o.found, o.node, val)
		}
	case decide:
		if o.found != (sc.target <= val) || o.found && (o.val < sc.target || o.node != o.val) {
			return fmt.Errorf("target %d: found %v (objective %d, its node's %d), the optimum is %d", sc.target, o.found, o.val, o.node, val)
		}
	}
	// Only a prune or a witness cuts a search short: without, every node once.
	if cut := o.stats.Prunes > 0 || sc.search == decide && o.found; landed == 0 && (o.stats.Nodes > nodes || !cut && o.stats.Nodes != nodes) {
		return fmt.Errorf("visited %d nodes (%d prunes) of a tree of %d", o.stats.Nodes, o.stats.Prunes, nodes)
	}
	workers := cmp.Or(sc.cfg.Workers, runtime.GOMAXPROCS(0)) * max(sc.ranks, 1)
	if sc.standby {
		workers -= workers / sc.ranks // rank 0 has none
	}
	if landed == 0 && sc.coord != Sequential && o.stats.Workers != workers {
		return fmt.Errorf("%d workers reported, %d ran", o.stats.Workers, workers)
	}
	var hist int64
	for _, n := range o.stats.PrioHist {
		hist += n
	}
	if sc.cfg.Order != OrderNone && sc.coord != StackStealing && hist != o.stats.Spawns {
		return fmt.Errorf("priority histogram covers %d of %d spawns", hist, o.stats.Spawns)
	}
	return nil
}

func wantErr(err error, text string) error {
	if err == nil || !strings.Contains(err.Error(), text) {
		return fmt.Errorf("error %v, want one saying %q", err, text)
	}
	return nil
}

// TestDrawn runs rows drawn from consecutive seeds; a failure names its
// seed, and -run 'TestDrawn/seed=417' replays it.
func TestDrawn(t *testing.T) {
	n := int64(500)
	if testing.Short() {
		n = 100
	}
	for seed := int64(1); seed <= n; seed++ {
		draw(seed).check(t)
	}
}

// draw is the row seed picks: a GenTree and a search type over it (a
// decision's target at or just above the optimum); a coordination, its
// knobs and an order; one process of one to three in-process localities
// (Sequential or Replicable a fifth of the time each), or two to four processes, now and then with a
// standby coordinator or a pool budget; and, a third of the time each,
// link latency with perhaps a partition that heals, and a kill schedule —
// one or two workers dying on their next work, or a standby coordinator
// on its own, or with one worker other than its successor, both at
// another worker's next work.
func draw(seed int64) scenario {
	r := rand.New(rand.NewSource(seed))
	pick := r.Intn
	tr := semTree(seed, 3+pick(2), 5+pick(4))
	sc := scenario{name: fmt.Sprintf("seed=%d", seed), tree: tr, search: searchKind(pick(3)), ranks: 1 + pick(4),
		coord: [...]Coordination{DepthBounded, Budget, StackStealing}[pick(3)],
		cfg: Config{Workers: 1 + pick(3), DCutoff: 1 + pick(4), Budget: 1 << pick(8), Chunked: pick(2) == 0,
			Order: Order(pick(3)), Seed: seed, MaxFailures: -1}}
	if sc.search == decide {
		opt, _ := tr.truth(optimise)
		sc.target = opt + int64(pick(2))
	}
	if pick(4) == 0 {
		sc.cfg.PoolBudget = 2 << 10 << pick(3)
	}
	if sc.ranks == 1 {
		sc.cfg.Localities = 1 + pick(3)
		pick(2) // unused, drawn so that every later draw keeps its value
		switch pick(5) {
		case 0:
			sc.coord = Sequential
		case 1:
			sc.coord = Replicable
		}
	} else {
		pick(2) // the deleted star-or-mesh pick, drawn so that every later draw keeps its value
		sc.standby = pick(3) == 0
	}
	if pick(3) == 0 {
		sc.net = dist.NewFaultPlan(seed)
		sc.net.SetDefault(dist.LinkFault{Latency: time.Duration(pick(100)) * time.Microsecond, Jitter: time.Duration(1+pick(50)) * time.Microsecond})
		if locs := max(sc.ranks, sc.cfg.Localities); locs > 1 && pick(2) == 0 {
			sc.parts = []dist.ChaosPartition{{Ranks: []int{pick(locs)}, After: time.Duration(pick(1000)) * time.Microsecond, Dur: time.Duration(1+pick(3)) * time.Millisecond}}
		}
	}
	if sc.ranks > 1 && pick(2) == 0 {
		after := time.Duration(pick(3)) * 200 * time.Microsecond
		switch standby := sc.standby; {
		case standby && sc.ranks > 2 && pick(3) == 0:
			// Rank 0, then a worker — the root's holder, when it took it —
			// but not rank 1, the successor: a second takeover there is none.
			ws := r.Perm(sc.ranks - 1)
			if ws[0] == 0 {
				ws[0], ws[1] = ws[1], ws[0]
			}
			by := []int{1 + ws[1]}
			sc.kills = []kill{{rank: 0, after: after, by: by}, {rank: 1 + ws[0], after: after, by: by}}
		case standby && pick(2) == 0:
			sc.kills = []kill{{rank: 0, after: after}}
		default:
			spare := sc.ranks - 1 // leaving a worker alive: under Standby rank 0 has none
			if standby {
				spare--
			}
			for _, v := range r.Perm(sc.ranks - 1)[:min(spare, 1+pick(2))] {
				sc.kills = append(sc.kills, kill{rank: 1 + v, after: after})
			}
		}
		if pick(3) == 0 {
			sc.cfg.MaxFailures = pick(2)
		}
	}
	return sc
}
