package core

import (
	"os"
	"sync"
	"testing"
	"time"

	"yewpar/internal/dist"
)

// Memory-bounded search: the pool budget must cap the resident
// frontier (spilling the overflow to disk) without changing any search
// result, and every spill segment must be cleaned up on exit — normal,
// cancelled, or killed.

// memSpace is a tree shaped to stress the frontier: the root fans out
// into Wide first-level subtrees (one spawn loop floods the pool), and
// each first-level child roots a uniform Branch-ary tree of depth
// Depth. Node identity is positional, so the exact node count is a
// closed form the enum oracle cross-checks.
type memSpace struct {
	Wide   int
	Branch int
	Depth  int
}

// memNode has exported fields only: spill segments round-trip it
// through the gob codec.
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

func (s memSpace) nodes() int64 {
	per := int64(0) // nodes per first-level subtree
	pow := int64(1)
	for d := 0; d <= s.Depth; d++ {
		per += pow
		pow *= int64(s.Branch)
	}
	return 1 + int64(s.Wide)*per
}

func memCountProblem() EnumProblem[memSpace, memNode, int64] {
	return EnumProblem[memSpace, memNode, int64]{
		Gen:       memGen,
		Objective: func(memSpace, memNode) int64 { return 1 },
		Monoid:    SumInt64{},
	}
}

// spillLeftovers reports the spill directories (and anything else)
// still present under base after a run: must be none — the store
// removes its MkdirTemp directory on close.
func spillLeftovers(t *testing.T, base string) []os.DirEntry {
	t.Helper()
	ents, err := os.ReadDir(base)
	if err != nil {
		t.Fatalf("reading spill base: %v", err)
	}
	return ents
}

func TestMemoryBudgetSpillsAndMatchesOracle(t *testing.T) {
	space := memSpace{Wide: 3000, Branch: 3, Depth: 2}
	want := space.nodes()

	unbounded := Enum(DepthBounded, space, memNode{}, memCountProblem(),
		audited(t, Config{Workers: 4, Localities: 2, DCutoff: 3}))
	if unbounded.Value != want {
		t.Fatalf("unbounded count %d, want %d", unbounded.Value, want)
	}
	if unbounded.Stats.PoolPeakTasks == 0 {
		t.Fatal("unbounded run recorded no pool peak")
	}
	if unbounded.Stats.SpilledTasks != 0 {
		t.Fatalf("unbounded run spilled %d tasks", unbounded.Stats.SpilledTasks)
	}

	dir := t.TempDir()
	// A budget worth a few dozen tasks: the root's Wide-child spawn
	// loop alone overflows it many times over, so the run must spill.
	bounded := Enum(DepthBounded, space, memNode{}, memCountProblem(),
		audited(t, Config{Workers: 4, Localities: 2, DCutoff: 3, PoolBudget: 8 << 10, SpillDir: dir}))
	if bounded.Value != want {
		t.Fatalf("budgeted count %d, want %d", bounded.Value, want)
	}
	if bounded.Stats.SpilledTasks == 0 {
		t.Fatal("budgeted run spilled nothing despite a frontier far beyond its budget")
	}
	if bounded.Stats.SpillBytes == 0 {
		t.Fatal("spilled tasks reported zero bytes")
	}
	if bounded.Stats.PoolPeakTasks*2 > unbounded.Stats.PoolPeakTasks {
		t.Fatalf("budgeted peak %d not well below unbounded peak %d",
			bounded.Stats.PoolPeakTasks, unbounded.Stats.PoolPeakTasks)
	}
	if left := spillLeftovers(t, dir); len(left) != 0 {
		t.Fatalf("spill base not cleaned up: %v", left)
	}
}

func TestMemoryBudgetBudgetCoordination(t *testing.T) {
	space := memSpace{Wide: 2000, Branch: 2, Depth: 3}
	want := space.nodes()
	dir := t.TempDir()
	res := Enum(Budget, space, memNode{}, memCountProblem(),
		audited(t, Config{Workers: 4, Localities: 2, Budget: 4, PoolBudget: 8 << 10, SpillDir: dir}))
	if res.Value != want {
		t.Fatalf("budgeted count %d, want %d", res.Value, want)
	}
	if left := spillLeftovers(t, dir); len(left) != 0 {
		t.Fatalf("spill base not cleaned up: %v", left)
	}
}

// TestMemorySpillReadmitStress hammers the spill/re-admit path with
// many workers on a tight budget; run under -race it checks the
// spiller, the re-admit hook, and the counted shards for data races.
func TestMemorySpillReadmitStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	space := memSpace{Wide: 1200, Branch: 2, Depth: 2}
	want := space.nodes()
	for iter := 0; iter < 3; iter++ {
		dir := t.TempDir()
		res := Enum(DepthBounded, space, memNode{}, memCountProblem(),
			audited(t, Config{Workers: 8, Localities: 2, DCutoff: 3,
				PoolBudget: 4 << 10, SpillDir: dir}))
		if res.Value != want {
			t.Fatalf("iter %d: count %d, want %d", iter, res.Value, want)
		}
		if left := spillLeftovers(t, dir); len(left) != 0 {
			t.Fatalf("iter %d: spill base not cleaned up: %v", iter, left)
		}
	}
}

// memOptProblem maximises a hash of the node id: a non-trivial optimum
// for the death test, over the same spill-heavy tree shape.
func memOptProblem() OptProblem[memSpace, memNode] {
	return OptProblem[memSpace, memNode]{
		Gen:       memGen,
		Objective: func(_ memSpace, n memNode) int64 { return (n.ID * 2654435761) % 100000 },
	}
}

// TestMemorySpillCleanupAfterDeath kills a locality while the
// deployment is spilling: the dead rank's segment files must not leak
// into later runs (a leaked segment would corrupt a fault-tolerance
// replay that re-reads the same directory), and the replayed search
// must still reach the exact optimum. Enumeration cannot survive a
// death, so the supervised optimisation path carries the test.
func TestMemorySpillCleanupAfterDeath(t *testing.T) {
	space := memSpace{Wide: 2500, Branch: 2, Depth: 2}
	want := Opt(Sequential, space, memNode{}, memOptProblem(), Config{})
	dir := t.TempDir()

	net := dist.NewLoopback(3, dist.LoopbackOptions{})
	trs := net.Transports()
	defer net.Close()
	cfg := audited(t, Config{Workers: 2, DCutoff: 3, MaxFailures: -1, PoolBudget: 8 << 10, SpillDir: dir}, 2)
	results := make([]OptResult[memNode], 3)
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			results[r], errs[r] = DistOpt(trs[r], GobCodec[memNode]{}, DepthBounded,
				space, memNode{}, memOptProblem(), cfg)
		}(r)
	}
	go func() {
		deadline := time.Now().Add(30 * time.Second)
		for net.LiveAt(2) == 0 && time.Now().Before(deadline) {
			time.Sleep(10 * time.Microsecond)
		}
		net.Kill(2)
	}()
	wg.Wait()
	if errs[0] != nil {
		t.Fatalf("rank 0: %v", errs[0])
	}
	if !results[0].Found || results[0].Objective != want.Objective {
		t.Fatalf("objective %d (found=%v) after death, want %d",
			results[0].Objective, results[0].Found, want.Objective)
	}
	if left := spillLeftovers(t, dir); len(left) != 0 {
		t.Fatalf("spill segments leaked past a locality death: %v", left)
	}
}

// TestMemoryStackStealDistMatchesOracle pins the tentpole pairing: a
// tight pool budget under the distributed stack-stealing coordination,
// where idle localities pull work via kSplit instead of pool steals.
func TestMemoryStackStealDistMatchesOracle(t *testing.T) {
	space := memSpace{Wide: 400, Branch: 3, Depth: 3}
	want := space.nodes()
	dir := t.TempDir()

	net := dist.NewLoopback(3, dist.LoopbackOptions{})
	trs := net.Transports()
	defer net.Close()
	cfg := audited(t, Config{Workers: 2, PoolBudget: 8 << 10, SpillDir: dir})
	results := make([]EnumResult[int64], 3)
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			results[r], errs[r] = DistEnum(trs[r], GobCodec[memNode]{}, StackStealing,
				space, memNode{}, memCountProblem(), cfg)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if results[0].Value != want {
		t.Fatalf("stacksteal dist count %d, want %d", results[0].Value, want)
	}
	if left := spillLeftovers(t, dir); len(left) != 0 {
		t.Fatalf("spill base not cleaned up: %v", left)
	}
}
