package core

import (
	"sync"
	"testing"

	"yewpar/internal/dist"
)

// The distributed entry points, exercised over a loopback network:
// each rank runs in its own goroutine with its own transport, codec
// round trips included (wire=true forces task serialisation even
// in-process, so the loopback run covers the same code paths as TCP).

// knapsack-like toy: maximise sum of chosen values under index bound.
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

func toyOptProblem() OptProblem[toySpace, toyNode] {
	return OptProblem[toySpace, toyNode]{
		Gen:       toyGen,
		Objective: func(_ toySpace, n toyNode) int64 { return n.Sum },
	}
}

func toySpace12() toySpace {
	return toySpace{Vals: []int64{3, -1, 4, -1, 5, -9, 2, -6, 5, 3, -5, 8}}
}

func runDistOptLoopback(t *testing.T, ranks int, coord Coordination, cfg Config) OptResult[toyNode] {
	t.Helper()
	net := dist.NewLoopback(ranks, dist.LoopbackOptions{})
	trs := net.Transports()
	defer net.Close()

	space := toySpace12()
	root := toyNode{}
	results := make([]OptResult[toyNode], ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			results[r], errs[r] = DistOpt(trs[r], GobCodec[toyNode]{}, coord, space, root, toyOptProblem(), audited(t, cfg))
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return results[0]
}

func TestDistOptMatchesSequential(t *testing.T) {
	want := Opt(Sequential, toySpace12(), toyNode{}, toyOptProblem(), Config{})
	for _, coord := range []Coordination{DepthBounded, Budget, StackStealing} {
		got := runDistOptLoopback(t, 3, coord, Config{Workers: 2, DCutoff: 2, Budget: 8})
		if got.Objective != want.Objective {
			t.Errorf("%v: distributed objective %d, want %d", coord, got.Objective, want.Objective)
		}
		if !got.Found {
			t.Errorf("%v: no result found", coord)
		}
		if got.Stats.Workers != 6 {
			t.Errorf("%v: aggregated workers = %d, want 6", coord, got.Stats.Workers)
		}
		if got.Stats.Nodes < want.Stats.Nodes {
			t.Errorf("%v: aggregated nodes %d < sequential %d", coord, got.Stats.Nodes, want.Stats.Nodes)
		}
	}
}

func TestDistEnumCountsWholeTree(t *testing.T) {
	space := toySpace12()
	p := EnumProblem[toySpace, toyNode, int64]{
		Gen:       toyGen,
		Objective: func(toySpace, toyNode) int64 { return 1 },
		Monoid:    SumInt64{},
	}
	want := Enum(Sequential, space, toyNode{}, p, Config{})

	net := dist.NewLoopback(3, dist.LoopbackOptions{})
	trs := net.Transports()
	defer net.Close()
	results := make([]EnumResult[int64], 3)
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			results[r], errs[r] = DistEnum(trs[r], GobCodec[toyNode]{}, DepthBounded, space, toyNode{}, p, audited(t, Config{Workers: 2, DCutoff: 2}))
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if results[0].Value != want.Value {
		t.Fatalf("distributed count %d, want %d", results[0].Value, want.Value)
	}
}

func TestDistDecideFindsWitness(t *testing.T) {
	space := toySpace12()
	p := DecisionProblem[toySpace, toyNode]{
		Gen:       toyGen,
		Objective: func(_ toySpace, n toyNode) int64 { return n.Sum },
		Target:    20,
	}
	net := dist.NewLoopback(2, dist.LoopbackOptions{})
	trs := net.Transports()
	defer net.Close()
	results := make([]DecisionResult[toyNode], 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			results[r], errs[r] = DistDecide(trs[r], GobCodec[toyNode]{}, DepthBounded, space, toyNode{}, p, Config{Workers: 2, DCutoff: 2})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if !results[0].Found {
		t.Fatal("witness with sum >= 20 exists but was not found")
	}
	if results[0].Objective < 20 {
		t.Fatalf("witness objective %d below target", results[0].Objective)
	}
}

// Ordered distributed searches: every order returns the same optimum
// through the full wire path (tasks serialise through the codec even
// on the loopback network, so Task.Prio rides WireTask.Prio), and the
// spawned-priority histogram accounts for every spawn across ranks.
func TestDistOptOrderedMatchesUnordered(t *testing.T) {
	p := toyOptProblem()
	// Admissible bound: current sum plus every positive value still
	// choosable. Needed for OrderBound to have a priority source.
	p.Bound = func(s toySpace, n toyNode) int64 {
		b := n.Sum
		for _, v := range s.Vals[min(n.Pos, len(s.Vals)):] {
			if v > 0 {
				b += v
			}
		}
		return b
	}
	want := Opt(Sequential, toySpace12(), toyNode{}, p, Config{})
	for _, coord := range []Coordination{DepthBounded, Budget} {
		for _, ord := range []Order{OrderNone, OrderDiscrepancy, OrderBound} {
			cfg := audited(t, Config{Workers: 2, DCutoff: 2, Budget: 8, Order: ord})
			net := dist.NewLoopback(3, dist.LoopbackOptions{})
			trs := net.Transports()
			space := toySpace12()
			results := make([]OptResult[toyNode], 3)
			errs := make([]error, 3)
			var wg sync.WaitGroup
			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					results[r], errs[r] = DistOpt(trs[r], GobCodec[toyNode]{}, coord, space, toyNode{}, p, cfg)
				}(r)
			}
			wg.Wait()
			net.Close()
			for r, err := range errs {
				if err != nil {
					t.Fatalf("%v/%v rank %d: %v", coord, ord, r, err)
				}
			}
			got := results[0]
			if !got.Found || got.Objective != want.Objective {
				t.Errorf("%v/%v: objective %d (found=%v), want %d", coord, ord, got.Objective, got.Found, want.Objective)
			}
			if ord != OrderNone && got.Stats.Spawns > 0 {
				hist := int64(0)
				for _, v := range got.Stats.PrioHist {
					hist += v
				}
				if hist != got.Stats.Spawns {
					t.Errorf("%v/%v: histogram covers %d of %d spawns", coord, ord, hist, got.Stats.Spawns)
				}
			}
		}
	}
}

func TestDistOptRejectsUnsupportedCoordination(t *testing.T) {
	net := dist.NewLoopback(2, dist.LoopbackOptions{})
	defer net.Close()
	_, err := DistOpt(net.Transports()[0], GobCodec[toyNode]{}, Sequential, toySpace12(), toyNode{}, toyOptProblem(), Config{})
	if err == nil {
		t.Fatal("sequential across processes should be rejected")
	}
}
