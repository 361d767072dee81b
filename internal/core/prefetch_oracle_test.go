package core

import (
	"sync"
	"testing"

	"yewpar/internal/dist"
)

// Oracle for the adaptive steal-ahead pipeline: widening the inflight
// window (StealAheadMax) may only change when prefetch steals are
// issued, never what the search computes or how many nodes it visits.
// Pinned on both transports that run steal-ahead — the loopback with
// injected steal latency, and real TCP — by comparing the strictly
// single-inflight pipeline (StealAheadMax=1, the pre-adaptive
// behaviour) against the full adaptive depth.

func TestPrefetchDepthOracleLoopback(t *testing.T) {
	tree := genTree(41, 4, 9)
	for _, coord := range []Coordination{DepthBounded, StackStealing, Budget} {
		for _, max := range []int{1, 4} {
			cfg := Config{
				Workers: 6, Localities: 3, DCutoff: 2, Budget: 16,
				StealLatency:  50_000, // 50µs: arms steal-ahead on loopback
				StealAheadMax: max,
			}
			res := Enum(coord, tree, testNode{}, tree.enumProblem(), cfg)
			if res.Value != tree.sum() {
				t.Errorf("%v max=%d: sum %d, want %d", coord, max, res.Value, tree.sum())
			}
			if res.Stats.Nodes != int64(tree.size) {
				t.Errorf("%v max=%d: visited %d nodes, want exactly %d", coord, max, res.Stats.Nodes, tree.size)
			}
		}
	}
}

func TestPrefetchDepthOracleLoopbackOpt(t *testing.T) {
	tree := genTree(43, 5, 8)
	want := tree.max()
	for _, max := range []int{1, 4} {
		cfg := Config{
			Workers: 4, Localities: 2, DCutoff: 2,
			StealLatency:  50_000,
			StealAheadMax: max,
		}
		res := Opt(DepthBounded, tree, testNode{}, tree.optProblem(true), cfg)
		if res.Objective != want {
			t.Errorf("max=%d: objective %d, want %d", max, res.Objective, want)
		}
	}
}

// tcpTransports brings up a 1-coordinator + (ranks-1)-worker deployment
// over real TCP in process, indexed by rank.
func tcpTransports(t *testing.T, ranks int) []dist.Transport {
	t.Helper()
	l, err := dist.NewListenerOpts("127.0.0.1:0", "prefetch-oracle", dist.WireOptions{})
	if err != nil {
		t.Fatal(err)
	}
	trs := make([]dist.Transport, ranks)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var derr error
	for i := 0; i < ranks-1; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, err := dist.DialOpts(l.Addr(), "prefetch-oracle", dist.WireOptions{})
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				derr = err
				return
			}
			trs[tr.Rank()] = tr
		}()
	}
	coord, err := l.Wait(ranks - 1)
	wg.Wait()
	if err != nil || derr != nil {
		t.Fatalf("tcp deployment: %v / %v", err, derr)
	}
	trs[0] = coord
	return trs
}

func TestPrefetchDepthOracleTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("real TCP deployment")
	}
	space := toySpace12()
	p := EnumProblem[toySpace, toyNode, int64]{
		Gen:       toyGen,
		Objective: func(toySpace, toyNode) int64 { return 1 },
		Monoid:    SumInt64{},
	}
	want := Enum(Sequential, space, toyNode{}, p, Config{})

	for _, max := range []int{1, 4} {
		trs := tcpTransports(t, 3)
		results := make([]EnumResult[int64], 3)
		errs := make([]error, 3)
		var wg sync.WaitGroup
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				cfg := Config{Workers: 2, DCutoff: 2, StealAheadMax: max}
				results[r], errs[r] = DistEnum(trs[r], GobCodec[toyNode]{}, DepthBounded, space, toyNode{}, p, cfg)
			}(r)
		}
		wg.Wait()
		for _, tr := range trs {
			tr.Close()
		}
		for r, err := range errs {
			if err != nil {
				t.Fatalf("max=%d rank %d: %v", max, r, err)
			}
		}
		if results[0].Value != want.Value {
			t.Errorf("max=%d: TCP count %d, want %d", max, results[0].Value, want.Value)
		}
		if results[0].Stats.Nodes != want.Stats.Nodes {
			t.Errorf("max=%d: TCP visited %d nodes, want exactly %d", max, results[0].Stats.Nodes, want.Stats.Nodes)
		}
	}
}
