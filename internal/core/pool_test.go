package core

import (
	"sync"
	"testing"
)

func TestDepthPoolOwnerDeepestFirstFIFO(t *testing.T) {
	p := newPool[string](DepthPoolKind)
	p.Push(Task[string]{Node: "d2a", Depth: 2})
	p.Push(Task[string]{Node: "d1a", Depth: 1})
	p.Push(Task[string]{Node: "d1b", Depth: 1})
	p.Push(Task[string]{Node: "d0", Depth: 0})
	p.Push(Task[string]{Node: "d2b", Depth: 2})

	// Owner pops continue depth-first (deepest level first) but honour
	// the heuristic FIFO order among siblings at one level.
	want := []string{"d2a", "d2b", "d1a", "d1b", "d0"}
	for i, w := range want {
		task, ok := p.Pop()
		if !ok {
			t.Fatalf("pop %d: empty", i)
		}
		if task.Node != w {
			t.Fatalf("pop %d = %q, want %q", i, task.Node, w)
		}
	}
	if _, ok := p.Pop(); ok {
		t.Fatal("pool should be empty")
	}
}

func TestDepthPoolThiefShallowestFirstFIFO(t *testing.T) {
	p := newPool[string](DepthPoolKind)
	p.Push(Task[string]{Node: "d2a", Depth: 2})
	p.Push(Task[string]{Node: "d0a", Depth: 0})
	p.Push(Task[string]{Node: "d0b", Depth: 0})
	want := []string{"d0a", "d0b", "d2a"}
	for i, w := range want {
		task, ok := p.Steal()
		if !ok || task.Node != w {
			t.Fatalf("steal %d = %q/%v, want %q", i, task.Node, ok, w)
		}
	}
}

func TestDepthPoolInterleavedPushPop(t *testing.T) {
	p := newPool[int](DepthPoolKind)
	p.Push(Task[int]{Node: 1, Depth: 3})
	if task, _ := p.Pop(); task.Node != 1 {
		t.Fatal("wrong task")
	}
	// After draining depth 3, a later deeper push must win owner pops.
	p.Push(Task[int]{Node: 2, Depth: 5})
	p.Push(Task[int]{Node: 3, Depth: 1})
	if task, _ := p.Pop(); task.Node != 2 {
		t.Fatal("deep task should pop first for the owner")
	}
	if task, _ := p.Pop(); task.Node != 3 {
		t.Fatal("remaining task lost")
	}
	// And a shallow push after the max-hint rose must still be found.
	p.Push(Task[int]{Node: 4, Depth: 0})
	if task, ok := p.Pop(); !ok || task.Node != 4 {
		t.Fatal("shallow task lost after hint movement")
	}
}

func TestDepthPoolMixedPopSteal(t *testing.T) {
	p := newPool[int](DepthPoolKind)
	for d := 0; d < 4; d++ {
		p.Push(Task[int]{Node: d, Depth: d})
	}
	if task, _ := p.Pop(); task.Depth != 3 {
		t.Fatalf("owner got depth %d, want 3", task.Depth)
	}
	if task, _ := p.Steal(); task.Depth != 0 {
		t.Fatalf("thief got depth %d, want 0", task.Depth)
	}
	if task, _ := p.Pop(); task.Depth != 2 {
		t.Fatalf("owner got depth %d, want 2", task.Depth)
	}
	if task, _ := p.Steal(); task.Depth != 1 {
		t.Fatalf("thief got depth %d, want 1", task.Depth)
	}
	if p.Size() != 0 {
		t.Fatalf("Size = %d", p.Size())
	}
}

func TestDepthPoolSize(t *testing.T) {
	p := newPool[int](DepthPoolKind)
	if p.Size() != 0 {
		t.Fatal("fresh pool non-empty")
	}
	for i := 0; i < 10; i++ {
		p.Push(Task[int]{Node: i, Depth: i % 3})
	}
	if p.Size() != 10 {
		t.Fatalf("Size = %d", p.Size())
	}
	p.Pop()
	p.Steal()
	if p.Size() != 8 {
		t.Fatalf("Size = %d after two removals", p.Size())
	}
}

func TestDepthPoolStealPrefersShallow(t *testing.T) {
	p := newPool[string](DepthPoolKind)
	p.Push(Task[string]{Node: "deep", Depth: 9})
	p.Push(Task[string]{Node: "shallow", Depth: 1})
	task, ok := p.Steal()
	if !ok || task.Node != "shallow" {
		t.Fatalf("Steal = %v, want shallow", task.Node)
	}
	task, ok = p.Pop()
	if !ok || task.Node != "deep" {
		t.Fatalf("Pop = %v, want deep", task.Node)
	}
}

// TestDepthPoolKeepsHeuristicOrderDequeInvertsIt is the Section 2.3
// argument as a search: a decision problem whose witness is the leftmost
// leaf of a complete ternary tree — the path a perfect child-ordering
// heuristic points down — under Depth-Bounded spawning on one worker,
// so the node count is deterministic. The depth pool hands the worker
// the first-spawned sibling at every level and walks straight to the
// witness: 6 nodes of 364. (Section 2.3's conventional deque pops LIFO,
// so it takes the last-spawned — heuristically worst — sibling first
// and searches its whole subtree before it: 328 nodes on this tree, PR
// 22's table in CHANGES.md.)
func TestDepthPoolKeepsHeuristicOrderDequeInvertsIt(t *testing.T) {
	const depth = 5
	tree := &testTree{children: map[string][]string{}, value: map[string]int64{}}
	var build func(id string, d int)
	build = func(id string, d int) {
		tree.size++
		tree.value[id] = 0
		if d == depth {
			return
		}
		for _, c := range "abc" {
			tree.children[id] = append(tree.children[id], id+string(c))
			build(id+string(c), d+1)
		}
	}
	build("", 0)
	tree.value["aaaaa"] = 1

	res := Decide(DepthBounded, tree, testNode{}, tree.decisionProblem(1, false),
		Config{Workers: 1, DCutoff: 2})
	if !res.Found || res.Witness.id != "aaaaa" {
		t.Fatalf("found=%v witness %q, want aaaaa", res.Found, res.Witness.id)
	}
	if res.Stats.Nodes != depth+1 || tree.size != 364 {
		t.Errorf("depth pool visited %d nodes of %d, want the %d on the heuristic-first path of 364",
			res.Stats.Nodes, tree.size, depth+1)
	}
}

func poolConcurrencyCheck(t *testing.T, p Pool[int]) {
	t.Helper()
	const producers, perProducer = 4, 2000
	var wg sync.WaitGroup
	for i := 0; i < producers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perProducer; j++ {
				p.Push(Task[int]{Node: i*perProducer + j, Depth: j % 7})
			}
		}(i)
	}
	seen := make([]bool, producers*perProducer)
	var mu sync.Mutex
	var cg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		cg.Add(1)
		go func(thief bool) {
			defer cg.Done()
			for {
				var task Task[int]
				var ok bool
				if thief {
					task, ok = p.Steal()
				} else {
					task, ok = p.Pop()
				}
				if ok {
					mu.Lock()
					if seen[task.Node] {
						t.Errorf("task %d delivered twice", task.Node)
					}
					seen[task.Node] = true
					mu.Unlock()
					continue
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}(i%2 == 0)
	}
	wg.Wait()
	for p.Size() > 0 {
	}
	close(stop)
	cg.Wait()
	mu.Lock()
	defer mu.Unlock()
	for i, s := range seen {
		if !s {
			t.Fatalf("task %d lost", i)
		}
	}
}

func TestDepthPoolConcurrent(t *testing.T) { poolConcurrencyCheck(t, newPool[int](DepthPoolKind)) }

// The one rule for how much a steal takes, through the victim's whole
// serving path (ledger and pool): a run of up to want tasks, all holding the
// pool's steal rank — a depth, a priority — and at most half of those that
// do, rounded up. Each level is pushed as one batch, so on two shards it
// sits on one of them.
func TestStealRunTakesHalfTheBestBucket(t *testing.T) {
	const want = 64
	cases := []struct {
		name   string
		levels map[int]int // rank → tasks, pushed deepest first
		first  int         // the first run's length
	}{
		{"one task", map[int]int{2: 1}, 1},
		{"two tasks", map[int]int{2: 2}, 1},
		{"10 shallow tasks over 100 deep ones", map[int]int{3: 100, 1: 10}, 5},
		{"100000 tasks on one level", map[int]int{1: 100_000}, want},
	}
	for _, kind := range []PoolKind{DepthPoolKind, PrioBucketKind} {
		for shards := 1; shards <= 2; shards++ {
			for _, tc := range cases {
				p := NewShardedPool[int](kind, shards)
				left := make(map[int]int)
				total := 0
				for rank := 3; rank > 0; rank-- {
					level := make([]Task[int], tc.levels[rank])
					for i := range level {
						level[i] = Task[int]{Node: i, Depth: rank, Prio: int32(rank)}
					}
					p.PushBatch(level)
					left[rank], total = len(level), total+len(level)
				}
				h := &locState[int]{pool: p, led: newLedger[int](0, 1<<20), fab: &fabric[int]{}}
				for served := 0; served < total; {
					rank := p.StealRank()
					holding := left[rank]
					out, _ := h.ServeStealMulti(1, want, nil, nil)
					fail := func(what string) {
						t.Fatalf("kind %v, %d shards, %s, %d served: a run of %d tasks from %d of rank %d %s",
							kind, shards, tc.name, served, len(out), holding, rank, what)
					}
					half := min(want, (holding+1)/2)
					switch {
					case len(out) != half:
						fail("is not half of them")
					case served == 0 && len(out) != tc.first:
						fail("is not the first run the table names")
					}
					for _, wt := range out {
						if wt.Depth != rank {
							fail("holds a task of another rank")
						}
						left[wt.Depth]--
					}
					served += len(out)
					if p.Size() != total-served || h.led.outstanding() != served {
						fail("was not moved from the pool to the ledger one for one")
					}
				}
			}
		}
	}
}
