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

func TestDequeOwnerLIFOThiefFIFO(t *testing.T) {
	q := NewDeque[int]()
	for i := 1; i <= 4; i++ {
		q.Push(Task[int]{Node: i, Depth: 0})
	}
	if task, _ := q.Pop(); task.Node != 4 {
		t.Fatalf("owner pop = %d, want 4 (LIFO)", task.Node)
	}
	if task, _ := q.Steal(); task.Node != 1 {
		t.Fatalf("thief steal = %d, want 1 (FIFO)", task.Node)
	}
	if task, _ := q.Pop(); task.Node != 3 {
		t.Fatalf("owner pop = %d, want 3", task.Node)
	}
	if task, _ := q.Steal(); task.Node != 2 {
		t.Fatalf("thief steal = %d, want 2", task.Node)
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("deque should be empty")
	}
	if q.Size() != 0 {
		t.Fatalf("Size = %d", q.Size())
	}
}

// TestDepthPoolKeepsHeuristicOrderDequeInvertsIt is the Section 2.3
// argument as a search: a decision problem whose witness is the leftmost
// leaf of a complete ternary tree — the path a perfect child-ordering
// heuristic points down — under Depth-Bounded spawning on one worker,
// so the node counts are deterministic. The depth pool hands the worker
// the first-spawned sibling at every level and walks straight to the
// witness; the deque's LIFO pop takes the last-spawned — heuristically
// worst — sibling first and searches its whole subtree before it.
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

	nodes := map[PoolKind]int64{}
	for _, kind := range []PoolKind{DepthPoolKind, DequeKind} {
		res := Decide(DepthBounded, tree, testNode{}, tree.decisionProblem(1, false),
			Config{Workers: 1, DCutoff: 2, Pool: kind})
		if !res.Found || res.Witness.id != "aaaaa" {
			t.Fatalf("pool kind %d: found=%v witness %q, want aaaaa", kind, res.Found, res.Witness.id)
		}
		nodes[kind] = res.Stats.Nodes
	}
	if nodes[DepthPoolKind] != depth+1 {
		t.Errorf("depth pool visited %d nodes, want the %d on the heuristic-first path", nodes[DepthPoolKind], depth+1)
	}
	if nodes[DequeKind] <= nodes[DepthPoolKind] {
		t.Errorf("deque visited %d nodes, no more than the depth pool's %d: it did not invert the sibling order",
			nodes[DequeKind], nodes[DepthPoolKind])
	}
	t.Logf("nodes to witness: depth pool %d, deque %d of %d", nodes[DepthPoolKind], nodes[DequeKind], tree.size)
}

func TestDequeEmptySteal(t *testing.T) {
	q := NewDeque[int]()
	if _, ok := q.Steal(); ok {
		t.Fatal("steal from empty deque succeeded")
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
func TestDequeConcurrent(t *testing.T)     { poolConcurrencyCheck(t, NewDeque[int]()) }

// The one rule for how much a steal takes, through the victim's whole
// serving path (ledger and pool): a run of up to want tasks, all holding the
// pool's steal rank — a depth, a priority; a deque ranks all its work alike
// — and at most half of those that do, rounded up. Each level is pushed as
// one batch, so on two shards it sits on one of them (and a deque's ranks,
// being all alike, then say nothing about which shard a run comes from).
func TestStealRunTakesHalfTheBestBucket(t *testing.T) {
	const want = 64
	cases := []struct {
		name   string
		levels map[int]int // rank → tasks, pushed deepest first
		first  int         // the first run's length from a bucketed pool
	}{
		{"one task", map[int]int{2: 1}, 1},
		{"two tasks", map[int]int{2: 2}, 1},
		{"10 shallow tasks over 100 deep ones", map[int]int{3: 100, 1: 10}, 5},
		{"100000 tasks on one level", map[int]int{1: 100_000}, want},
	}
	for _, kind := range []PoolKind{DepthPoolKind, PrioBucketKind, DequeKind} {
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
					rank, holding := p.StealRank(), total-served
					if kind != DequeKind {
						holding = left[rank]
					}
					out, _ := h.ServeStealMulti(1, want, nil, nil)
					fail := func(what string) {
						t.Fatalf("kind %v, %d shards, %s, %d served: a run of %d tasks from %d of rank %d %s",
							kind, shards, tc.name, served, len(out), holding, rank, what)
					}
					half := min(want, (holding+1)/2)
					switch {
					case len(out) == 0 || len(out) > half:
						fail("is not between one task and half of them")
					case len(out) != half && (kind != DequeKind || shards == 1):
						fail("is not half of them")
					case served == 0 && kind != DequeKind && len(out) != tc.first:
						fail("is not the first run the table names")
					}
					for _, wt := range out {
						if kind != DequeKind && wt.Depth != rank {
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
