package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"yewpar/internal/semantics"
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
		task, ok := stealOne(p)
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
	if task, _ := stealOne(p); task.Depth != 0 {
		t.Fatalf("thief got depth %d, want 0", task.Depth)
	}
	if task, _ := p.Pop(); task.Depth != 2 {
		t.Fatalf("owner got depth %d, want 2", task.Depth)
	}
	if task, _ := stealOne(p); task.Depth != 1 {
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
	stealOne(p)
	if p.Size() != 8 {
		t.Fatalf("Size = %d after two removals", p.Size())
	}
}

func TestDepthPoolStealPrefersShallow(t *testing.T) {
	p := newPool[string](DepthPoolKind)
	p.Push(Task[string]{Node: "deep", Depth: 9})
	p.Push(Task[string]{Node: "shallow", Depth: 1})
	task, ok := stealOne(p)
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
	tree := &semantics.Tree{Children: map[string][]string{}, H: map[string]int{}}
	var build func(id string, d int)
	build = func(id string, d int) {
		tree.H[id] = 0
		if d == depth {
			return
		}
		for _, c := range "abc" {
			tree.Children[id] = append(tree.Children[id], id+string(c))
			build(id+string(c), d+1)
		}
	}
	build("", 0)
	tree.H["aaaaa"] = 1

	res := Decide(DepthBounded, tree, "", decisionProblem(1, false),
		Config{Workers: 1, DCutoff: 2})
	if !res.Found || res.Witness != "aaaaa" {
		t.Fatalf("found=%v witness %q, want aaaaa", res.Found, res.Witness)
	}
	if res.Stats.Nodes != depth+1 || tree.Size() != 364 {
		t.Errorf("depth pool visited %d nodes of %d, want the %d on the heuristic-first path of 364",
			res.Stats.Nodes, tree.Size(), depth+1)
	}
}

// stealOne is a steal of one task from a queue or a sharded pool: a run
// of one.
func stealOne[N any](p interface {
	StealRun(max int, out []Task[N]) []Task[N]
}) (Task[N], bool) {
	if run := p.StealRun(1, nil); len(run) > 0 {
		return run[0], true
	}
	return Task[N]{}, false
}

// testLocality is a locality as its peers' steals see it — pool, ledger,
// bound — on no transport.
func testLocality[N any](pool *ShardedPool[N], ledgerCap int) *locality[N] {
	fab := &fabric[N]{dead: make([]atomic.Bool, 4)}
	l := &locality[N]{pool: pool, led: newLedger[N](0, ledgerCap, fab.dead), fab: fab}
	l.bound.V.Store(math.MinInt64)
	return l
}

// poolConcurrencyCheck has four producers push into p while two thieves
// steal from it and two owners take through pop (an owner's index is 1
// or 3): every task must come out exactly once.
func poolConcurrencyCheck(t *testing.T, p interface {
	Push(Task[int])
	StealRun(max int, out []Task[int]) []Task[int]
	Size() int
}, pop func(owner int) (Task[int], bool)) {
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
		go func(i int, thief bool) {
			defer cg.Done()
			for {
				var task Task[int]
				var ok bool
				if thief {
					task, ok = stealOne(p)
				} else {
					task, ok = pop(i)
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
		}(i, i%2 == 0)
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

func TestDepthPoolConcurrent(t *testing.T) {
	p := newPool[int](DepthPoolKind)
	poolConcurrencyCheck(t, p, func(int) (Task[int], bool) { return p.Pop() })
}

// The one rule for how much a steal takes: a run of up to want tasks, all
// holding the pool's steal rank — a depth, a priority — and at most half of
// those that do, rounded up. Remote, through the victim's whole serving path
// (ledger and pool), each level pushed as one batch, so on two shards it sits
// on one of them; and a sibling's, through popOrSteal (siblingRunsObeyTheRule).
func TestStealRunTakesHalfTheBestBucket(t *testing.T) {
	for _, order := range []Order{OrderNone, OrderDiscrepancy} {
		for shards := 2; shards <= 4; shards++ {
			t.Run(fmt.Sprintf("sibling/order=%v/shards=%d", order, shards), func(t *testing.T) {
				siblingRunsObeyTheRule(t, order, shards)
			})
		}
	}
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
				h := testLocality(p, 1<<20)
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

// siblingRunsObeyTheRule is the rule of TestStealRunTakesHalfTheBestBucket
// for the thief inside the locality. Worker 0 owns an empty shard and takes
// everything its siblings push, while they push: every robbery must be a run
// from one sibling's one bucket, in the order it was pushed, no longer than
// shedRun or half the bucket rounded up, the first task returned and the
// rest popped from the thief's own shard; once the owners have stopped, the
// bucket must be the best any sibling holds (ties to the lowest shard) and
// the run exactly half of it; and every task comes out exactly once.
func siblingRunsObeyTheRule(t *testing.T, order Order, shards int) {
	const perOwner, ranks = 3000, 3
	cfg := Config{Workers: shards, Order: order}.withDefaults()
	fab, ws := testWorkers[int](cfg)
	defer fab.close()
	th, loc := &ws[0].thief, fab.home

	// sent[o][r] is raised before owner o pushes tasks of rank r, so it
	// never under-counts what its shard has been given.
	sent := make([][ranks]atomic.Int64, shards)
	var owners sync.WaitGroup
	var quiet atomic.Bool
	for o := 1; o < shards; o++ {
		owners.Add(1)
		go func(o int) {
			defer owners.Done()
			var seq [ranks]int
			for pushed := 0; pushed < perOwner; {
				r, n := (pushed/7)%ranks, 1+pushed%(shedRun+9)
				run := make([]Task[int], min(n, perOwner-pushed))
				for i := range run {
					run[i] = Task[int]{Node: o<<24 | r<<20 | seq[r], Depth: r, Prio: int32(r)}
					seq[r]++
				}
				sent[o][r].Add(int64(len(run)))
				ws[o].shard.PushBatch(run)
				pushed += len(run)
			}
		}(o)
	}
	go func() { owners.Wait(); quiet.Store(true) }()

	taken := make([][ranks]int64, shards) // tasks robbed of owner o's rank r
	next := make([][ranks]int, shards)    // the sequence number due from it
	runOwner, runRank, left := 0, 0, 0    // the run being consumed
	for got, total := 0, (shards-1)*perOwner; got < total; {
		exact, robberies := quiet.Load(), th.stats.LocalSteals
		task, ok := loc.popOrSteal(th)
		if !ok {
			runtime.Gosched()
			continue
		}
		o, r, seq := task.Node>>24, task.Node>>20&0xf, task.Node&0xfffff
		if th.stats.LocalSteals == robberies {
			if left == 0 || o != runOwner || r != runRank {
				t.Fatalf("task %d/%d/%d popped from the thief's shard is not the rest of the run from %d/%d (%d left)", o, r, seq, runOwner, runRank, left)
			}
			left--
		} else {
			n := 1 + th.shard.Size()
			held := sent[o][r].Load() - taken[o][r] // never below what the bucket held
			switch {
			case left != 0:
				t.Fatalf("robbed again with %d tasks of the last run still on the thief's shard", left)
			case n > shedRun || int64(n) > (held+1)/2:
				t.Fatalf("a run of %d from a bucket of at most %d", n, held)
			case exact && int64(n) != min(shedRun, (held+1)/2):
				t.Fatalf("a run of %d from a bucket of exactly %d", n, held)
			}
			for o2 := 1; exact && o2 < shards; o2++ {
				for r2 := 0; r2 < ranks; r2++ {
					if sent[o2][r2].Load() > taken[o2][r2] && (r2 < r || r2 == r && o2 < o) {
						t.Fatalf("robbed shard %d at rank %d while shard %d holds rank %d", o, r, o2, r2)
					}
				}
			}
			runOwner, runRank, left = o, r, n-1
			taken[o][r] += int64(n)
		}
		if seq != next[o][r] {
			t.Fatalf("shard %d rank %d gave task %d, want %d: out of order, lost or twice", o, r, seq, next[o][r])
		}
		next[o][r]++
		got++
	}
	if _, ok := loc.popOrSteal(th); ok || loc.pool.Tasks() != 0 {
		t.Fatalf("a task beyond the last: %d still counted", loc.pool.Tasks())
	}
}
