package core

import (
	"container/heap"
	"math/rand"
	"sync"
	"testing"
)

func TestPrioBucketPoolOrdersByPriority(t *testing.T) {
	p := newPool[string](PrioBucketKind)
	p.Push(Task[string]{Node: "worst", Prio: 9})
	p.Push(Task[string]{Node: "best", Prio: 0})
	p.Push(Task[string]{Node: "mid", Prio: 4})
	for _, want := range []string{"best", "mid", "worst"} {
		got, ok := p.Pop()
		if !ok || got.Node != want {
			t.Fatalf("Pop = %q ok=%v, want %q", got.Node, ok, want)
		}
	}
	if _, ok := p.Pop(); ok {
		t.Fatal("Pop on empty pool reported a task")
	}
	if _, ok := stealOne(p); ok {
		t.Fatal("Steal on empty pool reported a task")
	}
}

// Equal priorities must leave in insertion order: the heuristic spawn
// order among equally promising tasks is search knowledge, and a pool
// without the FIFO discipline would scramble it.
func TestPrioBucketPoolFIFOWithinPriority(t *testing.T) {
	p := newPool[int](PrioBucketKind)
	const n = 100
	// Two interleaved priority classes, each pushed in ascending order.
	for i := 0; i < n; i++ {
		p.Push(Task[int]{Node: i, Prio: 3})
		p.Push(Task[int]{Node: n + i, Prio: 7})
	}
	for class, base := range []int{0, n} {
		for i := 0; i < n; i++ {
			got, ok := p.Pop()
			if !ok {
				t.Fatalf("pool empty at class %d item %d", class, i)
			}
			if got.Node != base+i {
				t.Fatalf("class %d item %d: got node %d, want %d (FIFO violated)", class, i, got.Node, base+i)
			}
		}
	}
}

// Priority churn: pushes at lower priorities than already popped must
// re-aim the min cursor, and BestPrio must always agree with what Pop
// returns next.
func TestPrioBucketPoolBestPrioTracksChurn(t *testing.T) {
	p := newPool[int](PrioBucketKind)
	if b := p.StealRank(); b != -1 {
		t.Fatalf("empty BestPrio = %d, want -1", b)
	}
	p.Push(Task[int]{Node: 1, Prio: 5})
	if b := p.StealRank(); b != 5 {
		t.Fatalf("BestPrio = %d, want 5", b)
	}
	p.Push(Task[int]{Node: 2, Prio: 2})
	if b := p.StealRank(); b != 2 {
		t.Fatalf("BestPrio = %d, want 2", b)
	}
	if got, _ := p.Pop(); got.Prio != 2 {
		t.Fatalf("popped prio %d, want 2", got.Prio)
	}
	// Lower-priority work arriving after pops must be found again.
	p.Push(Task[int]{Node: 3, Prio: 0})
	if got, _ := stealOne(p); got.Prio != 0 {
		t.Fatalf("stole prio %d, want 0", got.Prio)
	}
	if got, _ := p.Pop(); got.Prio != 5 {
		t.Fatalf("popped prio %d, want 5", got.Prio)
	}
	if b := p.StealRank(); b != -1 {
		t.Fatalf("drained BestPrio = %d, want -1", b)
	}
}

// Out-of-range priorities must clamp, not grow the bucket array or
// panic: Prio crosses the wire and cannot be trusted.
func TestPrioBucketPoolClampsPriorities(t *testing.T) {
	p := newPool[int](PrioBucketKind)
	p.Push(Task[int]{Node: 1, Prio: -50})
	p.Push(Task[int]{Node: 2, Prio: 1 << 30})
	if got, ok := p.Pop(); !ok || got.Node != 1 {
		t.Fatalf("negative prio: got %+v ok=%v, want node 1 first (clamped to 0)", got, ok)
	}
	if got, ok := p.Pop(); !ok || got.Node != 2 {
		t.Fatalf("huge prio: got %+v ok=%v", got, ok)
	}
	if p.Size() != 0 {
		t.Fatalf("size %d after draining", p.Size())
	}
}

func TestPrioBucketPoolSize(t *testing.T) {
	p := newPool[int](PrioBucketKind)
	if p.Size() != 0 {
		t.Fatalf("empty pool size %d", p.Size())
	}
	for i := 0; i < 5; i++ {
		p.Push(Task[int]{Node: i, Prio: int32(i)})
	}
	if p.Size() != 5 {
		t.Fatalf("size %d, want 5", p.Size())
	}
	p.Pop()
	if p.Size() != 4 {
		t.Fatalf("size %d after pop, want 4", p.Size())
	}
}

// Concurrent pushes and pops must neither lose nor duplicate tasks
// (the pool backs the ordered coordinations' shared frontier).
func TestPrioBucketPoolConcurrentPushPop(t *testing.T) {
	p := newPool[int](PrioBucketKind)
	const producers, perProducer = 8, 200
	var wg sync.WaitGroup
	for pr := 0; pr < producers; pr++ {
		wg.Add(1)
		go func(pr int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(pr)))
			for i := 0; i < perProducer; i++ {
				p.Push(Task[int]{Node: pr*perProducer + i, Prio: int32(rng.Intn(5))})
			}
		}(pr)
	}
	seen := make([]bool, producers*perProducer)
	var mu sync.Mutex
	var cg sync.WaitGroup
	done := make(chan struct{})
	for c := 0; c < 4; c++ {
		cg.Add(1)
		go func() {
			defer cg.Done()
			for {
				t_, ok := p.Pop()
				if !ok {
					select {
					case <-done:
						return
					default:
						continue
					}
				}
				mu.Lock()
				seen[t_.Node] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(done)
	cg.Wait()
	// Drain what the consumers left behind after done closed.
	for {
		t_, ok := p.Pop()
		if !ok {
			break
		}
		seen[t_.Node] = true
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("task %d lost", i)
		}
	}
}

// Sharded priority pools: owners keep best-first order within their
// shard, and thieves (StealExcept / the transport's Steal) take the
// globally best-priority task across shards.
func TestShardedPrioBucketPoolStealsBestFirst(t *testing.T) {
	p := NewShardedPool[int](PrioBucketKind, 3)
	p.Shard(0).Push(Task[int]{Node: 10, Prio: 4})
	p.Shard(1).Push(Task[int]{Node: 20, Prio: 1})
	p.Shard(2).Push(Task[int]{Node: 30, Prio: 2})
	p.Shard(1).Push(Task[int]{Node: 21, Prio: 6})
	if r := p.StealRank(); r != 1 {
		t.Fatalf("StealRank = %d, want 1", r)
	}
	for _, want := range []int{20, 30, 10, 21} {
		got, ok := stealOne(p)
		if !ok || got.Node != want {
			t.Fatalf("Steal = %+v ok=%v, want node %d", got, ok, want)
		}
	}
	if r := p.StealRank(); r != -1 {
		t.Fatalf("drained StealRank = %d, want -1", r)
	}
}

// heapPrioPool is the retired mutex+heap priority pool, kept in the
// test binary as the reference arm the bucketed pool is measured
// against (BenchmarkGatePrioPoolVsHeap) and as an ordering oracle.
type heapPrioPool[N any] struct {
	mu   sync.Mutex
	h    testPrioHeap[N]
	next int64
}

type heapPrioItem[N any] struct {
	t    Task[N]
	prio int64
	seq  int64
}

type testPrioHeap[N any] []heapPrioItem[N]

func (h testPrioHeap[N]) Len() int { return len(h) }
func (h testPrioHeap[N]) Less(i, j int) bool {
	if h[i].prio != h[j].prio {
		return h[i].prio > h[j].prio
	}
	return h[i].seq < h[j].seq
}
func (h testPrioHeap[N]) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *testPrioHeap[N]) Push(x any)   { *h = append(*h, x.(heapPrioItem[N])) }
func (h *testPrioHeap[N]) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	var zero heapPrioItem[N]
	old[n-1] = zero
	*h = old[:n-1]
	return it
}

func (p *heapPrioPool[N]) PushPrio(t Task[N], prio int64) {
	p.mu.Lock()
	heap.Push(&p.h, heapPrioItem[N]{t: t, prio: prio, seq: p.next})
	p.next++
	p.mu.Unlock()
}

func (p *heapPrioPool[N]) PopPrio() (Task[N], bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.h) == 0 {
		var zero Task[N]
		return zero, false
	}
	it := heap.Pop(&p.h).(heapPrioItem[N])
	return it.t, true
}

// The bucketed pool must agree with the heap oracle on pop order for
// random workloads (heap priority = larger-is-better; bucket priority
// = the negation, lower-is-better).
func TestPrioBucketPoolMatchesHeapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	bucket := newPool[int](PrioBucketKind)
	oracle := &heapPrioPool[int]{}
	const maxPrio = 16
	for i := 0; i < 500; i++ {
		pr := rng.Intn(maxPrio)
		bucket.Push(Task[int]{Node: i, Prio: int32(pr)})
		oracle.PushPrio(Task[int]{Node: i}, int64(maxPrio-pr))
	}
	for i := 0; ; i++ {
		want, wok := oracle.PopPrio()
		got, gok := bucket.Pop()
		if wok != gok {
			t.Fatalf("pop %d: oracle ok=%v bucket ok=%v", i, wok, gok)
		}
		if !wok {
			break
		}
		if got.Node != want.Node {
			t.Fatalf("pop %d: bucket node %d, oracle node %d", i, got.Node, want.Node)
		}
	}
}
