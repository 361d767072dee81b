package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// Micro-benchmarks of the runtime substrate: pool throughput under
// contention and incumbent strengthen/read costs. These are the hot
// paths whose costs set the minimum useful task granularity.

func benchmarkPool(b *testing.B, p Pool[int]) {
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			p.Push(Task[int]{Node: i, Depth: i % 8})
			p.Pop()
			i++
		}
	})
}

func BenchmarkDepthPoolPushPop(b *testing.B) { benchmarkPool(b, newPool[int](DepthPoolKind)) }

// BenchmarkDepthPoolWidePush pushes one 100,000-task level onto a fresh
// DepthPool in spawn-sized runs: the root level of the bench command's
// uts workloads. Its allocs/op is gated (BENCH_engine.json): a chunk
// per chunkTasks tasks and the pool's own header, nothing that grows
// with the level a second time.
func BenchmarkDepthPoolWidePush(b *testing.B) {
	b.ReportAllocs()
	run := make([]Task[int], shedRun)
	for i := 0; i < b.N; i++ {
		p := newPool[int](DepthPoolKind)
		for n := 0; n < 100_000; n += len(run) {
			p.PushBatch(run)
		}
	}
}

// BenchmarkShardedPoolOwnerPushPop measures the uncontended owner hot
// path of the sharded pool: every parallel worker hammers its own
// shard, the way the engine's spawn/pop loop does.
func BenchmarkShardedPoolOwnerPushPop(b *testing.B) {
	b.ReportAllocs()
	p := NewShardedPool[int](DepthPoolKind, runtime.GOMAXPROCS(0))
	var next atomic.Int32
	b.RunParallel(func(pb *testing.PB) {
		shard := p.Shard(int(next.Add(1)-1) % p.Shards())
		i := 0
		for pb.Next() {
			shard.Push(Task[int]{Node: i, Depth: i % 8})
			shard.Pop()
			i++
		}
	})
}

// BenchmarkSharedPoolPushPop is the ablation baseline: all workers
// contending on one DepthPool, the pre-sharding design.
func BenchmarkSharedPoolPushPop(b *testing.B) {
	benchmarkPool(b, NewShardedPool[int](DepthPoolKind, 1).Shard(0))
}

// BenchmarkPrioPoolPushPop measures the ordered-scheduling hot path:
// every parallel worker hammers its own PrioBucketPool shard, the way
// the ordered engine's spawn/pop loop does. Compare against
// BenchmarkPrioHeapPushPop (the retired global mutex+heap) and
// BenchmarkSharedPrioPoolPushPop (one shared bucket pool) for the
// sharding and bucketing components.
func BenchmarkPrioPoolPushPop(b *testing.B) {
	b.ReportAllocs()
	p := NewShardedPool[int](PrioBucketKind, runtime.GOMAXPROCS(0))
	var next atomic.Int32
	b.RunParallel(func(pb *testing.PB) {
		shard := p.Shard(int(next.Add(1)-1) % p.Shards())
		i := int32(0)
		for pb.Next() {
			shard.Push(Task[int]{Node: int(i), Prio: i % 16})
			shard.Pop()
			i++
		}
	})
}

// BenchmarkSharedPrioPoolPushPop is the unsharded ablation: all
// workers contending on one PrioBucketPool.
func BenchmarkSharedPrioPoolPushPop(b *testing.B) {
	b.ReportAllocs()
	p := newPool[int](PrioBucketKind)
	b.RunParallel(func(pb *testing.PB) {
		i := int32(0)
		for pb.Next() {
			p.Push(Task[int]{Node: int(i), Prio: i % 16})
			p.Pop()
			i++
		}
	})
}

// BenchmarkPrioHeapPushPop is the retired design: the single global
// mutex+heap PrioPool that backed BestFirst before the bucketed
// sharded pool replaced it (the 252 ns/op baseline in
// BENCH_engine.json).
func BenchmarkPrioHeapPushPop(b *testing.B) {
	b.ReportAllocs()
	p := &heapPrioPool[int]{}
	b.RunParallel(func(pb *testing.PB) {
		i := int64(0)
		for pb.Next() {
			p.PushPrio(Task[int]{Node: int(i)}, i%16)
			p.PopPrio()
			i++
		}
	})
}

// BenchmarkWorkerScaling is the share-nothing gate: w workers each do
// b.N operations on nothing but their own context or their own pool
// shard, so going from one worker to two must not slow either down
// (BENCH_engine.json gates w2/w1). Any word the two workers' hot paths
// still have in common — a counter, a line shared by allocation
// accident — shows as a ratio well above 1. visit is the per-node path
// (cancellation poll, visitor accumulate, counters), pushpop the
// per-task path (owner push and pop).
func BenchmarkWorkerScaling(b *testing.B) {
	visit := func(b *testing.B, workers int) {
		tree := genTree(1, 4, 9)
		p := tree.enumProblem()
		ws := newWorkers(tree, p.Gen, Config{Workers: workers}, nil, func(th *thief[testNode]) visitor[testNode] {
			return newEnumVisitor(tree, p, &th.stats)
		})
		cancel := newCanceller()
		b.ResetTimer()
		var wg sync.WaitGroup
		for _, c := range ws {
			wg.Add(1)
			go func(c *workerCtx[*testTree, testNode]) {
				defer wg.Done()
				for i := 0; i < b.N && !cancel.cancelled(); i++ {
					c.visitor.visit(testNode{})
				}
			}(c)
		}
		wg.Wait()
	}
	pushpop := func(b *testing.B, workers int) {
		p := NewShardedPool[int](DepthPoolKind, workers)
		b.ResetTimer()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(shard Pool[int]) {
				defer wg.Done()
				for i := 0; i < b.N; i++ {
					shard.Push(Task[int]{Node: i, Depth: i % 8})
					shard.Pop()
				}
			}(p.Shard(w))
		}
		wg.Wait()
	}
	for _, path := range []struct {
		name string
		run  func(*testing.B, int)
	}{{"visit", visit}, {"pushpop", pushpop}} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/w%d", path.name, workers), func(b *testing.B) {
				if runtime.NumCPU() < workers || runtime.GOMAXPROCS(0) < workers {
					b.Skipf("needs %d cores", workers)
				}
				path.run(b, workers)
			})
		}
	}
}

func BenchmarkIncumbentLocalBest(b *testing.B) {
	b.ReportAllocs()
	in, locs := newTestIncumbent[int](4, 0)
	in.strengthen(locs[0], 100, 1)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if locs[0].bound.V.Load() != 100 {
				b.Fatal("wrong bound")
			}
		}
	})
}

func BenchmarkIncumbentStrengthenContention(b *testing.B) {
	b.ReportAllocs()
	in, locs := newTestIncumbent[int](4, 0)
	var mu sync.Mutex
	next := int64(0)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			mu.Lock()
			next++
			v := next
			mu.Unlock()
			in.strengthen(locs[int(v)%4], v, int(v))
		}
	})
}

func BenchmarkSequentialEngineOverhead(b *testing.B) {
	// Cost per node of the generic engine on a featherweight problem:
	// upper-bounds the skeleton tax measured in Table 1.
	b.ReportAllocs()
	tree := genTree(1, 4, 9)
	p := tree.enumProblem()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Enum(Sequential, tree, testNode{}, p, Config{})
	}
}
