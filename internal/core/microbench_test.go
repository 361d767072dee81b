package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"yewpar/internal/gate"
	"yewpar/internal/semantics"
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

// BenchmarkGateDepthPoolWidePush pushes one 100,000-task level onto a
// fresh DepthPool in spawn-sized runs — the root level of the bench
// command's uts workloads — and holds what that allocates to a chunk per
// chunkTasks tasks (1,588) plus the pool's header and FIFO table: 1,591
// measured, at most 1,600. The count repeats exactly, so one reading
// decides; the append-doubling buckets the chunks replaced allocated
// about five times the level's bytes.
func BenchmarkGateDepthPoolWidePush(b *testing.B) {
	run := make([]Task[int], shedRun)
	allocs := testing.AllocsPerRun(20, func() {
		p := newPool[int](DepthPoolKind)
		for n := 0; n < 100_000; n += len(run) {
			p.PushBatch(run)
		}
	})
	b.ReportMetric(allocs, "allocs/level")
	if allocs > 1600 {
		b.Fatalf("a 100,000-task level allocated %.0f times, want at most 1600", allocs)
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

// hammer runs body on procs goroutines at once, each told its index,
// and returns the seconds until the last one is done.
func hammer(procs int, body func(proc int)) float64 {
	return gate.Seconds(func() {
		var wg sync.WaitGroup
		for proc := 0; proc < procs; proc++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				body(proc)
			}()
		}
		wg.Wait()
	})()
}

// BenchmarkGatePrioPoolVsHeap is the ordered-scheduling acceptance
// criterion: eight Ps each pushing and popping on their own shard of the
// bucketed priority pool, the way the ordered engine's spawn/pop loop
// does, must take at most a third of what the same eight take on the
// retired global mutex+heap (heapPrioPool, priopool_test.go) in the same
// run. Eight Ps whatever the host has: the claim is about contention,
// and eight on one mutex are what slow the heap arm. An absolute ns/op
// limit would need a number recorded on another day and host; the heap
// arm, measured in the same pair, is the pool's reference instead.
func BenchmarkGatePrioPoolVsHeap(b *testing.B) {
	const procs, ops = 8, 125_000
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	heapArm := func() float64 {
		p := &heapPrioPool[int]{}
		return hammer(procs, func(int) {
			for i := int64(0); i < ops; i++ {
				p.PushPrio(Task[int]{Node: int(i)}, i%16)
				p.PopPrio()
			}
		})
	}
	poolArm := func() float64 {
		p := NewShardedPool[int](PrioBucketKind, procs)
		return hammer(procs, func(proc int) {
			shard := p.Shard(proc)
			for i := int32(0); i < ops; i++ {
				shard.Push(Task[int]{Node: int(i), Prio: i % 16})
				shard.Pop()
			}
		})
	}
	gate.Ratio(b, 0.333, heapArm, poolArm)
}

// BenchmarkGateWorkerScaling is the share-nothing gate: w workers each
// do the same number of operations on nothing but their own context or
// their own pool shard, so two workers must take what one does — at most
// 1.5x. Any word the two workers' hot paths still have in common — a
// counter, a line shared by allocation accident — shows as a ratio well
// above 1 (5.1x on pushpop while the shards shared a counter). visit is
// the per-node path (cancellation poll, visitor accumulate, counters),
// pushpop the per-task path (owner push and pop). It needs two real
// cores, and says so on a host without them: a gate that skipped itself
// there would read as a pass.
func BenchmarkGateWorkerScaling(b *testing.B) {
	if runtime.NumCPU() < 2 {
		b.Fatal("the share-nothing gate needs two cores to run two workers side by side")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const ops = 2_000_000
	visit := func(workers int) func() float64 {
		return func() float64 {
			tree := semantics.GenTree(1, 4, 9)
			p := enumProblem()
			ws := newWorkers(tree, p.Gen, Config{Workers: workers}, nil, func(th *thief[string]) visitor[string] {
				return newEnumVisitor(tree, p, &th.stats)
			})
			cancel := newCanceller()
			return hammer(workers, func(w int) {
				for i := 0; i < ops && !cancel.cancelled(); i++ {
					ws[w].visitor.visit("")
				}
			})
		}
	}
	pushpop := func(workers int) func() float64 {
		return func() float64 {
			p := NewShardedPool[int](DepthPoolKind, workers)
			return hammer(workers, func(w int) {
				shard := p.Shard(w)
				for i := 0; i < ops; i++ {
					shard.Push(Task[int]{Node: i, Depth: i % 8})
					shard.Pop()
				}
			})
		}
	}
	b.Run("visit", func(b *testing.B) { gate.Ratio(b, 1.5, visit(1), visit(2)) })
	b.Run("pushpop", func(b *testing.B) { gate.Ratio(b, 1.5, pushpop(1), pushpop(2)) })
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
	tree := semantics.GenTree(1, 4, 9)
	p := enumProblem()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Enum(Sequential, tree, "", p, Config{})
	}
}
