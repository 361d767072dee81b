package core

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestShardedPoolOwnerShardsAreIndependent(t *testing.T) {
	p := NewShardedPool[int](DepthPoolKind, 2)
	p.Shard(0).Push(Task[int]{Node: 10, Depth: 1})
	p.Shard(1).Push(Task[int]{Node: 20, Depth: 5})
	if task, ok := p.Shard(0).Pop(); !ok || task.Node != 10 {
		t.Fatalf("shard 0 pop = %v/%v, want 10", task.Node, ok)
	}
	if task, ok := p.Shard(0).Pop(); ok {
		t.Fatalf("shard 0 should be empty, got %v", task.Node)
	}
	if task, ok := p.Shard(1).Pop(); !ok || task.Node != 20 {
		t.Fatalf("shard 1 pop = %v/%v, want 20", task.Node, ok)
	}
}

func TestShardedPoolStealShallowestAcrossShards(t *testing.T) {
	p := NewShardedPool[string](DepthPoolKind, 3)
	p.Shard(0).Push(Task[string]{Node: "d4", Depth: 4})
	p.Shard(1).Push(Task[string]{Node: "d1", Depth: 1})
	p.Shard(1).Push(Task[string]{Node: "d7", Depth: 7})
	p.Shard(2).Push(Task[string]{Node: "d2", Depth: 2})
	// A transport thief must drain the locality shallowest-first
	// regardless of which shard holds each depth.
	want := []string{"d1", "d2", "d4", "d7"}
	for i, w := range want {
		task, ok := stealOne(p)
		if !ok || task.Node != w {
			t.Fatalf("steal %d = %q/%v, want %q", i, task.Node, ok, w)
		}
	}
	if _, ok := stealOne(p); ok {
		t.Fatal("pool should be empty")
	}
}

func TestShardedPoolStealExceptSkipsOwnShard(t *testing.T) {
	p := NewShardedPool[string](DepthPoolKind, 2)
	p.Shard(0).Push(Task[string]{Node: "mine", Depth: 0})
	p.Shard(1).Push(Task[string]{Node: "sibling", Depth: 9})
	task, ok := p.StealExcept(0)
	if !ok || task.Node != "sibling" {
		t.Fatalf("StealExcept(0) = %q/%v, want sibling (own shard skipped)", task.Node, ok)
	}
	if _, ok := p.StealExcept(0); ok {
		t.Fatal("own shard must stay invisible to StealExcept")
	}
	if task, ok := p.Shard(0).Pop(); !ok || task.Node != "mine" {
		t.Fatalf("own shard lost its task: %v/%v", task.Node, ok)
	}
}

func TestShardedPoolRoundRobinPushAndSize(t *testing.T) {
	p := NewShardedPool[int](DepthPoolKind, 3)
	for i := 0; i < 9; i++ {
		p.Push(Task[int]{Node: i, Depth: 0})
	}
	if p.Size() != 9 {
		t.Fatalf("Size = %d, want 9", p.Size())
	}
	for i := 0; i < 3; i++ {
		if n := p.Shard(i).Size(); n != 3 {
			t.Fatalf("shard %d holds %d tasks, want 3 (round-robin)", i, n)
		}
	}
}

func TestShardedPoolSingleShardIsSharedPool(t *testing.T) {
	// One shard is the pre-sharding oracle: everything behaves like one
	// depth pool.
	p := NewShardedPool[string](DepthPoolKind, 1)
	p.Push(Task[string]{Node: "a", Depth: 2})
	p.Push(Task[string]{Node: "b", Depth: 1})
	if task, _ := p.Shard(0).Pop(); task.Node != "a" {
		t.Fatalf("Pop = %q, want deepest-first a", task.Node)
	}
	if task, _ := stealOne(p); task.Node != "b" {
		t.Fatalf("Steal = %q, want b", task.Node)
	}
}

func TestShardedPoolConcurrent(t *testing.T) {
	p := NewShardedPool[int](DepthPoolKind, 4)
	poolConcurrencyCheck(t, p, func(owner int) (Task[int], bool) { return p.Shard(owner).Pop() })
}

// TestShardedPoolCountersUnderConcurrency drives every path that moves
// a shard counter at once — owners pushing and popping their own
// shards, a thief robbing with StealExcept, a spiller taking batches,
// unowned round-robin pushes — and checks the two things the engine
// relies on: the counters read zero at quiescence, and PeakTasks never
// under-reports. The reference count is raised only after a push has
// returned and lowered before a removal starts, so at every instant it
// is at most the pool's true backlog, and its peak at most the true
// peak.
func TestShardedPoolCountersUnderConcurrency(t *testing.T) {
	for _, kind := range []PoolKind{DepthPoolKind, PrioBucketKind} {
		const owners, rounds = 4, 4000
		p := NewShardedPool[int](kind, owners)
		var resident, observedPeak atomic.Int64
		pushed := func() { storeMax(&observedPeak, resident.Add(1)) }
		// taking reserves one task before trying to remove it; a failed
		// removal gives the reservation back.
		taking := func(remove func() (Task[int], bool)) {
			resident.Add(-1)
			if _, ok := remove(); !ok {
				resident.Add(1)
			}
		}

		var owning, robbing sync.WaitGroup
		stop := make(chan struct{})
		for w := 0; w < owners; w++ {
			owning.Add(1)
			go func(w int) {
				defer owning.Done()
				shard := p.Shard(w)
				for i := 0; i < rounds; i++ {
					for k := 0; k < 1+i%5; k++ {
						shard.Push(Task[int]{Node: i, Depth: i % 7, Prio: int32(i % 11)})
						pushed()
					}
					if i%16 == 0 {
						p.Push(Task[int]{Node: -i, Depth: 1}) // unowned, round-robin
						pushed()
					}
					for k := 0; k < i%4; k++ {
						taking(shard.Pop)
					}
				}
			}(w)
		}
		robbing.Add(2)
		go func() { // thief
			defer robbing.Done()
			for {
				select {
				case <-stop:
					return
				default:
					taking(func() (Task[int], bool) { return p.StealExcept(0) })
				}
			}
		}()
		go func() { // spiller
			defer robbing.Done()
			for {
				select {
				case <-stop:
					return
				default:
					resident.Add(-8)
					resident.Add(int64(8 - len(p.SpillBatch(8))))
				}
			}
		}()
		owning.Wait()
		close(stop)
		robbing.Wait()

		for {
			if _, ok := stealOne(p); !ok {
				break
			}
		}
		if p.Size() != 0 || p.Tasks() != 0 {
			t.Fatalf("kind %v: drained pool reports Size=%d Tasks=%d", kind, p.Size(), p.Tasks())
		}
		if peak, seen := p.PeakTasks(), observedPeak.Load(); peak < seen {
			t.Fatalf("kind %v: PeakTasks %d under-reports an observed backlog of %d", kind, peak, seen)
		}
	}
}

func TestDepthPoolMinDepth(t *testing.T) {
	p := newPool[int](DepthPoolKind)
	if d := p.StealRank(); d != -1 {
		t.Fatalf("empty MinDepth = %d, want -1", d)
	}
	p.Push(Task[int]{Node: 1, Depth: 5})
	p.Push(Task[int]{Node: 2, Depth: 3})
	if d := p.StealRank(); d != 3 {
		t.Fatalf("MinDepth = %d, want 3", d)
	}
	stealOne(p)
	if d := p.StealRank(); d != 5 {
		t.Fatalf("MinDepth after steal = %d, want 5", d)
	}
	p.Pop()
	if d := p.StealRank(); d != -1 {
		t.Fatalf("drained MinDepth = %d, want -1", d)
	}
}

// TestIntraLocalityStealDeterministic drives a locality directly: a
// worker with an empty shard must rob its sibling's shard
// (shallowest-first) without touching the transport, and what it robs is
// a run — half the sibling's best bucket, the first to run and the rest
// kept on its own shard, one robbery counted.
func TestIntraLocalityStealDeterministic(t *testing.T) {
	cfg := Config{Workers: 3, Localities: 1}.withDefaults()
	fab, ws := testWorkers[string](cfg)
	defer fab.close()
	loc := fab.home

	ws[0].shard.Push(Task[string]{Node: "deep", Depth: 6})
	ws[0].shard.Push(Task[string]{Node: "shallow", Depth: 1})
	ws[1].shard.Push(Task[string]{Node: "mid", Depth: 3})

	th0, th1, th2 := &ws[0].thief, &ws[1].thief, &ws[2].thief
	// Worker 2 owns an empty shard: it must steal the shallowest task
	// across its siblings.
	task, ok := loc.popOrSteal(th2)
	if !ok || task.Node != "shallow" {
		t.Fatalf("worker 2 got %q/%v, want shallow", task.Node, ok)
	}
	if th2.stats.LocalSteals != 1 {
		t.Fatalf("LocalSteals = %d, want 1", th2.stats.LocalSteals)
	}
	// Worker 0 still pops its own shard deepest-first, no steal
	// recorded.
	task, ok = loc.popOrSteal(th0)
	if !ok || task.Node != "deep" {
		t.Fatalf("worker 0 got %q/%v, want deep", task.Node, ok)
	}
	if th0.stats.LocalSteals != 0 {
		t.Fatalf("own-shard pop counted as steal: %d", th0.stats.LocalSteals)
	}
	// Worker 0, now empty, robs worker 1.
	task, ok = loc.popOrSteal(th0)
	if !ok || task.Node != "mid" || th0.stats.LocalSteals != 1 {
		t.Fatalf("worker 0 sibling steal got %q/%v (LocalSteals=%d)", task.Node, ok, th0.stats.LocalSteals)
	}
	// Everything drained: no transport peers, so popOrSteal reports
	// empty.
	if _, ok := loc.popOrSteal(th1); ok {
		t.Fatal("empty locality yielded a task")
	}

	// Ten tasks at one depth under a deeper one on worker 1's shard:
	// worker 2 robs half of the ten in one robbery, in spawn order, and
	// runs the rest from its own shard without another.
	ws[1].shard.Push(Task[string]{Node: "below", Depth: 4})
	for _, n := range []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"} {
		ws[1].shard.Push(Task[string]{Node: n, Depth: 2})
	}
	for _, want := range []string{"a", "b", "c", "d", "e"} {
		if task, ok := loc.popOrSteal(th2); !ok || task.Node != want {
			t.Fatalf("worker 2 got %q/%v of the robbed run, want %q", task.Node, ok, want)
		}
	}
	if th2.stats.LocalSteals != 2 || ws[2].shard.Size() != 0 || ws[1].shard.Size() != 6 {
		t.Fatalf("after one run of five: LocalSteals=%d (want 2), thief holds %d (want 0), victim %d (want 6)",
			th2.stats.LocalSteals, ws[2].shard.Size(), ws[1].shard.Size())
	}
}

// TestWorkerShardAssignment pins the worker → (locality, shard)
// mapping: workers spread round-robin over localities, then over the
// shards within each locality.
func TestWorkerShardAssignment(t *testing.T) {
	cfg := Config{Workers: 6, Localities: 2}.withDefaults()
	fab, ws := testWorkers[int](cfg)
	defer fab.close()
	if got := fab.locs[0].pool.Shards(); got != 3 {
		t.Fatalf("locality 0 has %d shards, want 3", got)
	}
	wantLoc := []int{0, 1, 0, 1, 0, 1}
	wantShard := []int{0, 0, 1, 1, 2, 2}
	for w, c := range ws {
		if c.loc != fab.locs[wantLoc[w]] || c.shard != c.loc.pool.Shard(wantShard[w]) || c.shardIdx != wantShard[w] {
			t.Fatalf("worker %d → (%d,%d), want (%d,%d)", w, c.loc.rank, c.shardIdx, wantLoc[w], wantShard[w])
		}
	}

	// The oracle tests' override pins everyone to the single shared shard.
	cfg1 := Config{Workers: 4, Localities: 1, shards: 1}.withDefaults()
	fab1, ws1 := testWorkers[int](cfg1)
	defer fab1.close()
	if fab1.home.pool.Shards() != 1 {
		t.Fatalf("shards=1 built %d shards", fab1.home.pool.Shards())
	}
	for w, c := range ws1 {
		if c.shard != fab1.home.pool.Shard(0) {
			t.Fatalf("worker %d shard %d, want 0", w, c.shardIdx)
		}
	}
}
