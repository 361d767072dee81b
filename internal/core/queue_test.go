package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"
)

// refQueue is the reference model the bucketed pools are checked
// against: one slice FIFO per key, nothing clever.
type refQueue struct {
	byKey map[int][]Task[int]
	size  int
}

func (r *refQueue) push(key int, t Task[int]) {
	r.byKey[key] = append(r.byKey[key], t)
	r.size++
}

// edge returns the lowest (dir < 0) or highest non-empty key, or -1.
func (r *refQueue) edge(dir int) int {
	best := -1
	for k, ts := range r.byKey {
		if len(ts) > 0 && (best < 0 || (dir < 0 && k < best) || (dir > 0 && k > best)) {
			best = k
		}
	}
	return best
}

func (r *refQueue) take(key int) (Task[int], bool) {
	if key < 0 {
		return Task[int]{}, false
	}
	t := r.byKey[key][0]
	r.byKey[key] = r.byKey[key][1:]
	r.size--
	return t, true
}

func (r *refQueue) spill(max int) []Task[int] {
	var out []Task[int]
	for len(out) < max && r.size > 0 {
		t, _ := r.take(r.edge(+1))
		out = append(out, t)
	}
	return out
}

// The bucketed pools against the model, over seeded random sequences of
// every operation they have. Batch sizes sit on and around the chunk
// boundary, one key at a time and interleaved, so FIFOs grow across
// chunks, drain across them, and hand chunks to each other through the
// free list.
func TestBucketQueueMatchesSliceModel(t *testing.T) {
	kinds := []struct {
		name string
		pool func() *bucketQueue[int]
		key  func(Task[int]) int
		pop  int // which end Pop takes
	}{
		{"depth", func() *bucketQueue[int] { return newPool[int](DepthPoolKind) }, func(t Task[int]) int { return t.Depth }, +1},
		{"prio", func() *bucketQueue[int] { return newPool[int](PrioBucketKind) }, func(t Task[int]) int { return int(clampPrio(int64(t.Prio))) }, -1},
	}
	sizes := []int{1, 2, chunkTasks - 1, chunkTasks, chunkTasks + 1, shedRun + 1, 2*chunkTasks + 3}
	for _, kind := range kinds {
		for seed := int64(1); seed <= 12; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", kind.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				p, ref := kind.pool(), &refQueue{byKey: map[int][]Task[int]{}}
				next := 0
				mint := func(key int) Task[int] {
					next++
					prio := int32(key)
					if key == 0 && rng.Intn(2) == 0 {
						prio = -7 // clamps to 0
					}
					return Task[int]{Node: next, Depth: key, Prio: prio}
				}
				randKey := func() int {
					if rng.Intn(20) == 0 {
						return 40 + rng.Intn(3) // far from the others: the cursors must travel
					}
					return rng.Intn(5)
				}
				for op := 0; op < 3000; op++ {
					switch r := rng.Intn(10); {
					case r < 2:
						task := mint(randKey())
						p.Push(task)
						ref.push(kind.key(task), task)
					case r < 4:
						n, key, mixed := sizes[rng.Intn(len(sizes))], randKey(), rng.Intn(2) == 0
						run := make([]Task[int], n)
						for i := range run {
							if mixed {
								key = randKey()
							}
							run[i] = mint(key)
							ref.push(kind.key(run[i]), run[i])
						}
						p.PushBatch(run)
					case r < 7:
						got, ok := p.Pop()
						want, wok := ref.take(ref.edge(kind.pop))
						if ok != wok || got != want {
							t.Fatalf("op %d: Pop = %+v/%v, model %+v/%v", op, got, ok, want, wok)
						}
					case r < 9:
						got, ok := stealOne(p)
						want, wok := ref.take(ref.edge(-1))
						if ok != wok || got != want {
							t.Fatalf("op %d: Steal = %+v/%v, model %+v/%v", op, got, ok, want, wok)
						}
					default:
						n := rng.Intn(200)
						if got, want := p.SpillBatch(n), ref.spill(n); !reflect.DeepEqual(got, want) {
							t.Fatalf("op %d: SpillBatch(%d) = %+v, model %+v", op, n, got, want)
						}
					}
					if p.Size() != ref.size {
						t.Fatalf("op %d: Size = %d, model %d", op, p.Size(), ref.size)
					}
					if got, want := p.StealRank(), ref.edge(-1); got != want {
						t.Fatalf("op %d: StealRank (MinDepth/BestPrio) = %d, model %d", op, got, want)
					}
				}
				for ref.size > 0 {
					got, _ := p.Pop()
					if want, _ := ref.take(ref.edge(kind.pop)); got != want {
						t.Fatalf("drain: Pop = %+v, model %+v", got, want)
					}
				}
				if _, ok := p.Pop(); ok || p.Size() != 0 || p.StealRank() != -1 {
					t.Fatalf("drained pool still reports work: size %d, rank %d", p.Size(), p.StealRank())
				}
			})
		}
	}
}

// A level costs what it holds: pushing a 100,000-task level allocates
// the tasks' own bytes plus a link per chunk, where append-doubling
// allocated about five times that; and a frontier that stays within
// what the pool has held before allocates nothing at all.
func TestBucketQueueAllocatesWhatItHolds(t *testing.T) {
	const wide = 100_000
	resident := float64(wide * unsafe.Sizeof(Task[int]{}))
	run := make([]Task[int], shedRun)
	for i := range run {
		run[i].Depth = 3
	}
	for _, batched := range []bool{false, true} {
		p := newPool[int](DepthPoolKind)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for n := 0; n < wide; n += len(run) {
			if batched {
				p.PushBatch(run)
			} else {
				for _, task := range run {
					p.Push(task)
				}
			}
		}
		runtime.ReadMemStats(&m1)
		bytes, mallocs := float64(m1.TotalAlloc-m0.TotalAlloc), m1.Mallocs-m0.Mallocs
		if bytes > 1.1*resident {
			t.Errorf("batched=%v: pushing %d tasks allocated %.0f bytes, %.2fx the %.0f they occupy (want <= 1.1x)",
				batched, p.Size(), bytes, bytes/resident, resident)
		}
		if limit := uint64(p.Size()/chunkTasks + 8); mallocs > limit {
			t.Errorf("batched=%v: %d allocations for %d tasks, want one per %d-task chunk (<= %d)",
				batched, mallocs, p.Size(), chunkTasks, limit)
		}
	}

	for _, p := range []*bucketQueue[int]{newPool[int](DepthPoolKind), newPool[int](PrioBucketKind), NewShardedPool[int](DepthPoolKind, 2).Shard(0)} {
		cycle := func() {
			for key := 0; key < 4; key++ {
				for i := range run {
					run[i].Depth, run[i].Prio = key, int32(key)
				}
				p.PushBatch(run)
				p.Push(run[0])
			}
			for _, ok := p.Pop(); ok; _, ok = p.Pop() {
			}
		}
		if n := testing.AllocsPerRun(50, cycle); n != 0 {
			t.Errorf("%T: %v allocations per steady-state push/pop cycle, want 0", p, n)
		}
	}
}

// A hand-over the ledger refuses — its capacity reached mid-batch, or
// the thief dead — must leave the pool as if nobody had asked: the task
// at the front of its key's FIFO stays at the front. (Taking it and
// pushing it back moved it behind its siblings, which reorders a
// depth's traversal and equal-priority work under an ordered search.)
// Both bucketed pools, with a key wider than a chunk so the front task
// sits in a chunk of its own history.
func TestRefusedHandOverLeavesPopOrderUnchanged(t *testing.T) {
	for name, kind := range map[string]PoolKind{"depth-keyed": DepthPoolKind, "priority-keyed": PrioBucketKind} {
		t.Run(name, func(t *testing.T) {
			// The same frontier twice: 2*chunkTasks+5 tasks on the key
			// thieves take from, a few on two others.
			fill := func() *ShardedPool[int] {
				p := NewShardedPool[int](kind, 1)
				for i := 0; i < 2*chunkTasks+5; i++ {
					p.Push(Task[int]{Node: i, Depth: 1, Prio: 1})
				}
				for i := 0; i < 7; i++ {
					p.Push(Task[int]{Node: 1000 + i, Depth: 3, Prio: 3})
					p.Push(Task[int]{Node: 2000 + i, Depth: 2, Prio: 2})
				}
				return p
			}
			drain := func(p *ShardedPool[int]) []int {
				var order []int
				for t, ok := p.Shard(0).Pop(); ok; t, ok = p.Shard(0).Pop() {
					order = append(order, t.Node)
				}
				return order
			}
			const thief, corpse = 1, 2
			h := testLocality(fill(), 2)
			h.fab.dead[corpse].Store(true)

			// A dead thief is refused outright; a live one is served until
			// the ledger is full, and refused the rest of its batch.
			if out, _ := h.ServeStealMulti(corpse, 4, nil, nil); len(out) != 0 {
				t.Fatalf("served %d tasks to a dead thief", len(out))
			}
			out, _ := h.ServeStealMulti(thief, 4, nil, nil)
			if len(out) != 2 {
				t.Fatalf("served %d tasks against a ledger of capacity 2", len(out))
			}
			if _, ok := h.ServeSteal(thief); ok {
				t.Fatal("served a task against a full ledger")
			}

			want := fill()
			for range out {
				want.StealExcept(-1)
			}
			if got, want := drain(h.pool), drain(want); !reflect.DeepEqual(got, want) {
				t.Fatalf("pop order after refused hand-overs:\n got %v\nwant %v", got, want)
			}
		})
	}
}
