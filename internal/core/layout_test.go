package core

import (
	"sync/atomic"
	"testing"
	"unsafe"

	"yewpar/internal/pad"
	"yewpar/internal/semantics"
)

// The cache-line discipline, asserted: whatever one worker writes per
// node or per task keeps at least pad.Line bytes between itself and
// anything another worker touches, and every word shared by design
// sits alone. Type-level checks (unsafe.Sizeof/Offsetof) pin the
// padding the helper and the structs carry; address checks on what the
// constructors actually return pin that the constructors use it.

// span is the memory a value occupies.
type span struct {
	name     string
	lo, size uintptr
}

func spanOf[T any](name string, p *T) span {
	return span{name, uintptr(unsafe.Pointer(p)), unsafe.Sizeof(*p)}
}

// gap is the distance between two spans (0 when they touch or overlap).
func gap(a, b span) uintptr {
	if a.lo > b.lo {
		a, b = b, a
	}
	if a.lo+a.size >= b.lo {
		return 0
	}
	return b.lo - (a.lo + a.size)
}

// requireApart fails unless every pair of spans from different groups
// is at least pad.Line bytes apart.
func requireApart(t *testing.T, groups [][]span) {
	t.Helper()
	for i := range groups {
		for j := i + 1; j < len(groups); j++ {
			for _, a := range groups[i] {
				for _, b := range groups[j] {
					if g := gap(a, b); g < pad.Line {
						t.Errorf("%s and %s are %d bytes apart, want >= %d", a.name, b.name, g, pad.Line)
					}
				}
			}
		}
	}
}

// checkIsolated pins pad.Isolated's contract for one payload type.
func checkIsolated[T any](t *testing.T, name string) {
	t.Helper()
	var x pad.Isolated[T]
	lead := unsafe.Offsetof(x.V)
	tail := unsafe.Sizeof(x) - lead - unsafe.Sizeof(x.V)
	if lead < pad.Line || tail < pad.Line {
		t.Errorf("pad.Isolated[%s]: %d bytes before and %d after the value, want >= %d each", name, lead, tail, pad.Line)
	}
}

func TestIsolatedPadsBothSides(t *testing.T) {
	if pad.Line < 128 {
		t.Fatalf("pad.Line = %d, want >= 128 (adjacent-line prefetch pairs)", pad.Line)
	}
	checkIsolated[workerCtx[*semantics.Tree, string]](t, "workerCtx")
	checkIsolated[enumVisitor[*semantics.Tree, string, int64]](t, "enumVisitor")
	checkIsolated[bucketQueue[int]](t, "bucketQueue")
	checkIsolated[[]TaskEvent](t, "[]TaskEvent")
	checkIsolated[atomic.Int64](t, "atomic.Int64")
	checkIsolated[atomic.Uint32](t, "atomic.Uint32")
	checkIsolated[canceller](t, "canceller")
	checkIsolated[parker](t, "parker")
}

// TestWorkerContextsShareNoLine checks the contexts newWorkers really
// builds: each worker's context and its visitor (whose accumulator is
// written on every node) stay a pad away from every other worker's.
func TestWorkerContextsShareNoLine(t *testing.T) {
	tree := semantics.GenTree(3, 3, 5)
	p := enumProblem()
	ws := newWorkers(tree, p.Gen, Config{Workers: 4}, nil, func(th *thief[string]) visitor[string] {
		return newEnumVisitor(tree, p, &th.stats)
	})
	groups := make([][]span, len(ws))
	for w, c := range ws {
		v := c.visitor.(*enumVisitor[*semantics.Tree, string, int64])
		if v.shard != &c.stats {
			t.Fatalf("worker %d's visitor counts outside its context", w)
		}
		groups[w] = []span{spanOf("workerCtx", c), spanOf("enumVisitor", v)}
	}
	requireApart(t, groups)
}

// TestPoolShardsShareNoLine checks a ShardedPool's hot words: every
// shard's header (locked on every owner operation) and counter block
// (summed by readers that take no lock), the unowned-push cursor, and the
// shard table's own header.
func TestPoolShardsShareNoLine(t *testing.T) {
	for _, kind := range []PoolKind{DepthPoolKind, PrioBucketKind} {
		p := NewShardedPool[int](kind, 4)
		groups := [][]span{
			{spanOf("ShardedPool.shards", &p.shards)},
			{spanOf("ShardedPool.next", &p.next.V)},
		}
		for i := 0; i < p.Shards(); i++ {
			q := p.Shard(i)
			groups = append(groups, []span{spanOf("bucketQueue", q)})
			requireApart(t, [][]span{
				{spanOf("bucketQueue.mu", &q.mu), spanOf("bucketQueue.max", &q.max)},
				{spanOf("bucketQueue.n", &q.n.V)},
			})
		}
		requireApart(t, groups)
	}
}

// TestSharedWordsSitAlone covers the words every worker of a locality
// touches by design. Constructors that return an isolated block are
// checked by allocating two back to back — plain allocations of these
// small types land side by side in one size-class span.
func TestSharedWordsSitAlone(t *testing.T) {
	requireApart(t, [][]span{{spanOf("parker", newParker(2))}, {spanOf("parker", newParker(2))}})
	requireApart(t, [][]span{{spanOf("canceller", newCanceller())}, {spanOf("canceller", newCanceller())}})

	// Per-locality bound caches (read per node) and trace shards
	// (appended per task) are slices of isolated elements.
	fab := newFabric[int](nil, nil, spawnRule{split: true}, Config{Workers: 3, Localities: 3}.withDefaults())
	defer fab.close()
	tr := NewTrace(3)
	var caches, shards [][]span
	for i, l := range fab.locs {
		caches = append(caches, []span{spanOf("locality.bound", &l.bound.V)})
		shards = append(shards, []span{spanOf("Trace.shards", &tr.shards[i].V)})
		// The bound is read per node; what the locality's transport
		// goroutines lock per steal must not share its line.
		requireApart(t, [][]span{{spanOf("locality.bound", &l.bound.V)}, {spanOf("locality.fams", &l.fams), spanOf("locality.victims", &l.victims)}})
		// Under a splitting rule the hungry word is read per step and the
		// active count written per task, by every worker: each on its own
		// line, apart from the bound and from what the transport locks.
		requireApart(t, [][]span{
			{spanOf("locality.bound", &l.bound.V)},
			{spanOf("locality.hungry", &l.hungry.V)},
			{spanOf("locality.active", &l.active.V)},
			{spanOf("locality.fed", &l.fed), spanOf("locality.victims", &l.victims)},
		})
	}
	requireApart(t, caches)
	requireApart(t, shards)
}
