package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"yewpar/internal/dist"
)

// newTestIncumbent builds an incumbent and the localities that cache its
// bound, connected by a started loopback network with the given link
// latency.
func newTestIncumbent[N any](localities int, lat time.Duration) (*incumbent[N], []*locality[N]) {
	cfg := Config{Workers: localities, Localities: localities, NetFault: dist.LatencyPlan(lat)}.withDefaults()
	fab := newFabric[N](nil, nil, spawnRule{}, cfg)
	fab.inc = newIncumbent[N]()
	fab.start()
	return fab.inc, fab.locs
}

func TestIncumbentStrengthenMonotonic(t *testing.T) {
	in, locs := newTestIncumbent[string](1, 0)
	if _, _, has := in.result(); has {
		t.Fatal("fresh incumbent claims a result")
	}
	if !in.strengthen(locs[0], 10, "a") {
		t.Fatal("first strengthen rejected")
	}
	if in.strengthen(locs[0], 5, "b") {
		t.Fatal("weaker strengthen accepted")
	}
	if in.strengthen(locs[0], 10, "c") {
		t.Fatal("equal strengthen accepted")
	}
	if !in.strengthen(locs[0], 11, "d") {
		t.Fatal("stronger strengthen rejected")
	}
	n, obj, has := in.result()
	if !has || n != "d" || obj != 11 {
		t.Fatalf("result = %q/%d/%v", n, obj, has)
	}
}

func TestIncumbentLocalBestImmediate(t *testing.T) {
	in, locs := newTestIncumbent[int](3, 0)
	in.strengthen(locs[1], 42, 7)
	for i, l := range locs {
		if got := l.bound.V.Load(); got != 42 {
			t.Errorf("locality %d bound = %d, want 42 (zero latency)", i, got)
		}
	}
}

func TestIncumbentBoundLatency(t *testing.T) {
	in, locs := newTestIncumbent[int](2, 5*time.Millisecond)
	in.strengthen(locs[0], 99, 1)
	if locs[0].bound.V.Load() != 99 {
		t.Fatal("own locality must learn the bound immediately")
	}
	deadline := time.Now().Add(2 * time.Second)
	for locs[1].bound.V.Load() != 99 {
		if time.Now().After(deadline) {
			t.Fatal("remote locality never learned the bound")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestIncumbentConcurrentStrengthen(t *testing.T) {
	in, locs := newTestIncumbent[int](4, 0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				v := int64(w*1000 + i)
				in.strengthen(locs[w%4], v, int(v))
			}
		}(w)
	}
	wg.Wait()
	n, obj, has := in.result()
	if !has || obj != 7999 || n != 7999 {
		t.Fatalf("final incumbent = %d/%d, want 7999/7999", n, obj)
	}
	for i, l := range locs {
		if got := l.bound.V.Load(); got != 7999 {
			t.Errorf("locality %d bound = %d", i, got)
		}
	}
}

func TestCancellerIdempotent(t *testing.T) {
	c := newCanceller()
	if c.cancelled() {
		t.Fatal("fresh canceller cancelled")
	}
	c.cancel()
	c.cancel() // must not panic (double close)
	if !c.cancelled() {
		t.Fatal("cancel did not latch")
	}
	select {
	case <-c.ch:
	default:
		t.Fatal("channel not closed")
	}
}

func TestStoreMax(t *testing.T) {
	_, locs := newTestIncumbent[int](1, 0)
	c := &locs[0].bound.V
	storeMax(c, 5)
	storeMax(c, 3)
	if c.Load() != 5 {
		t.Fatalf("storeMax regressed to %d", c.Load())
	}
	storeMax(c, 9)
	if c.Load() != 9 {
		t.Fatalf("storeMax = %d, want 9", c.Load())
	}
}

// orderedTransport records what a locality's bound cache read when its
// transport was asked to broadcast.
type orderedTransport struct {
	dist.Transport
	cache    *atomic.Int64
	cachedAt int64
}

func (tr *orderedTransport) BroadcastBound(obj int64, node []byte) error {
	tr.cachedAt = tr.cache.Load()
	return tr.Transport.BroadcastBound(obj, node)
}

// A bound is cached — and so stamped on every task stolen from the
// locality — only once its broadcast has handed the node to the
// transport's retention: cached first, a locality killed between the two
// left thieves that knew the bound, would never strengthen to it again,
// and nobody that knew the node (TestDistOptMaxFailuresPolicy lost its
// optimum that way, 1 run in 20).
func TestIncumbentBroadcastsBeforeCaching(t *testing.T) {
	in, locs := newTestIncumbent[int](2, 0)
	tr := &orderedTransport{Transport: locs[0].tr, cache: &locs[0].bound.V}
	locs[0].tr = tr
	in.strengthen(locs[0], 10, 1)
	if tr.cachedAt >= 10 || locs[0].bound.V.Load() != 10 {
		t.Fatalf("cache read %d at the broadcast and %d after it, want below 10 and 10", tr.cachedAt, locs[0].bound.V.Load())
	}
}
