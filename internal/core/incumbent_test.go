package core

import (
	"sync"
	"testing"
	"time"

	"yewpar/internal/dist"
)

// newTestIncumbent builds an incumbent whose localities are connected
// by a started loopback network with the given link latency — the
// transport-backed replacement for the old direct-broadcast incumbent.
func newTestIncumbent[N any](localities int, lat time.Duration) *incumbent[N] {
	cfg := Config{Workers: localities, Localities: localities, NetFault: dist.LatencyPlan(lat)}.withDefaults()
	fab := newLoopbackFabric[N](cfg)
	in := newIncumbent[N](fab.trs)
	fab.bounds = in
	fab.start(newCanceller())
	return in
}

func TestIncumbentStrengthenMonotonic(t *testing.T) {
	in := newTestIncumbent[string](1, 0)
	if _, _, has := in.result(); has {
		t.Fatal("fresh incumbent claims a result")
	}
	if !in.strengthen(0, 10, "a") {
		t.Fatal("first strengthen rejected")
	}
	if in.strengthen(0, 5, "b") {
		t.Fatal("weaker strengthen accepted")
	}
	if in.strengthen(0, 10, "c") {
		t.Fatal("equal strengthen accepted")
	}
	if !in.strengthen(0, 11, "d") {
		t.Fatal("stronger strengthen rejected")
	}
	n, obj, has := in.result()
	if !has || n != "d" || obj != 11 {
		t.Fatalf("result = %q/%d/%v", n, obj, has)
	}
}

func TestIncumbentLocalBestImmediate(t *testing.T) {
	in := newTestIncumbent[int](3, 0)
	in.strengthen(1, 42, 7)
	for loc := 0; loc < 3; loc++ {
		if in.localBest(loc) != 42 {
			t.Errorf("locality %d bound = %d, want 42 (zero latency)", loc, in.localBest(loc))
		}
	}
}

func TestIncumbentBoundLatency(t *testing.T) {
	in := newTestIncumbent[int](2, 5*time.Millisecond)
	in.strengthen(0, 99, 1)
	if in.localBest(0) != 99 {
		t.Fatal("own locality must learn the bound immediately")
	}
	deadline := time.Now().Add(2 * time.Second)
	for in.localBest(1) != 99 {
		if time.Now().After(deadline) {
			t.Fatal("remote locality never learned the bound")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestIncumbentConcurrentStrengthen(t *testing.T) {
	in := newTestIncumbent[int](4, 0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				v := int64(w*1000 + i)
				in.strengthen(w%4, v, int(v))
			}
		}(w)
	}
	wg.Wait()
	n, obj, has := in.result()
	if !has || obj != 7999 || n != 7999 {
		t.Fatalf("final incumbent = %d/%d, want 7999/7999", n, obj)
	}
	for loc := 0; loc < 4; loc++ {
		if in.localBest(loc) != 7999 {
			t.Errorf("locality %d bound = %d", loc, in.localBest(loc))
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
	in := newTestIncumbent[int](1, 0)
	c := &in.caches[0].V
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
