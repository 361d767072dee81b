package core

import (
	"testing"
	"time"

	"yewpar/internal/pad"
)

func newTestSSState(chunked bool, workers, localities int) *ssState[int, int] {
	cfg := Config{Workers: workers, Localities: localities, Chunked: chunked, Seed: 1}.withDefaults()
	st := &ssState[int, int]{
		cfg:     cfg,
		tr:      newTracker(),
		cancel:  newCanceller(),
		workers: newWorkers[int, int](0, nil, cfg, func(int, *WorkerStats) visitor[int] { return nil }),
		ws:      make([]pad.Isolated[ssWorker[int]], cfg.Workers),
	}
	for i := range st.ws {
		st.ws[i].V.reqs = make(chan stealReq[int], cfg.Workers)
	}
	return st
}

func TestSplitTakesBottomMostNonEmpty(t *testing.T) {
	st := newTestSSState(false, 2, 1)
	stack := []NodeGenerator[int]{
		NewSliceGen[int](nil),      // exhausted: depth rootDepth+1
		NewSliceGen([]int{10, 11}), // bottom-most with work
		NewSliceGen([]int{20, 21, 22}),
	}
	sh := &st.workers[0].stats
	ts := st.split(stack, 5, sh)
	if len(ts) != 1 {
		t.Fatalf("unchunked split handed %d tasks", len(ts))
	}
	if ts[0].Node != 10 {
		t.Fatalf("split took %d, want first child of the lowest generator", ts[0].Node)
	}
	if ts[0].Depth != 5+1+1 {
		t.Fatalf("split task depth = %d, want rootDepth+index+1 = 7", ts[0].Depth)
	}
	if st.tr.live.Load() != 1 {
		t.Fatalf("tracker registered %d tasks", st.tr.live.Load())
	}
	if sh.Spawns != 1 {
		t.Fatalf("spawns = %d", sh.Spawns)
	}
	// the victim keeps the remaining sibling
	if !stack[1].HasNext() {
		t.Fatal("victim lost its remaining child")
	}
}

func TestSplitChunkedDrainsWholeLevel(t *testing.T) {
	st := newTestSSState(true, 2, 1)
	stack := []NodeGenerator[int]{
		NewSliceGen([]int{1, 2, 3}),
		NewSliceGen([]int{9}),
	}
	ts := st.split(stack, 0, &st.workers[0].stats)
	if len(ts) != 3 {
		t.Fatalf("chunked split handed %d tasks, want 3", len(ts))
	}
	for i, want := range []int{1, 2, 3} {
		if ts[i].Node != want {
			t.Fatalf("chunked order broken: %v", ts)
		}
	}
	if stack[0].HasNext() {
		t.Fatal("lowest generator should be drained")
	}
	if !stack[1].HasNext() {
		t.Fatal("higher generator must be untouched")
	}
}

func TestSplitAllExhausted(t *testing.T) {
	st := newTestSSState(false, 2, 1)
	stack := []NodeGenerator[int]{NewSliceGen[int](nil)}
	if ts := st.split(stack, 0, &st.workers[0].stats); ts != nil {
		t.Fatalf("split of empty stack handed %v", ts)
	}
}

func TestPickVictimPrefersLocal(t *testing.T) {
	st := newTestSSState(false, 4, 2) // locOf = [0 1 0 1]
	st.ws[1].V.serving.Store(true)    // remote to worker 0
	st.ws[2].V.serving.Store(true)    // local to worker 0
	r := st.workers[0].rand()
	for i := 0; i < 20; i++ {
		if v := st.pickVictim(0, r); v != 2 {
			t.Fatalf("picked %d, want local serving victim 2", v)
		}
	}
}

func TestPickVictimFallsBackToRemote(t *testing.T) {
	st := newTestSSState(false, 4, 2)
	st.ws[1].V.serving.Store(true) // only remote serving
	r := st.workers[0].rand()
	if v := st.pickVictim(0, r); v != 1 {
		t.Fatalf("picked %d, want remote victim 1", v)
	}
}

func TestPickVictimNoneServing(t *testing.T) {
	st := newTestSSState(false, 3, 1)
	r := st.workers[0].rand()
	if v := st.pickVictim(0, r); v != -1 {
		t.Fatalf("picked %d from an idle fleet", v)
	}
}

func TestDrainRequestsRepliesNil(t *testing.T) {
	st := newTestSSState(false, 2, 1)
	me := &st.ws[0].V
	req := stealReq[int]{resp: make(chan []Task[int], 1)}
	me.reqs <- req
	st.drainRequests(me)
	select {
	case ts := <-req.resp:
		if ts != nil {
			t.Fatalf("drained request got tasks %v", ts)
		}
	case <-time.After(time.Second):
		t.Fatal("drain never replied")
	}
}
