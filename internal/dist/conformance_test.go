package dist

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Transport conformance suite: the contract the engine relies on, case
// by case, asserted against every implementation through a recording
// handler — identity, steal and split replies, priorities and their
// summaries, bounds, cancel, acks, a late reply. Four harnesses run it:
// loopback, loopback-latency (every link delayed), tcp and tcp-mesh. The
// fault contract — gather, deaths, a steal pending on a victim that dies —
// is the TCP endpoint's alone (in-process localities never die: a closed
// one is only detached), so its cases run on the wires. Whole deployments —
// termination under steals and coalesced deltas, worker and coordinator
// deaths, what a takeover keeps, partitions that heal, no goroutine
// outliving Close — are internal/core's harness rows (harness_test.go: the
// …SurvivesWorkerDeath rows, TestStandbyCoordinatorDiesMidSearch and the
// TestStandby… rows beside it), where a real search over TCP is held to the
// tree's own answer; chaos_test.go keeps the takeover steps no row reaches.

// harness builds a connected deployment of n localities.
type harness struct {
	name string
	make func(t *testing.T, n int) []Transport
}

// makeTCP builds a TCP deployment with the given wire options; the
// harness list instantiates it for both topologies.
func makeTCP(t testing.TB, n int, opts WireOptions) []Transport {
	l, err := NewListenerOpts("127.0.0.1:0", "conformance", opts)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	trs := make([]Transport, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr, err := DialOpts(l.Addr(), "conformance", opts)
			if err != nil {
				errs[i] = err
				return
			}
			// Ranks are assigned in registration order, which
			// is racy across concurrent dials: index by the
			// assigned rank, not the goroutine.
			trs[tr.Rank()] = tr
		}(i)
	}
	coord, err := l.Wait(n - 1)
	wg.Wait()
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	for _, e := range errs {
		if e != nil {
			t.Fatalf("dial: %v", e)
		}
	}
	trs[0] = coord
	t.Cleanup(func() {
		for _, tr := range trs {
			if tr != nil {
				tr.Close()
			}
		}
	})
	return trs
}

func harnesses() []harness { return append(loopbacks(), wires(WireOptions{})...) }

// loopbacks are the loopback harnesses, direct and with every link
// delayed. In-process localities never die (TestLoopbackCloseDetaches),
// and nothing is gathered or retained.
func loopbacks() []harness {
	loopback := func(fault *FaultPlan) func(t *testing.T, n int) []Transport {
		return func(t *testing.T, n int) []Transport {
			net := NewLoopback(n, LoopbackOptions{Fault: fault})
			t.Cleanup(func() { net.Close() })
			return net.Transports()
		}
	}
	return []harness{{name: "loopback", make: loopback(nil)}, {name: "loopback-latency", make: loopback(LatencyPlan(200 * time.Microsecond))}}
}

// wires are the TCP harnesses under opts, star first: the fault contract's.
func wires(opts WireOptions) []harness {
	mesh := opts
	mesh.Topology = TopologyMesh
	return []harness{
		{name: "tcp", make: func(t *testing.T, n int) []Transport { return makeTCP(t, n, opts) }},
		{name: "tcp-mesh", make: func(t *testing.T, n int) []Transport { return makeTCP(t, n, mesh) }},
	}
}

// recHandler records everything the transport delivers.
type recHandler struct {
	mu         sync.Mutex
	tasks      []WireTask
	splitTasks []WireTask // tasks only a stack split can reach (not pool-stealable)
	adopted    []WireTask // late steal replies re-homed via OnTask
	acks       []ack      // hand-over ids acked back to this locality, with their values
	boundMax   atomic.Int64
	bounds     []int64 // delivery order, for monotonicity of the merge
	cancelled  atomic.Int64
	splits     atomic.Int64 // ServeSplit calls that reached the split list
	serveDelay time.Duration
	mourned    []int // the deaths announced, in order
}

func (h *recHandler) ServeSteal(thief int) (WireTask, bool) {
	if h.serveDelay > 0 {
		time.Sleep(h.serveDelay)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.tasks) == 0 {
		return WireTask{}, false
	}
	t := h.tasks[0]
	h.tasks = h.tasks[1:]
	return t, true
}

// ServeSplit implements StackSplitter the way a real locality does:
// pool work first, then work only a live-stack split can produce.
func (h *recHandler) ServeSplit(thief, max int) []WireTask {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []WireTask
	for len(out) < max && len(h.tasks) > 0 {
		out = append(out, h.tasks[0])
		h.tasks = h.tasks[1:]
	}
	if len(out) < max && len(h.splitTasks) > 0 {
		out = append(out, h.splitTasks[0])
		h.splitTasks = h.splitTasks[1:]
		h.splits.Add(1)
	}
	return out
}

func (h *recHandler) pushSplit(t WireTask) {
	h.mu.Lock()
	h.splitTasks = append(h.splitTasks, t)
	h.mu.Unlock()
}

func (h *recHandler) OnTask(t WireTask) {
	h.mu.Lock()
	h.adopted = append(h.adopted, t)
	h.mu.Unlock()
}

func (h *recHandler) OnBound(from int, obj int64) {
	h.mu.Lock()
	h.bounds = append(h.bounds, obj)
	h.mu.Unlock()
	for {
		cur := h.boundMax.Load()
		if obj <= cur || h.boundMax.CompareAndSwap(cur, obj) {
			return
		}
	}
}

func (h *recHandler) OnCancel(from int) { h.cancelled.Add(1) }

func (h *recHandler) OnAck(from int, id uint64) { h.OnAckValue(from, id, nil) }

func (h *recHandler) OnAckValue(from int, id uint64, val []byte) {
	h.mu.Lock()
	h.acks = append(h.acks, ack{id, bytes.Clone(val)})
	h.mu.Unlock()
}

func (h *recHandler) OnDeath(rank int) {
	h.mu.Lock()
	h.mourned = append(h.mourned, rank)
	h.mu.Unlock()
}

func (h *recHandler) heard() []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]int{}, h.mourned...)
}

func (h *recHandler) acked() []ack {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]ack{}, h.acks...)
}

// BestStealPrio implements StealRanker the way a real locality does:
// the best (lowest) priority among the tasks a thief could take.
func (h *recHandler) BestStealPrio() (int, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.tasks) == 0 {
		return 0, false
	}
	best := h.tasks[0].Prio
	for _, t := range h.tasks {
		if t.Prio < best {
			best = t.Prio
		}
	}
	if best < 0 {
		best = 0
	}
	return best, true
}

func (h *recHandler) push(t WireTask) {
	h.mu.Lock()
	h.tasks = append(h.tasks, t)
	h.mu.Unlock()
}

// drain empties the handler's task queue and adopted list, returning
// all held tasks.
func (h *recHandler) drain() []WireTask {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := append([]WireTask{}, h.tasks...)
	out = append(out, h.adopted...)
	h.tasks, h.adopted = nil, nil
	return out
}

func startAll(trs []Transport) []*recHandler {
	hs := make([]*recHandler, len(trs))
	for i, tr := range trs {
		hs[i] = &recHandler{}
		hs[i].boundMax.Store(-1 << 62)
		tr.Start(hs[i])
	}
	return hs
}

func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestConformanceIdentity(t *testing.T) {
	for _, h := range harnesses() {
		t.Run(h.name, func(t *testing.T) {
			trs := h.make(t, 3)
			startAll(trs)
			seen := map[int]bool{}
			for _, tr := range trs {
				if tr.Size() != 3 {
					t.Errorf("size = %d, want 3", tr.Size())
				}
				if seen[tr.Rank()] {
					t.Errorf("duplicate rank %d", tr.Rank())
				}
				seen[tr.Rank()] = true
			}
			for r := 0; r < 3; r++ {
				if !seen[r] {
					t.Errorf("missing rank %d", r)
				}
			}
		})
	}
}

// A steal hands the thief the victim's task whole — payload, depth,
// bound, and the priority an ordered search re-enqueues it at (a
// transport that zeroes or reorders Prio destroys the global search
// order: the v2 → v3 frame change) — and an empty victim leaves it
// empty-handed, not in error. So does the routed worker→worker steal, and
// every task of a batch, handed over or adopted through OnTask.
func TestConformanceStealRequestReply(t *testing.T) {
	for _, h := range harnesses() {
		t.Run(h.name, func(t *testing.T) {
			trs := h.make(t, 3)
			hs := startAll(trs)
			want := WireTask{Payload: []byte("node-bytes"), Depth: 4, Prio: 7, Bound: 17}
			hs[1].push(want)
			got, ok, err := trs[0].Steal(1)
			if err != nil || !ok || !bytes.Equal(got.Payload, want.Payload) || got.Depth != want.Depth || got.Prio != want.Prio || got.Bound != want.Bound {
				t.Fatalf("steal from stocked victim: %+v ok=%v err=%v, want %+v", got, ok, err, want)
			}
			if _, ok, err := trs[0].Steal(1); ok || err != nil {
				t.Fatalf("steal from empty victim: ok=%v err=%v", ok, err)
			}
			// Worker→worker: routed through the hub on a star.
			hs[2].push(WireTask{Payload: []byte("w2"), Depth: 1, Prio: 3})
			got, ok, err = trs[1].Steal(2)
			if err != nil || !ok || !bytes.Equal(got.Payload, []byte("w2")) || got.Prio != 3 {
				t.Fatalf("worker-to-worker steal: %+v ok=%v err=%v, want w2 at Prio 3", got, ok, err)
			}

			// Batch extras: stock the victim beyond one task; every task
			// the thief receives — handed over or adopted via OnTask —
			// keeps its own priority. (The loopback transport serves one
			// task per steal; the assertions below still hold trivially.)
			prios := map[string]int{"b0": 5, "b1": 2, "b2": 9}
			for name, p := range prios {
				hs[1].push(WireTask{Payload: []byte(name), Depth: 2, Prio: p})
			}
			seen := map[string]int{}
			for len(seen) < len(prios) {
				wt, ok, err := trs[0].Steal(1)
				if err != nil {
					t.Fatalf("batch steal: %v", err)
				}
				if ok {
					seen[string(wt.Payload)] = wt.Prio
				}
				hs[0].mu.Lock()
				for _, a := range hs[0].adopted {
					seen[string(a.Payload)] = a.Prio
				}
				hs[0].mu.Unlock()
			}
			for name, p := range prios {
				if seen[name] != p {
					t.Fatalf("task %s arrived with prio %d, want %d (seen: %v)", name, seen[name], p, seen)
				}
			}
		})
	}
}

// Every bundled transport must speak kSplit (v6): a split steal
// reaches work a pool steal cannot — the victim handler's live
// generator stacks — while still preferring pool work when it exists.
func TestConformanceSplitSteal(t *testing.T) {
	for _, h := range harnesses() {
		t.Run(h.name, func(t *testing.T) {
			trs := h.make(t, 3)
			hs := startAll(trs)

			ss := trs[0]
			// Pool work wins when present. (Pushed alone: a batching
			// transport would otherwise carry the split task home as a
			// re-homed extra in the same reply.)
			hs[1].push(WireTask{Payload: []byte("pooled"), Depth: 2})
			got, ok, err := ss.SplitSteal(1)
			if err != nil || !ok || !bytes.Equal(got.Payload, []byte("pooled")) {
				t.Fatalf("split steal with pool work: %+v ok=%v err=%v", got, ok, err)
			}
			// Pool dry: the split path serves.
			hs[1].pushSplit(WireTask{Payload: []byte("split-a"), Depth: 5})
			got, ok, err = ss.SplitSteal(1)
			if err != nil || !ok || !bytes.Equal(got.Payload, []byte("split-a")) {
				t.Fatalf("split steal from dry pool: %+v ok=%v err=%v", got, ok, err)
			}
			if hs[1].splits.Load() == 0 {
				t.Fatal("victim's split list never served")
			}
			// Nothing splittable either: empty-handed, not an error.
			if _, ok, err := ss.SplitSteal(1); ok || err != nil {
				t.Fatalf("split steal from empty victim: ok=%v err=%v", ok, err)
			}
			// Worker→worker split routes too (hub-forwarded on the star,
			// direct on the mesh).
			wss := trs[1]
			hs[2].pushSplit(WireTask{Payload: []byte("split-b"), Depth: 7})
			got, ok, err = wss.SplitSteal(2)
			if err != nil || !ok || !bytes.Equal(got.Payload, []byte("split-b")) {
				t.Fatalf("worker-to-worker split steal: %+v ok=%v err=%v", got, ok, err)
			}
		})
	}
}

// Bounds published from every rank at once, while steal replies carry
// piggybacked bounds out of order with the broadcasts (routed through the
// hub on a star): every rank learns the strongest bound any peer
// published, none hears one beyond it, and the merge (monotonic max)
// absorbs the disorder — the running max never regresses.
func TestConformanceBoundBroadcastMonotonic(t *testing.T) {
	for _, h := range harnesses() {
		t.Run(h.name, func(t *testing.T) {
			trs := h.make(t, 3)
			hs := startAll(trs)
			var wg sync.WaitGroup
			for r, tr := range trs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 1; i <= 50; i++ {
						tr.BroadcastBound(int64(100*i+r), nil)
					}
				}()
			}
			wg.Add(1)
			go func() { // steal traffic rank 2 → rank 1, interleaved
				defer wg.Done()
				for i := 0; i < 60; i++ {
					hs[1].push(WireTask{Payload: []byte("t"), Depth: i, Bound: int64(i)})
					trs[2].Steal(1)
				}
			}()
			wg.Wait()
			// A rank's own strongest is 5000+r; its peers' are 5000+other.
			for r := range trs {
				want := int64(5002 - r/2)
				eventually(t, fmt.Sprintf("%s rank %d to learn max bound", h.name, r), func() bool {
					return hs[r].boundMax.Load() >= want
				})
			}
			for r := range trs {
				hs[r].mu.Lock()
				top := int64(-1 << 62)
				for _, b := range hs[r].bounds {
					top = max(top, b)
				}
				hs[r].mu.Unlock()
				if got := hs[r].boundMax.Load(); got != top || top > 5002 {
					t.Errorf("rank %d merged max %d, delivered max %d, published max 5002", r, got, top)
				}
			}
		})
	}
}

func TestConformanceCancelPropagates(t *testing.T) {
	for _, h := range harnesses() {
		t.Run(h.name, func(t *testing.T) {
			trs := h.make(t, 3)
			hs := startAll(trs)
			trs[1].Cancel(0, nil)
			eventually(t, "cancel to reach rank 0", func() bool { return hs[0].cancelled.Load() > 0 })
			eventually(t, "cancel to reach rank 2", func() bool { return hs[2].cancelled.Load() > 0 })
		})
	}
}

// The terminal gather: a share leaves a rank only after Done — a worker
// that gathers mid-search sends nothing and does not return until the
// search ends — and the coordinator then collects every rank's share in
// its slot, while the others get none. On the star, the mesh, and both
// with a standby; in process there is nothing to gather, and Gather errs.
func TestConformanceGather(t *testing.T) {
	hs := harnesses()
	for _, h := range wires(WireOptions{Standby: true}) {
		hs = append(hs, harness{"standby-" + h.name, h.make})
	}
	for _, h := range hs {
		t.Run(h.name, func(t *testing.T) {
			trs := h.make(t, 3)
			startAll(trs)
			if strings.HasPrefix(h.name, "loopback") {
				for r, tr := range trs {
					if blobs, err := tr.Gather([]byte{byte(r + 1)}); err == nil || blobs != nil {
						t.Errorf("rank %d gathered %v (error %v) in process", r, blobs, err)
					}
				}
				return
			}
			trs[1].AddTasks(1)
			sent := make(chan error, 1)
			go func() { _, err := trs[2].Gather([]byte{3}); sent <- err }()
			time.Sleep(100 * time.Millisecond)
			e0 := trs[0].(*endpoint)
			e0.gatherMu.Lock()
			early := e0.contrib[2]
			e0.gatherMu.Unlock()
			if len(sent) > 0 || early {
				t.Fatalf("mid-search, rank 2's gather returned (%v) or its share landed (%v)", len(sent) > 0, early)
			}
			trs[1].AddTasks(-1)
			select {
			case err := <-sent:
				if err != nil {
					t.Fatalf("rank 2 gather: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("rank 2's gather still waits after the search ended")
			}
			if blobs, err := trs[1].Gather([]byte{2}); err != nil || blobs != nil {
				t.Fatalf("rank 1 gather: %q, %v", blobs, err)
			}
			got, err := trs[0].Gather([]byte{1})
			if err != nil || len(got) != 3 {
				t.Fatalf("gathered %q (error %v), want 3 shares", got, err)
			}
			for r, b := range got {
				if len(b) != 1 || b[0] != byte(r+1) {
					t.Errorf("rank %d slot = %v", r, b)
				}
			}
		})
	}
}

// Best-available-priority summaries flow to peers: on the loopback
// network PeerBestPrio is exact; over TCP it is learned from the
// piggybacked frame headers, both at the hub (from any worker frame)
// and at a worker (from frames routed to it).
func TestConformancePrioSummaries(t *testing.T) {
	for _, h := range harnesses() {
		t.Run(h.name, func(t *testing.T) {
			trs := h.make(t, 3)
			hs := startAll(trs)
			pa0 := trs[0]
			hs[1].push(WireTask{Payload: []byte("x"), Depth: 1, Prio: 4})

			// Any frame from rank 1 carries its summary; provoke one.
			trs[1].BroadcastBound(1, nil)
			eventually(t, "coordinator to learn rank 1's summary", func() bool {
				p, known := pa0.PeerBestPrio(1)
				return known && p == 4
			})

			// A worker learns a peer's summary from frames routed to it:
			// the steal reply itself refreshes rank 2's view of rank 1.
			if _, ok, _ := trs[2].Steal(1); !ok {
				t.Fatal("steal from stocked rank 1 failed")
			}
			eventually(t, "rank 2 to learn rank 1's summary", func() bool {
				_, known := trs[2].PeerBestPrio(1)
				return known
			})

			// Drained victims advertise empty (PrioNone) on later frames.
			for {
				if _, ok, _ := trs[0].Steal(1); !ok {
					break
				}
			}
			trs[1].BroadcastBound(2, nil)
			eventually(t, "rank 1 to advertise empty", func() bool {
				p, known := pa0.PeerBestPrio(1)
				return known && p == PrioNone
			})

			// Unknown ranks stay unknown (nothing heard from rank 2 at
			// the hub is only possible on TCP; the loopback answers
			// exactly, so just require a sane response).
			if p, known := pa0.PeerBestPrio(99); known {
				t.Fatalf("out-of-range rank known with prio %d", p)
			}
		})
	}
}

// A steal reply that lands after the request timed out carries a task
// that already left its victim's pool: the transport must hand it to
// the thief's handler (OnTask) rather than drop part of the search
// tree. TCP-specific — the loopback transport replies synchronously.
func TestTCPLateStealReplyAdopted(t *testing.T) {
	old := stealTimeout
	stealTimeout = 50 * time.Millisecond
	defer func() { stealTimeout = old }()

	trs := wires(WireOptions{})[0].make(t, 3) // tcp
	hs := startAll(trs)
	hs[1].serveDelay = 300 * time.Millisecond

	for thief, tr := range []Transport{trs[0], trs[2]} {
		hs[1].push(WireTask{Payload: []byte("slow"), Depth: 2})
		if _, ok, err := tr.Steal(1); ok || err != nil {
			t.Fatalf("thief %d: steal should time out, got ok=%v err=%v", thief, ok, err)
		}
		h := hs[[]int{0, 2}[thief]]
		eventually(t, "late reply to be adopted", func() bool {
			h.mu.Lock()
			defer h.mu.Unlock()
			return len(h.adopted) > 0 && string(h.adopted[len(h.adopted)-1].Payload) == "slow"
		})
	}
}

// awaitDeath waits until a survivor's handler has heard of rank's death,
// and checks it heard of no death twice.
func awaitDeath(t *testing.T, tr Transport, rank int) {
	t.Helper()
	h := tr.(*endpoint).handler().(*recHandler)
	eventually(t, fmt.Sprintf("rank %d to hear of rank %d's death", tr.Rank(), rank), func() bool { return slices.Contains(h.heard(), rank) })
	if heard := h.heard(); len(slices.Compact(slices.Sorted(slices.Values(heard)))) != len(heard) {
		t.Fatalf("rank %d heard of deaths %v", tr.Rank(), heard)
	}
}

// A loopback locality's Close only detaches it: nobody hears of a death,
// takes the role or the root over, or retains a node, and live work holds
// the search open; nothing is stolen from or by a closed locality, and
// steals and bounds still flow between the rest.
func TestLoopbackCloseDetaches(t *testing.T) {
	for _, h := range loopbacks() {
		t.Run(h.name, func(t *testing.T) {
			trs := h.make(t, 4)
			hs := startAll(trs)
			trs[1].AddTasks(1)
			trs[2].BroadcastBound(30, []byte("node-30"))
			trs[0].Close()
			trs[2].Close()
			hs[3].push(WireTask{Payload: []byte("alive"), Depth: 2})
			if _, ok, _ := trs[1].Steal(2); ok {
				t.Error("rank 1 stole from a closed locality")
			}
			if _, ok, _ := trs[2].Steal(3); ok {
				t.Error("a closed locality stole from rank 3")
			}
			if _, ok, err := trs[1].Steal(3); !ok || err != nil {
				t.Fatalf("steal between open localities: ok=%v err=%v", ok, err)
			}
			trs[1].BroadcastBound(77, nil)
			eventually(t, "bound to reach rank 3", func() bool { return hs[3].boundMax.Load() == 77 })
			for _, r := range []int{1, 3} {
				_, _, took := trs[r].Root()
				if _, _, kept := trs[r].BestKnown(); len(hs[r].heard()) > 0 || trs[r].Promoted() || took || kept {
					t.Errorf("rank %d: a death, a promotion, the root or a node taken over in process", r)
				}
			}
			select {
			case <-trs[1].Done():
				t.Fatal("closing localities ended a search with live work")
			default:
			}
		})
	}
}

// Completion acks round-trip: the thief's ack, and the value it carries,
// reach the handler of the rank that minted the id — directly at the
// hub, and routed for worker→worker supervision.
func TestConformanceAckRoundTrip(t *testing.T) {
	for _, h := range harnesses() {
		t.Run(h.name, func(t *testing.T) {
			trs := h.make(t, 3)
			hs := startAll(trs)

			// Worker to hub, worker to worker (routed on a star, its value
			// with it), hub to worker (an empty value is still one).
			for origin, val := range [][]byte{nil, []byte("fold"), {}} {
				from, id := (origin+1)%3, TaskID(origin, uint64(8+origin))
				if err := trs[from].AckValue(origin, id, val); err != nil {
					t.Fatalf("ack from %d to %d: %v", from, origin, err)
				}
				eventually(t, fmt.Sprintf("rank %d to receive rank %d's ack", origin, from), func() bool {
					got := hs[origin].acked()
					return len(got) == 1 && got[0].ID == id && string(got[0].Val) == string(val) && (got[0].Val == nil) == (val == nil)
				})
			}
			if id12 := TaskID(1, 7); TaskOrigin(id12) != 1 || TaskOrigin(0) != -1 {
				t.Fatalf("TaskOrigin broken: %d %d", TaskOrigin(id12), TaskOrigin(0))
			}
		})
	}
}

// A death mid-search, from the survivors' side: a thief whose steal is
// pending on the dying victim is released empty-handed promptly (the reply
// can never come), not after the steal timeout; and a Close before Done is
// a crash, so nothing leaves the corpse once its Close began — not an ack
// it buffered (the flush quantum is an hour), nor a cancel or a bound it
// sends while its links are still being torn down.
func TestConformanceDeathDuringSteal(t *testing.T) {
	old := stealTimeout
	stealTimeout = 20 * time.Second
	defer func() { stealTimeout = old }()
	for _, h := range wires(WireOptions{FlushQuantum: time.Hour}) {
		t.Run(h.name, func(t *testing.T) {
			trs := h.make(t, 3)
			hs := startAll(trs)
			hs[2].serveDelay = 30 * time.Second // the victim will never answer in time
			hs[2].push(WireTask{Payload: []byte("x"), Depth: 1})

			res := make(chan bool, 1)
			go func() {
				_, ok, _ := trs[1].Steal(2)
				res <- ok
			}()
			time.Sleep(100 * time.Millisecond) // let the request reach the victim
			trs[2].Ack(0, TaskID(0, 9))
			go trs[2].Close()
			for !trs[2].(*endpoint).closed.Load() {
				runtime.Gosched()
			}
			trs[2].Cancel(5, nil)
			trs[2].BroadcastBound(55, []byte("corpse"))
			select {
			case ok := <-res:
				if ok {
					t.Fatal("steal from a dying victim succeeded after its death")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("thief not released when its victim died")
			}
			for r := range 2 {
				awaitDeath(t, trs[r], 2)
				if hs[r].cancelled.Load() != 0 || hs[r].boundMax.Load() == 55 || len(hs[r].acked()) > 0 {
					t.Errorf("rank %d heard rank 2 after its Close: a cancel %v, bound %d, acks %v", r, hs[r].cancelled.Load() != 0, hs[r].boundMax.Load(), hs[r].acked())
				}
			}
		})
	}
}
