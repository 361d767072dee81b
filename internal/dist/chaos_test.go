package dist

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The chaos harness itself: fired kills reach the injected func with
// the right rank, stop() cancels pending kills and is idempotent.
func TestChaosPlanFiresAndCancels(t *testing.T) {
	var mu sync.Mutex
	var got []int
	stop := ChaosPlan{Kills: []ChaosKill{
		{Rank: 2, After: 0},
		{Rank: 5, After: time.Millisecond},
		{Rank: 7, After: time.Hour}, // must be cancelled, not waited for
	}}.Start(func(rank int) {
		mu.Lock()
		got = append(got, rank)
		mu.Unlock()
	})
	eventually(t, "the scheduled kills to fire", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 2
	})
	stop()
	stop() // idempotent
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 || (got[0] != 2 && got[0] != 5) {
		t.Fatalf("kills fired = %v, want ranks 2 and 5 only", got)
	}
}

// failoverHarnesses builds the TCP star and mesh with standby armed, and
// the star twice more with a slow way back to the promoted rank.
func failoverHarnesses() []harness {
	late := func(name string, from int) harness {
		return harness{name: name, make: func(t *testing.T, n int) []Transport {
			plan := NewFaultPlan(1)
			plan.SetLink(from, 1, LinkFault{Latency: 400 * time.Millisecond})
			return makeTCP(t, n, WireOptions{Standby: true, Fault: plan})
		}}
	}
	// The star again, with rank 3's way back to the promoted rank 1 slowed
	// down: its kRejoin is still in flight when the test publishes a bound
	// at the new coordinator, whose table has no link for rank 3 yet — and
	// the bound must still reach rank 3. And with rank 2's way back slowed
	// down, rank 2 being the publisher: the bound is published after its
	// kRejoin was stamped and before its new coordinator link exists, so no
	// frame is there to carry it — and it must still reach rank 3.
	return append(wires(WireOptions{Standby: true}), late(lateRejoin, 3), late(latePublisher, 2))
}

const (
	lateRejoin    = "tcp-late-rejoin"
	latePublisher = "tcp-late-publisher"
)

// The coordinator-failover contract, driven by the chaos harness:
// rank 0 dies mid-search and the lowest survivor adopts the
// coordinator role. Afterwards the deployment must still (a) notify
// every survivor of the death, (b) report the promotion through the
// Transport's Promoted, (c) keep bounds flowing between survivors, (d)
// not terminate while survivor work is live, (e) terminate when it
// drains, and (f) complete the terminal Gather at the promoted rank
// with a nil slot for the corpse. (A coordinator that dies holding the
// only work there is, the root handed to nobody, is the harness rows'
// TestStandbyCoordinatorDiesHoldingTheRoot in internal/core.) On
// loopback nobody hears of a closed rank 0 or takes its role.
func TestConformanceCoordinatorDeathFailover(t *testing.T) {
	for _, h := range append(loopbacks(), failoverHarnesses()...) {
		t.Run(h.name, func(t *testing.T) {
			trs := h.make(t, 4)
			hs := startAll(trs)

			// Rank 1 (the standby) holds the sentinel live work that
			// must keep the search open across the takeover.
			trs[1].AddTasks(1)
			if strings.HasPrefix(h.name, "loopback") {
				trs[0].Close()
				for _, r := range []int{1, 2, 3} {
					if trs[r].Deaths() != nil || trs[r].Promoted() || trs[r].ReseedRoot() {
						t.Errorf("rank %d: a death, a promotion or a root to seed in process", r)
					}
				}
				select {
				case <-trs[1].Done():
					t.Fatal("closing rank 0 ended a search with live work")
				default:
				}
				return
			}
			// Give a wire transport one flush quantum so the +1 and the
			// hub's first replication snapshot are on the wire before
			// the coordinator dies.
			time.Sleep(100 * time.Millisecond)

			// The flag goes up before the kill starts, not after it
			// returns: Close takes a while to tear its connections
			// down, and survivors are notified of the death as soon as
			// the first one drops — with the store after the call, all
			// three notifications could beat it (seen 1 run in 50 on
			// tcp-mesh under -race), failing the check below for a kill
			// the plan itself was still carrying out.
			var killed atomic.Bool
			stop := ChaosPlan{Kills: []ChaosKill{{Rank: 0, After: 10 * time.Millisecond}}}.Start(func(rank int) {
				killed.Store(true)
				// Ending the search once Close has begun ends it nowhere: no
				// kCancel, no kTerminate.
				go trs[rank].Close()
				for !trs[rank].(*endpoint).closed.Load() {
					runtime.Gosched()
				}
				trs[rank].Cancel(5, nil)
			})
			defer stop()

			for _, r := range []int{1, 2, 3} {
				awaitDeath(t, trs[r], 0)
			}
			if !killed.Load() {
				t.Fatal("death observed before the chaos plan fired")
			}

			// The lowest survivor — and nobody else — promotes itself.
			eventually(t, "rank 1 to adopt the coordinator role", func() bool { return trs[1].Promoted() })
			if trs[2].Promoted() || trs[3].Promoted() {
				t.Fatal("a rank other than the lowest survivor promoted itself")
			}

			// Bounds still flow between survivors through the new
			// coordinator (star) or the untouched peer links (mesh).
			publisher := trs[2]
			if h.name == latePublisher {
				// Rank 2's kRejoin is on its slow way by now.
				time.Sleep(50 * time.Millisecond)
				if trs[2].(*endpoint).links[1].Load() != nil {
					t.Log("rank 2 rejoined before the bound was published: the window was missed")
				}
			}
			if h.name == lateRejoin {
				// The fan-out of this one finds no link for rank 3.
				publisher = trs[1]
				if trs[1].(*endpoint).links[3].Load() != nil {
					t.Log("rank 3 rejoined before the bound was published: the hold-back window was missed")
				}
			}
			publisher.BroadcastBound(99, []byte("post-takeover"))
			eventually(t, "bound to reach surviving rank 3", func() bool { return hs[3].boundMax.Load() == 99 })

			// The sentinel still holds the search open: neither the takeover
			// nor the corpse may end it.
			for _, r := range []int{1, 2, 3} {
				select {
				case <-trs[r].Done():
					t.Fatalf("rank %d Done: coordinator death terminated a search with live survivor work", r)
				default:
				}
				if hs[r].cancelled.Load() != 0 {
					t.Fatalf("rank %d heard a cancel from the closed coordinator", r)
				}
			}

			// Rank 0 died holding the root, handed to nobody: it is rank 1's
			// to seed again, registered there. Draining the survivor work,
			// the seeded root's included, ends the search everywhere.
			if !trs[1].ReseedRoot() {
				t.Fatal("the root died with rank 0 and rank 1 was not told to seed it again")
			}
			trs[1].AddTasks(-2)
			for _, r := range []int{1, 2, 3} {
				select {
				case <-trs[r].Done():
				case <-time.After(10 * time.Second):
					t.Fatalf("rank %d not released after survivor work drained", r)
				}
			}

			// The terminal collective completes at the promoted rank,
			// with a nil slot for the dead coordinator.
			var got [][]byte
			var wg sync.WaitGroup
			for _, r := range []int{1, 2, 3} {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					blobs, err := trs[r].Gather([]byte{byte(r)})
					if err != nil {
						t.Errorf("rank %d gather: %v", r, err)
					}
					if r == 1 {
						got = blobs
					}
				}(r)
			}
			wg.Wait()
			if len(got) != 4 || got[0] != nil {
				t.Fatalf("gather after coordinator death = %v, want 4 slots with nil for rank 0", got)
			}
			for _, r := range []int{1, 2, 3} {
				if len(got[r]) != 1 || got[r][0] != byte(r) {
					t.Fatalf("gather slot %d = %v, want [%d]", r, got[r], r)
				}
			}
		})
	}
}

// What a takeover seeds the promoted rank from — the last snapshot rank 0
// sent it — checked one replicated item at a time, each through the
// behaviour it exists for, on the deployments that replicate: the TCP star
// and mesh. In each case rank 0 sets the item up, lives until rank 1's
// replica carries it, and dies.
func replicaHarnesses() []harness { return failoverHarnesses()[:2] }

// takeOver waits until rank 1's replica carries what the case set up,
// kills rank 0, and waits until rank 1 holds the role and every survivor
// is linked to it. Rank 1 should hold live work (AddTasks), so the
// takeover does not end the search.
func takeOver(t *testing.T, trs []Transport, what string, carries func(*HubSnapshot) bool) {
	t.Helper()
	e1 := trs[1].(*endpoint)
	eventually(t, "rank 1's replica to carry "+what, func() bool {
		snap := e1.replica.Load()
		return snap != nil && carries(snap)
	})
	trs[0].Close()
	for r := 1; r < len(trs); r++ {
		if !trs[r].(*endpoint).closed.Load() {
			awaitDeath(t, trs[r], 0)
		}
	}
	eventually(t, "rank 1 to adopt the coordinator role", trs[1].Promoted)
	eventually(t, "every survivor linked to rank 1", func() bool {
		for r := 2; r < len(trs); r++ {
			// A mesh survivor hears of rank 0's death before it re-points
			// its coordinator traffic: wait for both.
			if !e1.deaths.isDead(r) && (e1.links[r].Load() == nil || trs[r].(*endpoint).coord.Load() != 1) {
				return false
			}
		}
		return true
	})
}

// gatherAtRank1 ends the search — rank 1 drops its live work, and the
// root the takeover registered there — waits until rank 1 and the others
// are Done, sends the others' shares and returns what rank 1 collects.
func gatherAtRank1(t *testing.T, trs []Transport, others ...int) [][]byte {
	t.Helper()
	live := int64(1)
	if trs[1].ReseedRoot() {
		live++
	}
	trs[1].AddTasks(-live)
	for _, r := range append([]int{1}, others...) {
		select {
		case <-trs[r].Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("rank %d not Done after the search ended", r)
		}
	}
	for _, r := range others {
		if _, err := trs[r].Gather([]byte{byte(r)}); err != nil {
			t.Fatalf("rank %d gather: %v", r, err)
		}
	}
	type result struct {
		blobs [][]byte
		err   error
	}
	collected := make(chan result, 1)
	go func() {
		blobs, err := trs[1].Gather([]byte{1})
		collected <- result{blobs, err}
	}()
	select {
	case res := <-collected:
		if res.err != nil {
			t.Fatalf("rank 1 gather: %v", res.err)
		}
		return res.blobs
	case <-time.After(10 * time.Second):
		t.Fatal("rank 1's gather still waits for a share")
		return nil
	}
}

// A rank killed inside its rejoin, its kRejoin already on the wire (rank
// 2's way back to rank 1 is slow): the promoted rank admits it and mourns
// it at once, as it would a SIGKILLed process, not after LivenessTimeout.
func TestConformanceKilledInsideRejoin(t *testing.T) {
	trs := failoverHarnesses()[3].make(t, 4) // latePublisher
	startAll(trs)
	trs[1].AddTasks(1)
	trs[0].Close()
	awaitDeath(t, trs[2], 0)           // rank 2's kRejoin leaves next, and takes 400 ms
	time.Sleep(100 * time.Millisecond) // to arrive
	trs[2].Close()
	awaitDeath(t, trs[1], 0)
	awaitDeath(t, trs[1], 2)
}

// (a) Rank 0's hand-over to rank 2 — under Standby, the root — is known
// at rank 1 after the takeover: rank 1 does not seed the root again while
// rank 2 lives, and does once rank 2 dies, its supervisor being dead.
func TestConformanceTakeoverKeepsRootHolder(t *testing.T) {
	for _, h := range replicaHarnesses() {
		t.Run(h.name, func(t *testing.T) {
			trs := h.make(t, 4)
			hs := startAll(trs)
			trs[1].AddTasks(1)
			root := WireTask{Payload: []byte("root"), ID: TaskID(0, 1), Depth: 1}
			hs[0].push(root)
			if _, ok, err := trs[2].Steal(0); !ok || err != nil {
				t.Fatalf("rank 2 did not get rank 0's task (%v)", err)
			}
			takeOver(t, trs, "the hand-over", func(s *HubSnapshot) bool { return s.Holder == 2 })
			if h := trs[1].(*endpoint).root.held(); h != 2 || trs[1].ReseedRoot() {
				t.Fatalf("rank 1 names rank %d as the root's holder, or seeds it again while rank 2 lives", h)
			}
			trs[2].Close()
			awaitDeath(t, trs[1], 2)
			if !trs[1].ReseedRoot() {
				t.Fatal("rank 2 died holding the root and rank 1 was not told to seed it again")
			}
		})
	}
}

// (b) A node-carrying bound retained at rank 0 is rank 1's BestKnown after
// the takeover. Rank 1 heard only the bound: the node travels to the
// coordinator alone.
func TestConformanceTakeoverKeepsIncumbent(t *testing.T) {
	for _, h := range replicaHarnesses() {
		t.Run(h.name, func(t *testing.T) {
			trs := h.make(t, 4)
			startAll(trs)
			trs[1].AddTasks(1)
			trs[2].BroadcastBound(40, []byte("witness"))
			takeOver(t, trs, "the incumbent", func(s *HubSnapshot) bool { return s.BestObj == 40 })
			if obj, node, ok := trs[1].BestKnown(); !ok || obj != 40 || string(node) != "witness" {
				t.Fatalf("rank 1 knows the incumbent as %d %q (%v), want 40 \"witness\"", obj, node, ok)
			}
		})
	}
}

// (c) A rank that rank 0 mourned before it died is dead at rank 1, and its
// gather slot is nil rather than awaited: the kDeath reached rank 1 ahead
// of any snapshot sent after it, on the same link.
func TestConformanceTakeoverKeepsMourned(t *testing.T) {
	for _, h := range replicaHarnesses() {
		t.Run(h.name, func(t *testing.T) {
			trs := h.make(t, 4)
			startAll(trs)
			trs[1].AddTasks(1)
			trs[3].Close()
			awaitDeath(t, trs[1], 3)
			awaitDeath(t, trs[2], 3)
			trs[2].BroadcastBound(5, []byte("after"))
			takeOver(t, trs, "an incumbent retained after rank 3's death", func(s *HubSnapshot) bool { return s.BestObj == 5 })
			if !trs[1].(*endpoint).deaths.isDead(3) {
				t.Fatal("rank 1 took the role over without rank 3's death")
			}
			if got := gatherAtRank1(t, trs, 2); len(got) != 4 || got[3] != nil {
				t.Fatalf("gather = %v, want 4 slots with nil for rank 3", got)
			}
		})
	}
}

// (d) A root rank 0 handed over that never landed — its reply lost with
// rank 0, or, here, held unadopted because rank 2's engine has not
// started — names no holder: a snapshot sent after the hand-over does not
// name rank 2, and rank 1 seeds the root again at the takeover.
func TestConformanceTakeoverWithRootInFlight(t *testing.T) {
	for _, h := range replicaHarnesses() {
		t.Run(h.name, func(t *testing.T) {
			trs := h.make(t, 4)
			hs := startAll(trs[:2])
			trs[3].Start(&recHandler{})
			trs[1].AddTasks(1)
			hs[0].push(WireTask{Payload: []byte("root"), ID: TaskID(0, 1), Depth: 1})
			go trs[2].Steal(0) // the reply waits, unadopted, for rank 2's Start
			eventually(t, "rank 0 to hand the root over", func() bool {
				hs[0].mu.Lock()
				defer hs[0].mu.Unlock()
				return len(hs[0].tasks) == 0
			})
			trs[3].BroadcastBound(7, []byte("after"))
			e1 := trs[1].(*endpoint)
			eventually(t, "a snapshot sent after the hand-over", func() bool {
				s := e1.replica.Load()
				return s != nil && s.BestObj == 7
			})
			if e1.replica.Load().Holder == 2 {
				t.Fatal("rank 0 named rank 2 the root's holder before rank 2 registered it")
			}
			trs[0].Close()
			awaitDeath(t, trs[1], 0)
			if !trs[1].ReseedRoot() {
				t.Fatal("the root was in flight when rank 0 died and rank 1 was not told to seed it again")
			}
			trs[2].Start(&recHandler{})
		})
	}
}

// Replication costs one kHubSnap per flush quantum in which something it
// carries changed, or the standby did, and nothing in any other quantum.
// The flush loop is parked on an hour-long quantum; the test ticks rank
// 0's replication by hand and counts the frames that leave rank 0.
func TestStandbySnapshotPerChangedQuantum(t *testing.T) {
	trs := makeTCP(t, 3, WireOptions{Standby: true, FlushQuantum: time.Hour})
	hs := startAll(trs)
	e0 := trs[0].(*endpoint)
	quantum := func(want int64, what string) {
		t.Helper()
		// A frame is counted once written, so one a receiver has already
		// acted on may not be counted yet: wait for rank 0's count to settle.
		before := e0.Wire().FramesSent
		for time.Sleep(10 * time.Millisecond); before != e0.Wire().FramesSent; time.Sleep(10 * time.Millisecond) {
			before = e0.Wire().FramesSent
		}
		e0.flushRepl()
		if n := e0.Wire().FramesSent - before; n != want {
			t.Fatalf("%s: %d frames sent, want %d", what, n, want)
		}
	}
	replica := func(r int) *HubSnapshot { return trs[r].(*endpoint).replica.Load() }

	quantum(1, "the first quantum")
	eventually(t, "rank 1's first snapshot", func() bool { return replica(1) != nil })
	quantum(0, "a quantum with nothing changed")

	for obj := int64(1); obj <= 3; obj++ {
		trs[2].BroadcastBound(obj, []byte{byte(obj)})
	}
	eventually(t, "rank 0 to retain and relay the last incumbent", func() bool {
		obj, _, _ := trs[0].BestKnown()
		return obj == 3 && hs[1].boundMax.Load() == 3
	})
	quantum(1, "three incumbents in one quantum")
	eventually(t, "rank 1's snapshot of the last incumbent", func() bool { return replica(1).BestObj == 3 })
	quantum(0, "the quantum after")

	trs[1].Close()
	awaitDeath(t, trs[2], 1)
	quantum(1, "a new standby")
	eventually(t, "rank 2's first snapshot", func() bool { return replica(2) != nil })
}
