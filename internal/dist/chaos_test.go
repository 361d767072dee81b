package dist

import (
	"sync"
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

// Coordinator failover's deployments are internal/core's harness rows
// (TestStandbyCoordinatorDiesMidSearch and the TestStandby… rows beside
// it). What stays here are the takeover steps no kill can land in: a kill
// lands only at a registration of work or after a delay.

// A rank killed inside its rejoin, its kRejoin already on the wire (rank
// 2's way back to rank 1 is slow): the promoted rank admits it and mourns
// it at once, as it would a SIGKILLed process, not after LivenessTimeout.
func TestConformanceKilledInsideRejoin(t *testing.T) {
	plan := NewFaultPlan(1)
	plan.SetLink(2, 1, LinkFault{Latency: 400 * time.Millisecond})
	trs := makeTCP(t, 4, WireOptions{Standby: true, Fault: plan})
	startAll(trs)
	trs[1].AddTasks(1)
	trs[0].Close()
	awaitDeath(t, trs[2], 0)           // rank 2's kRejoin leaves next, and takes 400 ms
	time.Sleep(100 * time.Millisecond) // to arrive
	trs[2].Close()
	awaitDeath(t, trs[1], 0)
	awaitDeath(t, trs[1], 2)
}

// The root's ack outlives rank 0: rank 2 acks rank 0's hand-over, rank 0
// reads the ack and dies before its search could end, and the rank that
// takes its role over delivers the ack to its own handler, value and all,
// exactly once — rank 2 kept the last ack it sent towards rank 0, and
// hands it to the new coordinator (handOver).
func TestConformanceRootAckReachesTheRole(t *testing.T) {
	for _, h := range wires(WireOptions{Standby: true}) {
		t.Run(h.name, func(t *testing.T) {
			trs := h.make(t, 3)
			hs := startAll(trs)
			trs[1].AddTasks(1)
			id := TaskID(0, 1)
			trs[2].AckValue(0, id, []byte("fold"))
			eventually(t, "rank 0 to read the ack", func() bool { return len(hs[0].acked()) == 1 })
			trs[0].Close()
			eventually(t, "the ack to reach rank 1's handler", func() bool { return len(hs[1].acked()) > 0 })
			time.Sleep(50 * time.Millisecond) // many flush quanta: time for a second delivery
			if got := hs[1].acked(); len(got) != 1 || got[0].ID != id || string(got[0].Val) != "fold" {
				t.Fatalf("rank 1 was delivered %v, want the ack of %#x, with its value, once", got, id)
			}
		})
	}
}

// A root rank 0 handed over that never landed — its reply lost with
// rank 0, or, here, held unadopted because rank 2's engine has not
// started — names no holder: a snapshot sent after the hand-over does not
// name rank 2, and rank 1 takes the root over as held by nobody, which
// its engine replays.
func TestConformanceTakeoverWithRootInFlight(t *testing.T) {
	for _, h := range wires(WireOptions{Standby: true}) {
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
			if holder, _, took := trs[1].Root(); !took || holder != -1 {
				t.Fatalf("rank 1 took the root in flight over (%v) as held by rank %d, want by none", took, holder)
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
