package core

import (
	"sync/atomic"
	"testing"

	"yewpar/internal/dist"
)

func TestLedgerHandOverRetireReap(t *testing.T) {
	dead := make([]atomic.Bool, 4)
	l := newLedger[int](3, 16, dead)
	id1, ok := l.handOver(1, Task[int]{Node: 10, Depth: 2})
	if !ok || dist.TaskOrigin(id1) != 3 {
		t.Fatalf("handOver: id=%d ok=%v, want origin 3", id1, ok)
	}
	id2, _ := l.handOver(2, Task[int]{Node: 20, Depth: 1})
	if id1 == id2 {
		t.Fatal("hand-over ids collide")
	}
	if l.outstanding() != 2 {
		t.Fatalf("outstanding = %d, want 2", l.outstanding())
	}

	// Retire is idempotent: the first retire wins, repeats are no-ops.
	if _, ok := l.retire(id1); !ok {
		t.Fatal("retire of live entry failed")
	}
	if _, ok := l.retire(id1); ok {
		t.Fatal("double retire succeeded")
	}

	// Reap collects exactly the dead rank's entries.
	id3, _ := l.handOver(1, Task[int]{Node: 30, Depth: 3})
	dead[2].Store(true) // as locality.onDeath does, before it reaps
	tasks := l.reap(2)
	if len(tasks) != 1 || tasks[0].Node != 20 {
		t.Fatalf("reap(2) = %v, want the rank-2 task", tasks)
	}
	if tasks := l.reap(2); tasks != nil {
		t.Fatalf("second reap returned %v", tasks)
	}
	// A reaped entry's ack is ignored.
	if _, ok := l.retire(id2); ok {
		t.Fatal("ack for a replayed entry retired something")
	}
	// Hand-overs to a dead rank are refused permanently.
	if _, ok := l.handOver(2, Task[int]{Node: 40}); ok {
		t.Fatal("hand-over to a dead rank accepted")
	}
	// Unrelated entries survive the reap.
	if _, ok := l.retire(id3); !ok {
		t.Fatal("rank-1 entry lost by rank-2 reap")
	}
}

func TestLedgerCapacityBackpressure(t *testing.T) {
	l := newLedger[int](0, 2, make([]atomic.Bool, 4))
	if _, ok := l.handOver(1, Task[int]{Node: 1}); !ok {
		t.Fatal("first hand-over refused")
	}
	if _, ok := l.handOver(1, Task[int]{Node: 2}); !ok {
		t.Fatal("second hand-over refused")
	}
	if _, ok := l.handOver(1, Task[int]{Node: 3}); ok {
		t.Fatal("hand-over beyond capacity accepted")
	}
	peak, _ := l.stats()
	if peak != 2 {
		t.Fatalf("peak = %d, want 2", peak)
	}
	tasks := l.reap(1)
	if len(tasks) != 2 {
		t.Fatalf("reap returned %d tasks, want 2", len(tasks))
	}
	if _, replayed := l.stats(); replayed != 2 {
		t.Fatalf("replayed = %d, want 2", replayed)
	}
	// Capacity is free again for other thieves.
	if _, ok := l.handOver(3, Task[int]{Node: 4}); !ok {
		t.Fatal("hand-over refused after reap freed capacity")
	}
}

func TestTaskIDPacking(t *testing.T) {
	for _, rank := range []int{0, 1, 7, 1000} {
		id := dist.TaskID(rank, 12345)
		if id == 0 {
			t.Fatalf("rank %d minted the reserved zero id", rank)
		}
		if got := dist.TaskOrigin(id); got != rank {
			t.Fatalf("TaskOrigin(TaskID(%d, ...)) = %d", rank, got)
		}
	}
	if dist.TaskOrigin(0) != -1 {
		t.Fatal("zero id should have no origin")
	}
}

// An ack commits its value only by retiring its entry: one whose entry a
// death reaped is dropped with its value, which the replay's replaces, and
// a retired entry's value is committed once (commit on completion).
func TestAckValueCommittedOnlyByItsRetire(t *testing.T) {
	fab := newFabric[int](nil, nil, spawnRule{}, Config{Localities: 2}.withDefaults())
	defer fab.close()
	enumeration(0, EnumProblem[int, int, int64]{Monoid: SumInt64{}}).attach(fab)
	l, tally, f := fab.locs[0], enumTally[int, int, int64]{SumInt64{}}, &family{}
	tally.add(f, 7)
	val := tally.seal(f)
	l.tr.AddTasks(2) // the two hand-overs' registrations
	reaped, _ := l.led.handOver(1, Task[int]{})
	l.led.reap(1)
	retired, _ := l.led.handOver(1, Task[int]{})
	l.OnAckValue(1, reaped, val)
	l.OnAckValue(1, retired, val)
	if got := tally.take(&l.committed); got != 7 {
		t.Fatalf("committed %d, want 7: the reaped entry's ack adds nothing, the retired one's 7", got)
	}
}
