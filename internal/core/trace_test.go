package core

import (
	"strings"
	"testing"
	"time"

	"yewpar/internal/semantics"
)

func TestTraceDepthBounded(t *testing.T) {
	tree := semantics.GenTree(1, 4, 9)
	trace := NewTrace(4)
	res := Enum(DepthBounded, tree, "", enumProblem(),
		Config{Workers: 4, DCutoff: 2, Trace: trace})
	s := trace.Summary()
	// one event per executed task: the root plus every spawn
	if int64(s.Tasks) != res.Stats.Spawns+1 {
		t.Errorf("traced %d tasks, stats says %d spawns (+1 root)", s.Tasks, res.Stats.Spawns)
	}
	if s.Workers != 4 {
		t.Errorf("Workers = %d", s.Workers)
	}
	if s.Utilisation <= 0 || s.Utilisation > 1.0001 {
		t.Errorf("Utilisation = %f", s.Utilisation)
	}
	if s.MakespanLessThan(0) {
		t.Error("negative makespan")
	}
	var perWorker time.Duration
	for _, d := range s.PerWorker {
		perWorker += d
	}
	if perWorker != s.TotalBusy {
		t.Errorf("per-worker busy %v != total %v", perWorker, s.TotalBusy)
	}
	// depth-bounded with cutoff 2 spawns tasks only at depths 0..2
	for d := range s.DepthCount {
		if d < 0 || d > 2 {
			t.Errorf("task recorded at depth %d, cutoff was 2", d)
		}
	}
	if s.MinTask > s.MedianTask || s.MedianTask > s.MaxTask {
		t.Errorf("task size quantiles out of order: %v %v %v", s.MinTask, s.MedianTask, s.MaxTask)
	}
}

// Sequential runs on the engine like every coordination, so it is
// traced like one: its whole search is the root task.
func TestTraceSequential(t *testing.T) {
	tree := semantics.GenTree(1, 4, 9)
	trace := NewTrace(1)
	res := Enum(Sequential, tree, "", enumProblem(), Config{Trace: trace})
	events := trace.Events()
	if len(events) != 1 || events[0].Depth != 0 {
		t.Fatalf("traced %+v, want one depth-0 task", events)
	}
	if d := events[0].Duration(); d > res.Stats.Elapsed {
		t.Errorf("the task ran %v, longer than the search's %v", d, res.Stats.Elapsed)
	}
	if res.Stats.Spawns != 0 {
		t.Errorf("sequential search spawned %d tasks", res.Stats.Spawns)
	}
}

// MakespanLessThan is a tiny helper to keep the test readable.
func (s Summary) MakespanLessThan(d time.Duration) bool { return s.Makespan < d }

func TestTraceStackStealAndBudget(t *testing.T) {
	tree := semantics.GenTree(2, 4, 9)
	for _, coord := range []Coordination{StackStealing, Budget} {
		trace := NewTrace(4)
		res := Enum(coord, tree, "", enumProblem(),
			Config{Workers: 4, Budget: 8, Trace: trace})
		s := trace.Summary()
		if s.Tasks == 0 {
			t.Errorf("%v: no tasks traced", coord)
		}
		// stack-stealing tasks exclude the coordinator's root visit,
		// budget includes the root task
		if int64(s.Tasks) > res.Stats.Spawns+1 {
			t.Errorf("%v: %d tasks traced, only %d spawned", coord, s.Tasks, res.Stats.Spawns)
		}
	}
}

func TestTraceBudgetBoundOrdered(t *testing.T) {
	tree := semantics.GenTree(3, 4, 9)
	trace := NewTrace(3)
	res := Opt(Budget, tree, "", optProblem(true),
		Config{Workers: 3, Budget: 8, Order: OrderBound, Trace: trace})
	if res.Objective != int64(tree.Max()) {
		t.Fatalf("wrong answer under tracing")
	}
	if trace.Summary().Tasks == 0 {
		t.Error("no tasks traced")
	}
}

func TestTraceEventsOrdered(t *testing.T) {
	tree := semantics.GenTree(5, 4, 8)
	trace := NewTrace(4)
	Enum(DepthBounded, tree, "", enumProblem(),
		Config{Workers: 4, DCutoff: 3, Trace: trace})
	events := trace.Events()
	for i := 1; i < len(events); i++ {
		if events[i].Start < events[i-1].Start {
			t.Fatal("events not sorted by start time")
		}
	}
	for _, e := range events {
		if e.End < e.Start {
			t.Fatalf("event ends before it starts: %+v", e)
		}
		if e.Worker < 0 || e.Worker >= 4 {
			t.Fatalf("bad worker id %d", e.Worker)
		}
	}
}

func TestTraceEmptySummary(t *testing.T) {
	s := NewTrace(2).Summary()
	if s.Tasks != 0 || s.TotalBusy != 0 {
		t.Fatalf("empty trace summary = %+v", s)
	}
}

func TestSummaryString(t *testing.T) {
	tree := semantics.GenTree(7, 4, 8)
	trace := NewTrace(2)
	Enum(DepthBounded, tree, "", enumProblem(),
		Config{Workers: 2, DCutoff: 1, Trace: trace})
	out := trace.Summary().String()
	for _, want := range []string{"tasks=", "utilisation=", "task sizes:", "tasks per depth:"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q: %s", want, out)
		}
	}
}
