package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"yewpar/internal/pad"
)

// Trace records per-worker task executions for workload analysis: how
// irregular the tasks were, how busy each worker was, and where the
// spawned work sat in the tree. It is the measurement substrate for
// the kind of workload studies the paper defers to its companion
// implementation paper [5]. Collection is worker-local (no locks on
// the hot path) and costs two clock reads per task.
//
// Enable by setting Config.Trace to NewTrace(workers) before a run;
// read results with Summary after the skeleton returns.
type Trace struct {
	start time.Time
	// shards[w] is appended to by worker w alone, once per task; each
	// slice header is isolated so tracing adds no shared line.
	shards []pad.Isolated[[]TaskEvent]
}

// TaskEvent is one executed task.
type TaskEvent struct {
	Worker int
	Depth  int
	Start  time.Duration // since trace creation
	End    time.Duration
}

// Duration returns the task's execution time.
func (e TaskEvent) Duration() time.Duration { return e.End - e.Start }

// NewTrace returns a trace for the given worker count.
func NewTrace(workers int) *Trace {
	return &Trace{start: time.Now(), shards: make([]pad.Isolated[[]TaskEvent], workers)}
}

func (t *Trace) record(worker, depth int, start, end time.Time) {
	sh := &t.shards[worker].V
	*sh = append(*sh, TaskEvent{
		Worker: worker,
		Depth:  depth,
		Start:  start.Sub(t.start),
		End:    end.Sub(t.start),
	})
}

// Events returns all recorded events, ordered by start time. Call only
// after the traced run has finished.
func (t *Trace) Events() []TaskEvent {
	var all []TaskEvent
	for i := range t.shards {
		all = append(all, t.shards[i].V...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	return all
}

// Summary aggregates a finished trace.
type Summary struct {
	Workers     int
	Tasks       int
	Makespan    time.Duration   // last end - first start
	TotalBusy   time.Duration   // Σ task durations
	Utilisation float64         // TotalBusy / (Workers × Makespan)
	MinTask     time.Duration   // smallest task
	MaxTask     time.Duration   // largest task
	MedianTask  time.Duration   // median task
	PerWorker   []time.Duration // busy time per worker
	DepthCount  map[int]int     // tasks per spawn depth
}

// Summary computes aggregate workload statistics. Call only after the
// traced run has finished.
func (t *Trace) Summary() Summary {
	s := Summary{Workers: len(t.shards), DepthCount: map[int]int{}}
	s.PerWorker = make([]time.Duration, len(t.shards))
	var durations []time.Duration
	var first, last time.Duration
	firstSet := false
	for w := range t.shards {
		for _, e := range t.shards[w].V {
			d := e.Duration()
			durations = append(durations, d)
			s.TotalBusy += d
			s.PerWorker[w] += d
			s.DepthCount[e.Depth]++
			if !firstSet || e.Start < first {
				first, firstSet = e.Start, true
			}
			if e.End > last {
				last = e.End
			}
		}
	}
	s.Tasks = len(durations)
	if s.Tasks == 0 {
		return s
	}
	s.Makespan = last - first
	if s.Makespan > 0 {
		s.Utilisation = float64(s.TotalBusy) / (float64(s.Makespan) * float64(s.Workers))
	}
	sort.Slice(durations, func(i, j int) bool { return durations[i] < durations[j] })
	s.MinTask = durations[0]
	s.MaxTask = durations[len(durations)-1]
	s.MedianTask = durations[len(durations)/2]
	return s
}

// String renders the summary as a small report.
func (s Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tasks=%d makespan=%v utilisation=%.1f%%\n",
		s.Tasks, s.Makespan.Round(time.Microsecond), 100*s.Utilisation)
	fmt.Fprintf(&b, "task sizes: min=%v median=%v max=%v\n",
		s.MinTask.Round(time.Microsecond), s.MedianTask.Round(time.Microsecond), s.MaxTask.Round(time.Microsecond))
	var depths []int
	for d := range s.DepthCount {
		depths = append(depths, d)
	}
	sort.Ints(depths)
	b.WriteString("tasks per depth:")
	for _, d := range depths {
		fmt.Fprintf(&b, " %d:%d", d, s.DepthCount[d])
	}
	b.WriteByte('\n')
	return b.String()
}
