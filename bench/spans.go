package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside it: the
// benchmark wraps the public entry points (generate, build, deploy,
// solve, each rank's Dist* call, the oracle check, every probe).
// Parent is the span that caused it (-1 for a root); Lane separates
// concurrent spans (0 = the benchmark's own goroutine, 1+r = rank r).
type span struct {
	Name       string
	Parent     int
	Lane       int
	Start, End time.Duration // since the recorder was created
}

// recorder keeps spans in memory and writes them out when the traced
// run ends. A nil *recorder records nothing, so the untraced pass runs
// the same code without the bookkeeping.
type recorder struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{t0: time.Now(), workload: workload}
}

// begin opens a span and returns its id (-1 on a nil recorder).
func (r *recorder) begin(name string, parent, lane int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Parent: parent, Lane: lane, Start: time.Since(r.t0), End: -1})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of that
// interval its direct children cover. Children may overlap each other
// (the ranks of one solve run concurrently), so the cover is the union
// of the child intervals clipped to the parent.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ch := kids[i]
		sort.Slice(ch, func(a, b int) bool { return spans[ch[a]].Start < spans[ch[b]].Start })
		var cover time.Duration
		edge := s.Start
		for _, c := range ch {
			lo, hi := spans[c].Start, spans[c].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				cover += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - cover
	}
	return self
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which chrome://tracing and ui.perfetto.dev open directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write stores the spans as Chrome trace-event JSON.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	self := selfTimes(spans)
	events := make([]chromeEvent, 0, len(spans))
	for i, s := range spans {
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]any{
				"id": i, "parent": s.Parent, "workload": r.workload,
				"self_us": float64(self[i]) / float64(time.Microsecond),
			},
		})
	}
	blob, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
