//go:build goexperiment.synctest

package main

import (
	"testing"
	"testing/synctest"

	"yewpar/internal/core"
)

// Every visited node costs c of virtual time and nothing else does: a
// Sequential run's virtual time is its nodes times c, to the nanosecond.
func TestVirtualSequentialIsNodesTimesCost(t *testing.T) {
	_, _, in := calibration()
	var st core.Stats
	done := make(chan bool, 1) // Run's return alone orders nothing for the race detector
	synctest.Run(func() { _, st = in.run(core.Sequential, core.Config{}, in.c); done <- true })
	<-done
	if st.Nodes != in.seq.Nodes || st.Elapsed != in.seqTime() {
		t.Fatalf("Sequential in a bubble: %d nodes in %v; want %d nodes x %v = %v",
			st.Nodes, st.Elapsed, in.seq.Nodes, in.c, in.seqTime())
	}
}

// Two modelled cores on a uts tree whose node count is exact and whose
// tasks balance: the virtual speedup is near 2 and never above it, since
// more than 2 would mean the clock missed work (a mis-measure, not a
// gain). Every run counts the tree exactly.
func TestVirtualTwoWorkerUTSSpeedup(t *testing.T) {
	virt, real, in := calibration()
	t.Logf("2 workers: virtual %.3fx, real %.3fx", virt, real)
	cfg := core.Config{Workers: 2, DCutoff: 3}
	for run := 0; run < 3; run++ {
		var v any
		var st core.Stats
		done := make(chan bool, 1)
		synctest.Run(func() { v, st = in.run(core.DepthBounded, cfg, in.c); done <- true })
		<-done
		if v != in.want || st.Nodes != in.seq.Nodes {
			t.Fatalf("run %d: count %v in %d nodes; Sequential counted %v in %d", run, v, st.Nodes, in.want, in.seq.Nodes)
		}
		if s := in.speedup(st); s < 1.8 || s > 2.0 {
			t.Fatalf("run %d: 2-worker virtual speedup %.3f (%v against Sequential's %v), want 1.8-2.0", run, s, st.Elapsed, in.seqTime())
		}
	}
}
