// Package gate is the one judge of the repository's performance gates.
// A gate is a BenchmarkGate… function beside the code it guards (so `go
// test` compiles it and only -bench runs it) that calls its two arms as
// Go functions. A count that repeats exactly is compared on one run with
// a plain b.Fatalf; a wall-clock tax goes through Ratio, because one
// reading on a shared host decides nothing (a 1.10 limit read 0.54, 1.14
// and 0.85 on unchanged code) and nine pairs of ten do. Standard library
// only: package core's in-package tests import it.
package gate

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

// Pairs is how many alternated pairs a gate runs, and the fewest Judge
// accepts.
const Pairs = 10

// Seconds turns a piece of work into an arm: its wall time in seconds.
func Seconds(work func()) func() float64 {
	return func() float64 {
		t0 := time.Now()
		work()
		return time.Since(t0).Seconds()
	}
}

// Paired measures ref and guarded n times each, the reference first in
// even pairs and second in odd ones so that drift and warm-up fall on
// both sides alike, and returns guarded/ref pair by pair.
func Paired(n int, ref, guarded func() float64) []float64 {
	ratios := make([]float64, n)
	for i := range ratios {
		var r, g float64
		if i%2 == 0 {
			r, g = ref(), guarded()
		} else {
			g, r = guarded(), ref()
		}
		ratios[i] = g / r
	}
	return ratios
}

// Judge fails a set of pair ratios when at least nine tenths of all
// pairs run are over the bound; a pair exactly on it counts for
// neither side. Fewer than Pairs ratios is an error, not a pass.
func Judge(ratios []float64, bound float64) (over int, fail bool, err error) {
	if len(ratios) < Pairs {
		return 0, false, fmt.Errorf("gate: %d pairs, need at least %d", len(ratios), Pairs)
	}
	for _, r := range ratios {
		if r > bound {
			over++
		}
	}
	return over, 10*over >= 9*len(ratios), nil
}

// Ratio is a wall-clock gate's whole body: Pairs alternated pairs of
// the two arms, judged against bound, the pair ratios logged and their
// median and quartiles reported beside the benchmark's name.
func Ratio(b *testing.B, bound float64, ref, guarded func() float64) {
	b.Helper()
	ratios := Paired(Pairs, ref, guarded)
	over, fail, err := Judge(ratios, bound)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("bound %.3g, pair ratios %.3f", bound, ratios)
	s := slices.Sorted(slices.Values(ratios))
	b.ReportMetric((s[Pairs/2-1]+s[Pairs/2])/2, "ratio")
	b.ReportMetric(s[Pairs/4], "ratio-q1")
	b.ReportMetric(s[Pairs-1-Pairs/4], "ratio-q3")
	if fail {
		b.Fatalf("guarded arm over %.3g× its reference in %d of %d pairs", bound, over, Pairs)
	}
}
