package gate

import (
	"slices"
	"testing"
)

// ratios builds a set of pair ratios: over of them above a bound of
// 1.5, ties exactly on it, the rest under.
func ratios(over, ties, under int) []float64 {
	var rs []float64
	for range over {
		rs = append(rs, 1.8)
	}
	for range ties {
		rs = append(rs, 1.5)
	}
	for range under {
		rs = append(rs, 1.1)
	}
	return rs
}

func TestJudgeNineTenthsOfPairs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ratios []float64
		over   int
		fail   bool
		err    bool
	}{
		{"ten of ten over", ratios(10, 0, 0), 10, true, false},
		{"nine of ten over", ratios(9, 0, 1), 9, true, false},
		{"eight of ten over", ratios(8, 0, 2), 8, false, false},
		{"none over", ratios(0, 0, 10), 0, false, false},
		{"a tie is not over: eight over, two ties", ratios(8, 2, 0), 8, false, false},
		{"a tie is not under: nine over, one tie", ratios(9, 1, 0), 9, true, false},
		{"all ties", ratios(0, 10, 0), 0, false, false},
		{"eighteen of twenty over", ratios(18, 0, 2), 18, true, false},
		{"seventeen of twenty over", ratios(17, 0, 3), 17, false, false},
		{"nine pairs, all over", ratios(9, 0, 0), 9, false, true},
		{"no pairs", nil, 0, false, true},
	} {
		over, fail, err := Judge(tc.ratios, 1.5)
		if (err != nil) != tc.err || fail != tc.fail {
			t.Errorf("%s: fail=%v err=%v, want fail=%v err=%v", tc.name, fail, err, tc.fail, tc.err)
		}
		if err == nil && over != tc.over {
			t.Errorf("%s: %d pairs over, want %d", tc.name, over, tc.over)
		}
	}
}

// The order inside a pair alternates, every pair runs both arms once,
// and the ratio is guarded over reference whichever ran first.
func TestPairedAlternates(t *testing.T) {
	var order []string
	arm := func(name string, v float64) func() float64 {
		return func() float64 {
			order = append(order, name)
			return v
		}
	}
	got := Paired(4, arm("ref", 2), arm("guarded", 3))
	if want := []string{"ref", "guarded", "guarded", "ref", "ref", "guarded", "guarded", "ref"}; !slices.Equal(order, want) {
		t.Errorf("arms ran in order %v, want %v", order, want)
	}
	if want := []float64{1.5, 1.5, 1.5, 1.5}; !slices.Equal(got, want) {
		t.Errorf("ratios %v, want %v", got, want)
	}
}

// Ratio is what a gate calls: through testing.Benchmark, as `go test
// -bench` would run it, an arm three times its reference fails a bound
// of 1.95 (testing.Benchmark reports a failed benchmark as zero runs) and
// an arm under it passes and reports the median and quartiles of its
// pair ratios (1.0, 1.1 … 1.9 here, whichever order they come in).
func TestRatioFailsTheBenchmark(t *testing.T) {
	run := func(guarded func() float64) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			Ratio(b, 1.95, func() float64 { return 1 }, guarded)
		})
	}
	if res := run(func() float64 { return 3 }); res.N != 0 {
		t.Errorf("a 3x arm passed a 1.95x gate: %v", res)
	}
	calls := 0
	res := run(func() float64 {
		calls++
		return 1 + float64(calls*7%10)/10
	})
	if res.N == 0 || res.Extra["ratio"] != 1.45 || res.Extra["ratio-q1"] != 1.2 || res.Extra["ratio-q3"] != 1.7 {
		t.Errorf("an arm under the bound failed, or its quartiles are off: N=%d extra=%v", res.N, res.Extra)
	}
}
