package core

import (
	"fmt"
	"testing"

	"yewpar/internal/semantics"
)

// goldenCounts are the counters a one-worker run fixes exactly: with
// Workers: 1 nothing races, so every coordination visits, prunes,
// backtracks and spawns the same numbers on every run.
type goldenCounts struct{ nodes, prunes, backtracks, spawns int64 }

// goldenRows are the coordination × knob combinations pinned below, in
// the column order of goldenTable.
var goldenRows = []struct {
	name  string
	coord Coordination
	cfg   Config
}{
	{"seq", Sequential, Config{}},
	{"depthbounded-d2", DepthBounded, Config{Workers: 1, DCutoff: 2}},
	{"stacksteal", StackStealing, Config{Workers: 1}},
	{"stacksteal-chunked", StackStealing, Config{Workers: 1, Chunked: true}},
	{"budget-b4", Budget, Config{Workers: 1, Budget: 4}},
	{"budget-b4-orderbound", Budget, Config{Workers: 1, Budget: 4, Order: OrderBound}},
	{"replicable-d2", Replicable, Config{Workers: 1, DCutoff: 2}},
}

// goldenTable was recorded at the commit before the coordinations
// became spawn-rule values (when each still had its own task body), so
// passing it unchanged is the proof that the one task body, the one
// shedding walk and Sequential-on-the-engine behave exactly as the five
// bodies they replaced. The replicable column's opt cells were recorded
// from the replicable skeleton's own driver, before it was a rule too; its
// enum and decision cells, which that driver lacked, after; some cells
// moved once since, when a shed stopped handing over nodes its bound
// prunes (engine.shed). Keys are tree/searchtype; values follow goldenRows.
var goldenTable = map[string][]goldenCounts{
	"rand1/enum":            {{1493, 0, 1493, 0}, {1493, 0, 1487, 24}, {1493, 0, 1493, 0}, {1493, 0, 1493, 0}, {1493, 0, 1493, 270}, {1493, 0, 1493, 270}, {1493, 0, 1487, 19}},
	"rand1/opt":             {{55, 35, 20, 0}, {55, 35, 18, 9}, {55, 35, 20, 0}, {55, 35, 20, 0}, {55, 35, 20, 5}, {65, 43, 22, 5}, {227, 148, 73, 16}},
	"rand1/decision":        {{18, 9, 0, 0}, {18, 9, 0, 6}, {18, 9, 0, 0}, {18, 9, 0, 0}, {18, 9, 0, 0}, {18, 9, 0, 0}, {36, 18, 0, 6}},
	"rand3-sorted/enum":     {{840, 0, 840, 0}, {840, 0, 835, 15}, {840, 0, 840, 0}, {840, 0, 840, 0}, {840, 0, 840, 153}, {840, 0, 840, 153}, {840, 0, 835, 11}},
	"rand3-sorted/opt":      {{16, 8, 8, 0}, {20, 12, 6, 8}, {16, 8, 8, 0}, {16, 8, 8, 0}, {16, 8, 8, 0}, {16, 8, 8, 0}, {49, 22, 22, 8}},
	"rand3-sorted/decision": {{9, 0, 0, 0}, {15, 6, 0, 2}, {9, 0, 0, 0}, {9, 0, 0, 0}, {9, 0, 0, 0}, {9, 0, 0, 0}, {15, 6, 0, 1}},
	"wide/enum":             {{501, 0, 501, 0}, {501, 0, 0, 500}, {501, 0, 501, 0}, {501, 0, 501, 0}, {501, 0, 501, 496}, {501, 0, 501, 496}, {501, 0, 0, 0}},
	"wide/opt":              {{501, 500, 1, 0}, {501, 500, 0, 499}, {501, 500, 1, 0}, {501, 500, 1, 0}, {501, 500, 1, 0}, {501, 500, 1, 0}, {501, 500, 0, 0}},
	"wide/decision":         {{500, 498, 0, 0}, {500, 498, 0, 2}, {500, 498, 0, 0}, {500, 498, 0, 0}, {500, 498, 0, 0}, {500, 498, 0, 0}, {501, 498, 0, 0}},
}

func TestOneWorkerGoldenCounts(t *testing.T) {
	// sorted trees meet PruneLevel's sibling-order precondition and run
	// with it, which covers the walks' pruneLevel branch.
	trees := []struct {
		name   string
		tree   *semantics.Tree
		sorted bool
	}{
		{"rand1", semantics.GenTree(1, 4, 9), false},
		{"rand3-sorted", semantics.GenTree(42, 3, 12), true},
		{"wide", wideTree(500), false},
	}
	for _, tt := range trees {
		tree := tt.tree
		if tt.sorted {
			sortByBound(tree)
		}
		opt := optProblem(true)
		opt.PruneLevel = tt.sorted
		// A target just under the maximum: the search prunes, finds the
		// witness part-way through and short-circuits the rest.
		dec := decisionProblem(int64(tree.Max())-1, true)
		searches := []struct {
			name string
			run  func(Coordination, Config) Stats
		}{
			{"enum", func(c Coordination, cfg Config) Stats {
				return Enum(c, tree, "", enumProblem(), cfg).Stats
			}},
			{"opt", func(c Coordination, cfg Config) Stats {
				return Opt(c, tree, "", opt, cfg).Stats
			}},
			{"decision", func(c Coordination, cfg Config) Stats {
				return Decide(c, tree, "", dec, cfg).Stats
			}},
		}
		for _, s := range searches {
			key := tt.name + "/" + s.name
			want := goldenTable[key]
			got := make([]goldenCounts, len(goldenRows))
			ok := len(want) == len(goldenRows)
			for i, row := range goldenRows {
				st := s.run(row.coord, row.cfg)
				got[i] = goldenCounts{st.Nodes, st.Prunes, st.Backtracks, st.Spawns}
				if ok && got[i] != want[i] {
					ok = false
					t.Errorf("%s/%s: got %+v, want %+v", key, row.name, got[i], want[i])
				}
			}
			if !ok {
				t.Errorf("%s: table row should read\n\t%q: %s,", key, key, goldenLiteral(got))
			}
		}
	}
}

// goldenLiteral renders counts as the Go literal goldenTable holds.
func goldenLiteral(cs []goldenCounts) string {
	s := "{"
	for i, c := range cs {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("{%d, %d, %d, %d}", c.nodes, c.prunes, c.backtracks, c.spawns)
	}
	return s + "}"
}
