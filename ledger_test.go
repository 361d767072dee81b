package yewpar

// The work ledger: how many nodes each coordination visits, prunes,
// backtracks over and spawns on the paper's own instances at one worker,
// where every count is exact and host-independent. Spawn order, steal
// order and prune timing all show up here as a diff in a checked-in
// table; a change that means to move a count edits the row it moves.

import (
	"fmt"
	"slices"
	"testing"

	"yewpar/internal/apps/knapsack"
	"yewpar/internal/apps/maxclique"
	"yewpar/internal/apps/sip"
	"yewpar/internal/apps/tsp"
	"yewpar/internal/core"
	"yewpar/internal/dist"
	"yewpar/internal/instances"
)

type workCounts struct{ nodes, prunes, backtracks, spawns int64 }

// workCoords are the ledger's columns.
var workCoords = [4]struct {
	name  string
	coord core.Coordination
	cfg   core.Config
}{
	{"seq", core.Sequential, core.Config{Workers: 1}},
	{"depthbounded-d2", core.DepthBounded, core.Config{Workers: 1, DCutoff: 2}},
	{"budget", core.Budget, core.Config{Workers: 1}},
	{"stacksteal", core.StackStealing, core.Config{Workers: 1}},
}

// workLedger pins instances.Table1() and, below it, Table2Knapsack(),
// Table2TSP() and Table2SIP(), row for row in the order those
// constructors return them (workInstances): a changed generator seed, or
// an instance added, dropped or reordered, fails the test rather than
// re-baselining it.
var workLedger = []struct {
	name   string
	counts [4]workCounts // in workCoords order
}{
	{"MANN_a45", [4]workCounts{{122000, 61000, 61000, 0}, {122140, 61140, 60972, 450}, {122000, 61000, 61000, 58}, {122000, 61000, 61000, 0}}},
	{"brock400_1", [4]workCounts{{8048, 4024, 4024, 0}, {8178, 4154, 3965, 971}, {8048, 4024, 4024, 0}, {8048, 4024, 4024, 0}}},
	{"brock400_2", [4]workCounts{{8248, 4124, 4124, 0}, {8375, 4251, 4065, 942}, {8248, 4124, 4124, 0}, {8248, 4124, 4124, 0}}},
	{"brock400_3", [4]workCounts{{9202, 4601, 4601, 0}, {9329, 4728, 4538, 1064}, {9202, 4601, 4601, 0}, {9202, 4601, 4601, 0}}},
	{"brock400_4", [4]workCounts{{6304, 3152, 3152, 0}, {6421, 3269, 3095, 782}, {6304, 3152, 3152, 0}, {6304, 3152, 3152, 0}}},
	{"brock800_4", [4]workCounts{{9256, 4628, 4628, 0}, {9393, 4765, 4556, 1155}, {9256, 4628, 4628, 0}, {9256, 4628, 4628, 0}}},
	{"p_hat1000-2", [4]workCounts{{51780, 25890, 25890, 0}, {51931, 26041, 25795, 2263}, {51780, 25890, 25890, 81}, {51780, 25890, 25890, 0}}},
	{"p_hat1500-1", [4]workCounts{{2522, 1261, 1261, 0}, {2663, 1402, 1151, 1120}, {2522, 1261, 1261, 0}, {2522, 1261, 1261, 0}}},
	{"p_hat300-3", [4]workCounts{{48172, 24086, 24086, 0}, {48329, 24243, 24039, 938}, {48179, 24093, 24086, 48}, {48172, 24086, 24086, 0}}},
	{"p_hat500-3", [4]workCounts{{217428, 108714, 108714, 0}, {217590, 108876, 108641, 1865}, {217432, 108718, 108714, 106}, {217428, 108714, 108714, 0}}},
	{"p_hat700-2", [4]workCounts{{48974, 24487, 24487, 0}, {49125, 24638, 24400, 2011}, {48974, 24487, 24487, 75}, {48974, 24487, 24487, 0}}},
	{"p_hat700-3", [4]workCounts{{150016, 75008, 75008, 0}, {150187, 75179, 74934, 1942}, {150016, 75008, 75008, 88}, {150016, 75008, 75008, 0}}},
	{"san1000", [4]workCounts{{380, 190, 190, 0}, {526, 336, 123, 315}, {380, 190, 190, 0}, {380, 190, 190, 0}}},
	{"san400_0.7_2", [4]workCounts{{1526, 763, 763, 0}, {1638, 875, 701, 596}, {1526, 763, 763, 0}, {1526, 763, 763, 0}}},
	{"san400_0.7_3", [4]workCounts{{2202, 1101, 1101, 0}, {2316, 1215, 1039, 683}, {2202, 1101, 1101, 0}, {2202, 1101, 1101, 0}}},
	{"san400_0.9_1", [4]workCounts{{8648, 4324, 4324, 0}, {8756, 4432, 4260, 927}, {8648, 4324, 4324, 0}, {8648, 4324, 4324, 0}}},
	{"sanr200_0.9", [4]workCounts{{50860, 25430, 25430, 0}, {51000, 25570, 25410, 319}, {50861, 25431, 25430, 18}, {50860, 25430, 25430, 0}}},
	{"sanr400_0.7", [4]workCounts{{23918, 11959, 11959, 0}, {24053, 12094, 11892, 1279}, {23918, 11959, 11959, 47}, {23918, 11959, 11959, 0}}},
	{"knapsack[0]", [4]workCounts{{4367890, 2182401, 2185489, 0}, {4367890, 2182401, 2185477, 107}, {4367890, 2182401, 2185489, 714}, {4367890, 2182401, 2185489, 0}}},
	{"knapsack[1]", [4]workCounts{{8262572, 4773363, 3489209, 0}, {8262572, 4773363, 3489195, 137}, {8262572, 4773363, 3489209, 1330}, {8262572, 4773363, 3489209, 0}}},
	{"knapsack[2]", [4]workCounts{{20618215, 9760073, 10858142, 0}, {20618215, 9760073, 10858124, 174}, {20618215, 9760073, 10858142, 4737}, {20618215, 9760073, 10858142, 0}}},
	{"tsp[0]", [4]workCounts{{4688751, 3808628, 880123, 0}, {4688751, 3808628, 880108, 171}, {4688751, 3808628, 880123, 331}, {4688751, 3808628, 880123, 0}}},
	{"tsp[1]", [4]workCounts{{31410740, 25450233, 5960507, 0}, {31410740, 25450233, 5960492, 192}, {31410740, 25450233, 5960507, 2222}, {31410740, 25450233, 5960507, 0}}},
	{"tsp[2]", [4]workCounts{{3213620, 2768762, 444858, 0}, {3213620, 2768762, 444842, 214}, {3213620, 2768762, 444858, 205}, {3213620, 2768762, 444858, 0}}},
	{"sip[0]", [4]workCounts{{1249430, 0, 1249399, 0}, {1249430, 0, 1249362, 1120}, {1249430, 0, 1249401, 551}, {1249430, 0, 1249399, 0}}},
	{"sip[1]", [4]workCounts{{279757, 0, 279757, 0}, {279757, 0, 279661, 2279}, {279757, 0, 279757, 92}, {279757, 0, 279757, 0}}},
	{"sip[2]", [4]workCounts{{88830, 0, 88830, 0}, {88830, 0, 88744, 2217}, {88830, 0, 88830, 76}, {88830, 0, 88830, 0}}},
}

type workInstance struct {
	name  string
	long  bool // a Table 2 row: tens of millions of nodes, skipped under -short
	solve func(core.Coordination, core.Config) core.Stats
}

// workRows is a package's runner (the one yewpar and experiments call)
// over its instances, named app[i].
func workRows[S, V any](app string, long bool, insts []S, run func(dist.Transport, S, core.Coordination, core.Config) (V, core.Stats, error)) []workInstance {
	var out []workInstance
	for i, s := range insts {
		out = append(out, workInstance{fmt.Sprintf("%s[%d]", app, i), long, func(c core.Coordination, cfg core.Config) core.Stats {
			_, st, _ := run(nil, s, c, cfg) // a nil transport cannot fail
			return st
		}})
	}
	return out
}

func workInstances() []workInstance {
	var graphs []*maxclique.Space
	for _, in := range instances.Table1() {
		graphs = append(graphs, maxclique.NewSpace(in.Gen()))
	}
	table1 := workRows("maxclique", false, graphs, maxclique.Run)
	for i, in := range instances.Table1() {
		table1[i].name = in.Name // the paper's name for the row
	}
	return slices.Concat(table1,
		workRows("knapsack", true, instances.Table2Knapsack(), knapsack.Run),
		workRows("tsp", true, instances.Table2TSP(), tsp.Run),
		workRows("sip", true, instances.Table2SIP(), sip.Run))
}

func TestWorkLedger(t *testing.T) {
	insts := workInstances()
	if len(insts) != len(workLedger) {
		t.Fatalf("the instance constructors yield %d instances, the ledger pins %d", len(insts), len(workLedger))
	}
	for i, in := range insts {
		row := workLedger[i]
		if in.name != row.name {
			t.Fatalf("ledger row %d pins %q, the instance constructors yield %q there", i, row.name, in.name)
		}
		if in.long && testing.Short() {
			continue
		}
		var got [4]workCounts
		for j, c := range workCoords {
			st := in.solve(c.coord, c.cfg)
			got[j] = workCounts{st.Nodes, st.Prunes, st.Backtracks, st.Spawns}
			if got[j] != row.counts[j] {
				t.Errorf("%s/%s: got %+v, want %+v", in.name, c.name, got[j], row.counts[j])
			}
		}
		if got != row.counts {
			t.Errorf("%s: ledger row should read\n\t%s", in.name, workLiteral(in.name, got))
		}
	}
}

// workLiteral renders a row as the Go literal workLedger holds.
func workLiteral(name string, cs [4]workCounts) string {
	s := fmt.Sprintf("{%q, [4]workCounts{", name)
	for i, c := range cs {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("{%d, %d, %d, %d}", c.nodes, c.prunes, c.backtracks, c.spawns)
	}
	return s + "}},"
}
