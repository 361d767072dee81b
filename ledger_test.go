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
	{"MANN_a45", [4]workCounts{{122000, 61000, 61000, 0}, {123859, 62859, 60972, 2195}, {122207, 61207, 61000, 268}, {122000, 61000, 61000, 0}}},
	{"brock400_1", [4]workCounts{{8048, 4024, 4024, 0}, {11131, 7107, 3965, 3981}, {8048, 4024, 4024, 0}, {8048, 4024, 4024, 0}}},
	{"brock400_2", [4]workCounts{{8248, 4124, 4124, 0}, {11343, 7219, 4065, 3967}, {8248, 4124, 4124, 0}, {8248, 4124, 4124, 0}}},
	{"brock400_3", [4]workCounts{{9202, 4601, 4601, 0}, {12375, 7774, 4538, 4171}, {9202, 4601, 4601, 0}, {9202, 4601, 4601, 0}}},
	{"brock400_4", [4]workCounts{{6304, 3152, 3152, 0}, {9095, 5943, 3095, 3511}, {6304, 3152, 3152, 0}, {6304, 3152, 3152, 0}}},
	{"brock800_4", [4]workCounts{{9256, 4628, 4628, 0}, {13308, 8680, 4556, 5140}, {9256, 4628, 4628, 0}, {9256, 4628, 4628, 0}}},
	{"p_hat1000-2", [4]workCounts{{51780, 25890, 25890, 0}, {57702, 31812, 25795, 8127}, {51865, 25975, 25890, 167}, {51780, 25890, 25890, 0}}},
	{"p_hat1500-1", [4]workCounts{{2522, 1261, 1261, 0}, {7621, 6360, 1151, 6186}, {2522, 1261, 1261, 0}, {2522, 1261, 1261, 0}}},
	{"p_hat300-3", [4]workCounts{{48172, 24086, 24086, 0}, {51250, 27164, 24039, 3904}, {48255, 24169, 24086, 125}, {48172, 24086, 24086, 0}}},
	{"p_hat500-3", [4]workCounts{{217428, 108714, 108714, 0}, {222445, 113731, 108641, 6791}, {217587, 108873, 108714, 263}, {217428, 108714, 108714, 0}}},
	{"p_hat700-2", [4]workCounts{{48974, 24487, 24487, 0}, {54149, 29662, 24400, 7120}, {49057, 24570, 24487, 159}, {48974, 24487, 24487, 0}}},
	{"p_hat700-3", [4]workCounts{{150016, 75008, 75008, 0}, {155614, 80606, 74934, 7441}, {150188, 75180, 75008, 262}, {150016, 75008, 75008, 0}}},
	{"san1000", [4]workCounts{{380, 190, 190, 0}, {3391, 3201, 123, 3245}, {380, 190, 190, 0}, {380, 190, 190, 0}}},
	{"san400_0.7_2", [4]workCounts{{1526, 763, 763, 0}, {4080, 3317, 701, 3098}, {1526, 763, 763, 0}, {1526, 763, 763, 0}}},
	{"san400_0.7_3", [4]workCounts{{2202, 1101, 1101, 0}, {4737, 3636, 1039, 3164}, {2202, 1101, 1101, 0}, {2202, 1101, 1101, 0}}},
	{"san400_0.9_1", [4]workCounts{{8648, 4324, 4324, 0}, {11432, 7108, 4260, 3665}, {8648, 4324, 4324, 0}, {8648, 4324, 4324, 0}}},
	{"sanr200_0.9", [4]workCounts{{50860, 25430, 25430, 0}, {52236, 26806, 25410, 1573}, {50935, 25505, 25430, 93}, {50860, 25430, 25430, 0}}},
	{"sanr400_0.7", [4]workCounts{{23918, 11959, 11959, 0}, {27764, 15805, 11892, 5055}, {23991, 12032, 11959, 121}, {23918, 11959, 11959, 0}}},
	{"knapsack[0]", [4]workCounts{{4367890, 2182401, 2185489, 0}, {4367890, 2182401, 2185477, 222}, {4367890, 2182401, 2185489, 1692}, {4367890, 2182401, 2185489, 0}}},
	{"knapsack[1]", [4]workCounts{{8262572, 4773363, 3489209, 0}, {8262572, 4773363, 3489195, 259}, {8262572, 4773363, 3489209, 2717}, {8262572, 4773363, 3489209, 0}}},
	{"knapsack[2]", [4]workCounts{{20618215, 9760073, 10858142, 0}, {20618215, 9760073, 10858124, 315}, {20618215, 9760073, 10858142, 8978}, {20618215, 9760073, 10858142, 0}}},
	{"tsp[0]", [4]workCounts{{4688751, 3808628, 880123, 0}, {4688751, 3808628, 880108, 196}, {4688751, 3808628, 880123, 345}, {4688751, 3808628, 880123, 0}}},
	{"tsp[1]", [4]workCounts{{31410740, 25450233, 5960507, 0}, {31410740, 25450233, 5960492, 196}, {31410740, 25450233, 5960507, 2229}, {31410740, 25450233, 5960507, 0}}},
	{"tsp[2]", [4]workCounts{{3213620, 2768762, 444858, 0}, {3213620, 2768762, 444842, 225}, {3213620, 2768762, 444858, 205}, {3213620, 2768762, 444858, 0}}},
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
