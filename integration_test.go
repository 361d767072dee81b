package yewpar

// Repository-level integration tests: the full application × skeleton
// matrix on small instances, and the twelve named skeleton entry points.
// (The engine is checked against the executable operational model in
// internal/core's harness, TestModelMatchesEngine….)

import (
	"fmt"
	"testing"
	"time"

	"yewpar/internal/apps/knapsack"
	"yewpar/internal/apps/maxclique"
	"yewpar/internal/apps/nqueens"
	"yewpar/internal/apps/semigroups"
	"yewpar/internal/apps/sip"
	"yewpar/internal/apps/tsp"
	"yewpar/internal/apps/uts"
	"yewpar/internal/core"
	"yewpar/internal/dist"
	"yewpar/internal/graph"
)

var allCoords = []core.Coordination{core.Sequential, core.DepthBounded, core.StackStealing, core.Budget, core.Replicable}

// Kneser k-clique: ω(K(n,k)) = ⌊n/k⌋ exactly, giving decision
// instances with certain answers on a genuine combinatorial object
// (the family the paper's H(4,4) spreads instance belongs to).
func TestKneserCliqueDecision(t *testing.T) {
	cases := []struct{ n, k int }{{6, 2}, {7, 2}, {8, 2}, {9, 3}}
	for _, c := range cases {
		g := graph.Kneser(c.n, c.k)
		omega := graph.KneserCliqueNumber(c.n, c.k)
		for _, coord := range allCoords {
			if _, found, _ := maxclique.Decide(g, omega, coord, core.Config{Workers: 4}); !found {
				t.Errorf("K(%d,%d) %v: ω-clique of size %d not found", c.n, c.k, coord, omega)
			}
			if _, found, _ := maxclique.Decide(g, omega+1, coord, core.Config{Workers: 4}); found {
				t.Errorf("K(%d,%d) %v: impossible clique of size %d found", c.n, c.k, coord, omega+1)
			}
		}
		clique, _ := maxclique.Solve(g, core.DepthBounded, core.Config{Workers: 4})
		if clique.Count() != omega {
			t.Errorf("K(%d,%d): solved ω = %d, want %d", c.n, c.k, clique.Count(), omega)
		}
	}
}

// Every application agrees with its sequential self under every
// parallel skeleton and a non-trivial locality/latency configuration.
func TestMatrixAllAppsAllSkeletons(t *testing.T) {
	cfg := core.Config{Workers: 6, Localities: 2, DCutoff: 2, Budget: 64, Chunked: true,
		NetFault: dist.LatencyPlan(50 * time.Microsecond)}

	t.Run("maxclique", func(t *testing.T) {
		g := graph.Random(45, 0.6, 5)
		want, _ := maxclique.Solve(g, core.Sequential, core.Config{})
		for _, coord := range allCoords[1:] {
			got, _ := maxclique.Solve(g, coord, cfg)
			if got.Count() != want.Count() {
				t.Errorf("%v: %d != %d", coord, got.Count(), want.Count())
			}
		}
	})
	t.Run("knapsack", func(t *testing.T) {
		s := knapsack.Generate(18, 1000, knapsack.SubsetSum, 9)
		want, _ := knapsack.Solve(s, core.Sequential, core.Config{})
		for _, coord := range allCoords[1:] {
			got, _ := knapsack.Solve(s, coord, cfg)
			if got != want {
				t.Errorf("%v: %d != %d", coord, got, want)
			}
		}
	})
	t.Run("tsp", func(t *testing.T) {
		s := tsp.GenerateEuclidean(11, 500, 9)
		want, _ := tsp.Solve(s, core.Sequential, core.Config{})
		for _, coord := range allCoords[1:] {
			got, _ := tsp.Solve(s, coord, cfg)
			if got != want {
				t.Errorf("%v: %d != %d", coord, got, want)
			}
		}
	})
	t.Run("sip", func(t *testing.T) {
		s := sip.GenerateSat(35, 0.4, 10, 0.2, 9)
		for _, coord := range allCoords {
			mapping, found, _ := sip.Solve(s, coord, cfg)
			if !found || !sip.VerifyEmbedding(s.P, s.T, mapping) {
				t.Errorf("%v: embedding missing or invalid", coord)
			}
		}
	})
	t.Run("uts", func(t *testing.T) {
		s := &uts.Space{Shape: uts.Binomial, B0: 300, M: 5, Q: 0.15, Seed: 9}
		want, _ := uts.Count(s, core.Sequential, core.Config{})
		for _, coord := range allCoords[1:] {
			got, _ := uts.Count(s, coord, cfg)
			if got != want {
				t.Errorf("%v: %d != %d", coord, got, want)
			}
		}
	})
	t.Run("semigroups", func(t *testing.T) {
		const genus, want = 11, 343
		for _, coord := range allCoords {
			got, _ := semigroups.Count(genus, coord, cfg)
			if got != want {
				t.Errorf("%v: %d != %d", coord, got, want)
			}
		}
	})
}

// The twelve skeletons of the paper — every coordination × every
// search type — each exercised once through the three entry points.
func TestTwelveSkeletons(t *testing.T) {
	g := graph.Random(35, 0.55, 3)
	s := maxclique.NewSpace(g)
	root := maxclique.Root(s)
	opt := maxclique.OptProblem()
	wantOpt := core.Opt(core.Sequential, s, root, opt, core.Config{}).Objective

	dec := maxclique.DecisionProblem(int(wantOpt))
	cfg := core.Config{Workers: 4}

	cnt := core.EnumProblem[*maxclique.Space, maxclique.Node, int64]{
		Gen:       maxclique.Gen,
		Objective: func(*maxclique.Space, maxclique.Node) int64 { return 1 },
		Monoid:    core.SumInt64{},
	}
	wantCnt := core.Enum(core.Sequential, s, root, cnt, core.Config{}).Value

	for _, coord := range []core.Coordination{core.Sequential, core.DepthBounded, core.StackStealing, core.Budget} {
		if v := core.Enum(coord, s, root, cnt, cfg).Value; v != wantCnt {
			t.Errorf("%v × enumeration: %d != %d", coord, v, wantCnt)
		}
		if v := core.Opt(coord, s, root, opt, cfg).Objective; v != wantOpt {
			t.Errorf("%v × optimisation: %d != %d", coord, v, wantOpt)
		}
		if r := core.Decide(coord, s, root, dec, cfg); !r.Found {
			t.Errorf("%v × decision: not found", coord)
		}
	}
}

// Best-first search — Budget under bound-ordered scheduling — must
// agree with the paper's skeletons on real applications.
func TestBestFirstOnApplications(t *testing.T) {
	g := graph.Random(50, 0.6, 13)
	want, _ := maxclique.Solve(g, core.Sequential, core.Config{})
	s := maxclique.NewSpace(g)
	res := core.Opt(core.Budget, s, maxclique.Root(s), maxclique.OptProblem(), core.Config{Workers: 6, Budget: 64, Order: core.OrderBound})
	if int(res.Objective) != want.Count() {
		t.Errorf("best-first clique %d, want %d", res.Objective, want.Count())
	}

	ks := knapsack.Generate(18, 1000, knapsack.SubsetSum, 4)
	wantP, _ := knapsack.Solve(ks, core.Sequential, core.Config{})
	kres := core.Opt(core.Budget, ks, knapsack.Root(ks), knapsack.OptProblem(), core.Config{Workers: 6, Budget: 256, Order: core.OrderBound})
	if kres.Objective != wantP {
		t.Errorf("best-first knapsack %d, want %d", kres.Objective, wantP)
	}
}

// The replicable skeleton on a real application: the optimum, and at every
// worker and locality count the node, prune, spawn and backtrack counts its
// own driver visited before it was a spawn rule.
func TestReplicableOnMaxClique(t *testing.T) {
	g := graph.Random(60, 0.6, 77)
	want, _ := maxclique.Solve(g, core.Sequential, core.Config{})
	s := maxclique.NewSpace(g)
	for _, cfg := range []core.Config{{Workers: 1}, {Workers: 3}, {Workers: 8}, {Workers: 4, Localities: 2}} {
		cfg.DCutoff = 2
		res := core.Opt(core.Replicable, s, maxclique.Root(s), maxclique.OptProblem(), cfg)
		if int(res.Objective) != want.Count() {
			t.Fatalf("%+v: clique %d, want %d", cfg, res.Objective, want.Count())
		}
		if st := res.Stats; [4]int64{st.Nodes, st.Prunes, st.Spawns, st.Backtracks} != [4]int64{6313, 3239, 820, 3024} {
			t.Errorf("%d workers, %d localities: nodes, prunes, spawns, backtracks %d %d %d %d, want 6313 3239 820 3024 — not replicable",
				cfg.Workers, cfg.Localities, st.Nodes, st.Prunes, st.Spawns, st.Backtracks)
		}
	}
}

// N-Queens under every skeleton (the extra application shipped with
// the original YewPar distribution).
func TestNQueensMatrix(t *testing.T) {
	const n, want = 10, 724
	for _, coord := range allCoords {
		got, _ := nqueens.Count(n, coord, core.Config{Workers: 6, DCutoff: 3, Budget: 64})
		if got != want {
			t.Errorf("%v: %d solutions, want %d", coord, got, want)
		}
	}
}

// Parallel enumeration visits every node exactly once even under
// latency injection, across many seeds — the Theorem 3.1 invariant on
// the production engine.
func TestEveryNodeOnceUnderLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("latency-injected sweep")
	}
	for seed := int64(0); seed < 6; seed++ {
		s := &uts.Space{Shape: uts.Binomial, B0: 200, M: 4, Q: 0.2, Seed: seed}
		want, _ := uts.Count(s, core.Sequential, core.Config{})
		for _, coord := range allCoords[1:] {
			t.Run(fmt.Sprintf("%v/seed%d", coord, seed), func(t *testing.T) {
				got, stats := uts.Count(s, coord, core.Config{
					Workers: 8, Localities: 3, NetFault: dist.LatencyPlan(20 * time.Microsecond), Budget: 16, DCutoff: 3,
				})
				if got != want || stats.Nodes != want {
					t.Errorf("count %d (visited %d), want %d", got, stats.Nodes, want)
				}
			})
		}
	}
}
