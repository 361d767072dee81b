package core

import (
	"strings"
	"sync"
	"testing"
	"time"

	"yewpar/internal/dist"
)

// Engine-level fault tolerance, exercised over the loopback network's
// injectable Kill: a rank dies the moment it provably holds registered
// work (LiveAt > 0), and the survivors must replay its subtree roots
// and still produce the exact optimum. The full wire path is covered —
// Dist* over loopback serialises every hand-over through the codec —
// deterministically and without subprocesses; the TCP SIGKILL path is
// pinned by the subprocess integration test.

// faultSpace is a subset-sum style tree big enough (~2^22 nodes under
// full expansion, no Bound so nothing prunes) that every rank holds
// live work for most of the run and a mid-search kill reliably lands
// mid-search.
func faultSpace() toySpace {
	vals := make([]int64, 22)
	for i := range vals {
		// Mixed signs so the optimum is a non-trivial subset.
		vals[i] = int64((i%5)*7 - 9 + i)
	}
	return toySpace{Vals: vals}
}

// runDistOptWithKills runs DistOpt over `ranks` loopback localities
// and kills each rank in `victims` as soon as it holds live work.
// Returns rank 0's result and error.
func runDistOptWithKills(t *testing.T, ranks int, cfg Config, victims []int) (OptResult[toyNode], error) {
	return runDistOptWithKillsOpts(t, ranks, cfg, victims, dist.LoopbackOptions{})
}

func runDistOptWithKillsOpts(t *testing.T, ranks int, cfg Config, victims []int, opts dist.LoopbackOptions) (OptResult[toyNode], error) {
	t.Helper()
	net := dist.NewLoopback(ranks, opts)
	trs := net.Transports()
	defer net.Close()

	space := faultSpace()
	results := make([]OptResult[toyNode], ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			results[r], errs[r] = DistOpt(trs[r], GobCodec[toyNode]{}, DepthBounded, space, toyNode{}, toyOptProblem(), audited(t, cfg, victims...))
		}(r)
	}
	var kwg sync.WaitGroup
	for _, v := range victims {
		kwg.Add(1)
		go func(v int) {
			defer kwg.Done()
			deadline := time.Now().Add(30 * time.Second)
			for net.LiveAt(v) == 0 && time.Now().Before(deadline) {
				time.Sleep(10 * time.Microsecond)
			}
			net.Kill(v)
		}(v)
	}
	kwg.Wait()
	wg.Wait()
	return results[0], errs[0]
}

func TestDistOptSurvivesWorkerDeath(t *testing.T) {
	want := Opt(Sequential, faultSpace(), toyNode{}, toyOptProblem(), Config{})
	cfg := Config{Workers: 2, DCutoff: 3, MaxFailures: -1}
	got, err := runDistOptWithKills(t, 4, cfg, []int{2})
	if err != nil {
		t.Fatalf("rank 0: %v", err)
	}
	if !got.Found || got.Objective != want.Objective {
		t.Fatalf("objective after death = %d (found=%v), want %d", got.Objective, got.Found, want.Objective)
	}
	if got.Stats.Deaths != 1 {
		t.Fatalf("Deaths = %d, want 1", got.Stats.Deaths)
	}
}

// The same death, with the loopback network in wave mode (the mesh
// topology's termination discipline): no global live count exists, so
// quiescence after the replay must be observed by the circulating
// token. The exact optimum and the death report must be unchanged.
func TestDistOptMeshSurvivesWorkerDeath(t *testing.T) {
	want := Opt(Sequential, faultSpace(), toyNode{}, toyOptProblem(), Config{})
	cfg := Config{Workers: 2, DCutoff: 3, MaxFailures: -1}
	got, err := runDistOptWithKillsOpts(t, 4, cfg, []int{2}, dist.LoopbackOptions{Wave: true})
	if err != nil {
		t.Fatalf("rank 0: %v", err)
	}
	if !got.Found || got.Objective != want.Objective {
		t.Fatalf("objective after death = %d (found=%v), want %d", got.Objective, got.Found, want.Objective)
	}
	if got.Stats.Deaths != 1 {
		t.Fatalf("Deaths = %d, want 1", got.Stats.Deaths)
	}
}

// Two deaths: supervision is hierarchical — every hand-over chain
// roots at the coordinator, and an entry is acked only when its whole
// subtree has completed — so even staggered double death replays from
// the earliest surviving supervisor.
func TestDistOptSurvivesDoubleDeath(t *testing.T) {
	want := Opt(Sequential, faultSpace(), toyNode{}, toyOptProblem(), Config{})
	cfg := Config{Workers: 2, DCutoff: 3, MaxFailures: -1}
	got, err := runDistOptWithKills(t, 4, cfg, []int{1, 3})
	if err != nil {
		t.Fatalf("rank 0: %v", err)
	}
	if !got.Found || got.Objective != want.Objective {
		t.Fatalf("objective after double death = %d (found=%v), want %d", got.Objective, got.Found, want.Objective)
	}
	if got.Stats.Deaths != 2 {
		t.Fatalf("Deaths = %d, want 2", got.Stats.Deaths)
	}
}

// The failure budget: deaths beyond MaxFailures surface as an error
// (alongside the replay-repaired result); within the budget they are
// absorbed silently.
func TestDistOptMaxFailuresPolicy(t *testing.T) {
	want := Opt(Sequential, faultSpace(), toyNode{}, toyOptProblem(), Config{})

	// Budget 0 (the zero-value default): any death is reported.
	got, err := runDistOptWithKills(t, 3, Config{Workers: 2, DCutoff: 3}, []int{2})
	if err == nil {
		t.Fatal("death within MaxFailures=0 not reported")
	}
	if !strings.Contains(err.Error(), "failure budget") {
		t.Fatalf("unexpected error: %v", err)
	}
	// The result is still repaired as far as replay reaches.
	if !got.Found || got.Objective != want.Objective {
		t.Fatalf("repaired objective = %d, want %d", got.Objective, want.Objective)
	}

	// Budget 1: the same death is absorbed.
	if _, err := runDistOptWithKills(t, 3, Config{Workers: 2, DCutoff: 3, MaxFailures: 1}, []int{2}); err != nil {
		t.Fatalf("death within budget reported: %v", err)
	}
}

// Enumeration cannot be repaired by replay (a dead rank's partial
// monoid value is unrecoverable, and replay would double-count): a
// death must surface as an error, not a silently wrong total.
func TestDistEnumDeathErrors(t *testing.T) {
	net := dist.NewLoopback(3, dist.LoopbackOptions{})
	trs := net.Transports()
	defer net.Close()
	space := faultSpace()
	p := EnumProblem[toySpace, toyNode, int64]{
		Gen:       toyGen,
		Objective: func(toySpace, toyNode) int64 { return 1 },
		Monoid:    SumInt64{},
	}
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			_, errs[r] = DistEnum(trs[r], GobCodec[toyNode]{}, DepthBounded, space, toyNode{}, p, audited(t, Config{Workers: 2, DCutoff: 3, MaxFailures: -1}, 2))
		}(r)
	}
	go func() {
		deadline := time.Now().Add(30 * time.Second)
		for net.LiveAt(2) == 0 && time.Now().Before(deadline) {
			time.Sleep(10 * time.Microsecond)
		}
		net.Kill(2)
	}()
	wg.Wait()
	if errs[0] == nil {
		t.Fatal("enumeration death not reported at rank 0")
	}
	if !strings.Contains(errs[0].Error(), "enumeration") {
		t.Fatalf("unexpected error: %v", errs[0])
	}
}

// runDistOptCoordinatorKill runs DistOpt over `ranks` loopback
// localities with Standby armed and kills rank 0 once a survivor
// provably holds live work — the root hand-over is then
// ledger-supervised, so the coordinator's death loses nothing. It
// returns every rank's result and error: the zombie rank 0 returns
// garbage, the promoted rank (the lowest survivor, rank 1) owns the
// aggregated result.
func runDistOptCoordinatorKill(t *testing.T, ranks int, cfg Config, opts dist.LoopbackOptions) ([]OptResult[toyNode], []error) {
	t.Helper()
	net := dist.NewLoopback(ranks, opts)
	trs := net.Transports()
	defer net.Close()

	space := faultSpace()
	results := make([]OptResult[toyNode], ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			results[r], errs[r] = DistOpt(trs[r], GobCodec[toyNode]{}, DepthBounded, space, toyNode{}, toyOptProblem(), audited(t, cfg, 0))
		}(r)
	}
	go func() {
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			spread := false
			for r := 1; r < ranks; r++ {
				if net.LiveAt(r) > 0 {
					spread = true
					break
				}
			}
			if spread {
				break
			}
			time.Sleep(10 * time.Microsecond)
		}
		net.Kill(0)
	}()
	wg.Wait()
	return results, errs
}

// Coordinator death over loopback: Kill(0) hands the collector role to
// the lowest survivor, which must still produce the exact optimum.
// Under Standby rank 0 runs zero workers, so every task it ever held
// (the seeded root) left under ledger supervision before it died.
func TestDistOptSurvivesCoordinatorDeath(t *testing.T) {
	want := Opt(Sequential, faultSpace(), toyNode{}, toyOptProblem(), Config{})
	cfg := Config{Workers: 2, DCutoff: 3, MaxFailures: -1, Standby: true}
	results, errs := runDistOptCoordinatorKill(t, 4, cfg, dist.LoopbackOptions{})
	if errs[1] != nil {
		t.Fatalf("promoted rank 1: %v", errs[1])
	}
	got := results[1]
	if !got.Found || got.Objective != want.Objective {
		t.Fatalf("objective after coordinator death = %d (found=%v), want %d", got.Objective, got.Found, want.Objective)
	}
	if got.Stats.Deaths != 1 {
		t.Fatalf("Deaths = %d, want 1", got.Stats.Deaths)
	}
}

// The same coordinator death under the mesh topology's wave
// termination: the dead initiator's role moves to the lowest survivor
// (the same rank that adopts the collector role), and the wave must
// still conclude with the exact optimum.
func TestDistOptMeshSurvivesCoordinatorDeath(t *testing.T) {
	want := Opt(Sequential, faultSpace(), toyNode{}, toyOptProblem(), Config{})
	cfg := Config{Workers: 2, DCutoff: 3, MaxFailures: -1, Standby: true}
	results, errs := runDistOptCoordinatorKill(t, 4, cfg, dist.LoopbackOptions{Wave: true})
	if errs[1] != nil {
		t.Fatalf("promoted rank 1: %v", errs[1])
	}
	got := results[1]
	if !got.Found || got.Objective != want.Objective {
		t.Fatalf("objective after coordinator death = %d (found=%v), want %d", got.Objective, got.Found, want.Objective)
	}
	if got.Stats.Deaths != 1 {
		t.Fatalf("Deaths = %d, want 1", got.Stats.Deaths)
	}
}

// Spill segments must not outlive a run that loses its coordinator:
// every locality's memory governor removes its spill directory on
// every exit path, including the promoted-survivor termination after
// Kill(0).
func TestDistOptCoordinatorDeathSpillCleanup(t *testing.T) {
	dir := t.TempDir()
	want := Opt(Sequential, faultSpace(), toyNode{}, toyOptProblem(), Config{})
	cfg := Config{Workers: 2, DCutoff: 3, MaxFailures: -1, Standby: true,
		PoolBudget: 8 << 10, SpillDir: dir}
	results, errs := runDistOptCoordinatorKill(t, 3, cfg, dist.LoopbackOptions{})
	if errs[1] != nil {
		t.Fatalf("promoted rank 1: %v", errs[1])
	}
	if got := results[1]; !got.Found || got.Objective != want.Objective {
		t.Fatalf("objective after coordinator death = %d (found=%v), want %d", got.Objective, got.Found, want.Objective)
	}
	if left := spillLeftovers(t, dir); len(left) != 0 {
		t.Fatalf("spill directory not cleaned after coordinator death: %v", left)
	}
}

// Replay statistics flow to rank 0: a death mid-search should usually
// leave replayed subtree roots behind, and the ledger peak is
// reported. This is a smoke check on the plumbing (the exact counts
// are schedule-dependent).
func TestDistOptFaultStatsPlumbing(t *testing.T) {
	cfg := Config{Workers: 2, DCutoff: 3, MaxFailures: -1}
	got, err := runDistOptWithKills(t, 4, cfg, []int{1})
	if err != nil {
		t.Fatalf("rank 0: %v", err)
	}
	if got.Stats.Deaths != 1 {
		t.Fatalf("Deaths = %d, want 1", got.Stats.Deaths)
	}
	if got.Stats.LedgerPeak <= 0 {
		t.Fatalf("LedgerPeak = %d, want > 0 (hand-overs happened)", got.Stats.LedgerPeak)
	}
}
