// Distributed: the same branch-and-bound search run two ways over the
// pluggable Transport of internal/dist.
//
// Part 1 uses the loopback transport: simulated localities in one
// process with injected network latency, the in-process stand-in for
// the paper's Beowulf-cluster experiments. A dist.FaultPlan gives every
// link between localities a latency that remote steals and bound
// broadcasts both pay, so localities really do work with stale
// knowledge — fewer prunes, same answers.
//
// Part 2 is the real thing: this program re-executes itself as two
// worker OS processes that dial the coordinator over TCP, register,
// and search one knapsack instance cooperatively — remote steals,
// bound broadcasts, distributed termination and result aggregation
// all crossing actual process boundaries.
//
// Part 3 is fault injection: the same deployment with three workers,
// one of which is SIGKILLed mid-search. The supervised task ledger
// replays the subtree roots the dead worker was holding from the
// survivors' retained copies, the coordinator reconciles the dead
// rank's live-task contribution, and the search still terminates with
// the exact optimum of the failure-free run.
package main

import (
	"fmt"
	"os"
	"os/exec"
	"time"

	"yewpar/internal/apps/knapsack"
	"yewpar/internal/apps/maxclique"
	"yewpar/internal/apps/uts"
	"yewpar/internal/core"
	"yewpar/internal/dist"
	"yewpar/internal/graph"
)

const workerEnv = "YEWPAR_DIST_ROLE"

func knapsackInstance() *knapsack.Space {
	return knapsack.Generate(26, 10_000, knapsack.SubsetSum, 7)
}

func main() {
	if addr := os.Getenv(workerEnv); addr != "" {
		runWorker(addr)
		return
	}
	loopbackDemo()
	multiProcessDemo()
	faultInjectionDemo()
}

func loopbackDemo() {
	fmt.Println("UTS enumeration across simulated localities")
	fmt.Println("(8 workers; link latency 50µs between localities)")
	tree := &uts.Space{Shape: uts.Binomial, B0: 4000, M: 8, Q: 0.1245, Seed: 404}
	for _, locs := range []int{1, 2, 4, 8} {
		count, stats := uts.Count(tree, core.DepthBounded, core.Config{
			Workers:    8,
			Localities: locs,
			DCutoff:    3,
			NetFault:   dist.LatencyPlan(50 * time.Microsecond),
		})
		fmt.Printf("  localities=%d: %d nodes in %8v (%d remote steals, %d failed)\n",
			locs, count, stats.Elapsed.Round(time.Microsecond), stats.StealsOK, stats.StealsFail)
	}

	fmt.Println("\nMaxClique branch and bound: slow links cost time and pruning, not answers")
	g, _ := graph.PlantedClique(150, 0.6, 15, 11)
	for _, lat := range []time.Duration{0, 100 * time.Microsecond, time.Millisecond, 5 * time.Millisecond} {
		clique, stats := maxclique.Solve(g, core.DepthBounded, core.Config{
			Workers:    8,
			Localities: 4,
			DCutoff:    2,
			NetFault:   dist.LatencyPlan(lat),
		})
		fmt.Printf("  link latency %-8v: clique %2d, %9d nodes, %8d prunes, %8v\n",
			lat, clique.Count(), stats.Nodes, stats.Prunes, stats.Elapsed.Round(time.Microsecond))
	}
}

// multiProcessDemo makes this process the coordinator of a real
// 3-process deployment, spawning two copies of itself as workers.
func multiProcessDemo() {
	fmt.Println("\nKnapsack over TCP: 1 coordinator + 2 worker processes")
	s := knapsackInstance()
	single := core.Opt(core.DepthBounded, s, knapsack.Root(s), knapsack.OptProblem(), core.Config{Workers: 2, DCutoff: 4})
	fmt.Printf("  single process:  profit %d (%d nodes)\n", single.Objective, single.Stats.Nodes)

	l, err := dist.NewListener("127.0.0.1:0", "example-knapsack")
	if err != nil {
		fmt.Fprintln(os.Stderr, "listen:", err)
		os.Exit(1)
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "locating executable:", err)
		os.Exit(1)
	}
	var workers []*exec.Cmd
	for i := 0; i < 2; i++ {
		cmd := exec.Command(self)
		cmd.Env = append(os.Environ(), workerEnv+"="+l.Addr())
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			fmt.Fprintln(os.Stderr, "spawning worker:", err)
			os.Exit(1)
		}
		workers = append(workers, cmd)
	}

	tr, err := l.Wait(2)
	if err != nil {
		fmt.Fprintln(os.Stderr, "registration:", err)
		os.Exit(1)
	}
	defer tr.Close()
	res, err := core.DistOpt(tr, knapsack.Codec(), core.DepthBounded,
		s, knapsack.Root(s), knapsack.OptProblem(), core.Config{Workers: 2, DCutoff: 4})
	if err != nil {
		fmt.Fprintln(os.Stderr, "distributed search:", err)
		os.Exit(1)
	}
	for _, cmd := range workers {
		cmd.Wait()
	}
	fmt.Printf("  3 OS processes:  profit %d (%d nodes, %d workers, %d remote steals, %d bound broadcasts)\n",
		res.Objective, res.Stats.Nodes, res.Stats.Workers, res.Stats.StealsOK, res.Stats.Broadcasts)
	if res.Objective == single.Objective {
		fmt.Println("  optima agree: distribution changed the schedule, not the answer")
	} else {
		fmt.Println("  OPTIMA DISAGREE — this is a bug")
	}
}

// faultInjectionDemo runs the TCP deployment again with three workers
// and SIGKILLs one mid-search: the supervised task ledger replays the
// dead worker's subtree roots from the survivors, and the optimum is
// unchanged.
func faultInjectionDemo() {
	fmt.Println("\nFault injection: SIGKILL a worker mid-search")
	s := knapsackInstance()
	single := core.Opt(core.DepthBounded, s, knapsack.Root(s), knapsack.OptProblem(), core.Config{Workers: 2, DCutoff: 4})

	l, err := dist.NewListener("127.0.0.1:0", "example-knapsack")
	if err != nil {
		fmt.Fprintln(os.Stderr, "listen:", err)
		os.Exit(1)
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "locating executable:", err)
		os.Exit(1)
	}
	var workers []*exec.Cmd
	for i := 0; i < 3; i++ {
		cmd := exec.Command(self)
		cmd.Env = append(os.Environ(), workerEnv+"="+l.Addr())
		if err := cmd.Start(); err != nil {
			fmt.Fprintln(os.Stderr, "spawning worker:", err)
			os.Exit(1)
		}
		workers = append(workers, cmd)
	}
	tr, err := l.Wait(3)
	if err != nil {
		fmt.Fprintln(os.Stderr, "registration:", err)
		os.Exit(1)
	}
	defer tr.Close()

	// The assassin: give the search a moment to spread work, then
	// SIGKILL one worker process outright.
	go func() {
		time.Sleep(50 * time.Millisecond)
		workers[1].Process.Kill()
		fmt.Println("  SIGKILLed worker process", workers[1].Process.Pid)
	}()

	res, err := core.DistOpt(tr, knapsack.Codec(), core.DepthBounded,
		s, knapsack.Root(s), knapsack.OptProblem(), core.Config{Workers: 2, DCutoff: 4, MaxFailures: -1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "distributed search:", err)
		os.Exit(1)
	}
	for _, cmd := range workers {
		cmd.Wait()
	}
	fmt.Printf("  survivors' result: profit %d (deaths=%d, replayed %d subtree roots, ledger peak %d)\n",
		res.Objective, res.Stats.Deaths, res.Stats.ReplayedTasks, res.Stats.LedgerPeak)
	if res.Objective == single.Objective {
		fmt.Println("  optimum survived the kill: the ledger replayed the lost subtrees")
	} else {
		fmt.Println("  OPTIMA DISAGREE — this is a bug")
	}
}

// runWorker is the re-executed child: one locality dialing home.
func runWorker(addr string) {
	tr, err := dist.Dial(addr, "example-knapsack")
	if err != nil {
		fmt.Fprintln(os.Stderr, "worker dial:", err)
		os.Exit(1)
	}
	defer tr.Close()
	s := knapsackInstance()
	if _, err := core.DistOpt(tr, knapsack.Codec(), core.DepthBounded,
		s, knapsack.Root(s), knapsack.OptProblem(), core.Config{Workers: 2, DCutoff: 4}); err != nil {
		fmt.Fprintln(os.Stderr, "worker search:", err)
		os.Exit(1)
	}
}
