package yewpar

// Integration test of the multi-process distributed mode: build the
// real yewpar binary, deploy 1 coordinator + 2 worker OS processes
// over TCP, and check the optimum matches the single-process answer on
// the acceptance workloads (knapsack and maxclique).

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"yewpar/internal/dist"
)

var (
	buildOnce sync.Once
	buildBin  string
	buildErr  error
)

// yewparBinary builds cmd/yewpar once per test run.
func yewparBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		// Not t.TempDir: that is torn down when the first test ends,
		// and the binary is shared by every test in the run.
		dir, err := os.MkdirTemp("", "yewpar-dist-test")
		if err != nil {
			buildErr = err
			return
		}
		bin := filepath.Join(dir, "yewpar")
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/yewpar")
		out, err := cmd.CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("building yewpar: %v\n%s", err, out)
			return
		}
		buildBin = bin
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return buildBin
}

// freeAddr reserves a TCP port and releases it for the coordinator.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// runDeployment launches 2 workers and a coordinator with the given
// app flags and returns the coordinator's output.
func runDeployment(t *testing.T, bin string, appFlags []string) string {
	t.Helper()
	addr := freeAddr(t)
	var workers []*exec.Cmd
	for i := 0; i < 2; i++ {
		w := exec.Command(bin, append(appFlags, "-dist", "worker", "-dist-addr", addr)...)
		w.Stderr = nil
		if err := w.Start(); err != nil {
			t.Fatalf("starting worker: %v", err)
		}
		workers = append(workers, w)
	}
	defer func() {
		for _, w := range workers {
			w.Process.Kill()
			w.Wait()
		}
	}()

	coord := exec.Command(bin, append(appFlags, "-dist", "coordinator", "-dist-workers", "2", "-dist-addr", addr)...)
	done := make(chan struct{})
	var out []byte
	var err error
	go func() {
		defer close(done)
		out, err = coord.CombinedOutput()
	}()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		coord.Process.Kill()
		t.Fatal("distributed deployment timed out")
	}
	if err != nil {
		t.Fatalf("coordinator failed: %v\n%s", err, out)
	}
	for _, w := range workers {
		if werr := w.Wait(); werr != nil {
			t.Fatalf("worker failed: %v", werr)
		}
	}
	return string(out)
}

// watchWriter is a concurrency-safe sink for a subprocess's combined
// output that fires arm exactly once when trigger first appears. Used
// as exec.Cmd Stdout/Stderr it has no data-loss window: Wait blocks
// until the final Write has landed, unlike an os.Pipe drained by a
// goroutine racing Wait's descriptor close (which can drop the output
// burst a process writes just before exiting — the result lines, in
// these tests).
type watchWriter struct {
	mu      sync.Mutex
	buf     bytes.Buffer
	trigger string
	armed   bool
	arm     func()
}

func (w *watchWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.buf.Write(p)
	fire := !w.armed && strings.Contains(w.buf.String(), w.trigger)
	if fire {
		w.armed = true
	}
	w.mu.Unlock()
	if fire {
		w.arm()
	}
	return len(p), nil
}

func (w *watchWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// resultLine extracts the first line of a run's output (the answer).
func resultLine(t *testing.T, output string) string {
	t.Helper()
	for _, line := range strings.Split(output, "\n") {
		if strings.HasPrefix(line, "dist:") || strings.TrimSpace(line) == "" {
			continue
		}
		return line
	}
	t.Fatalf("no result line in output:\n%s", output)
	return ""
}

func testDistMatchesSingle(t *testing.T, appFlags []string) {
	bin := yewparBinary(t)
	single, err := exec.Command(bin, appFlags...).CombinedOutput()
	if err != nil {
		t.Fatalf("single-process run failed: %v\n%s", err, single)
	}
	wantAnswer := resultLine(t, string(single))

	out := runDeployment(t, bin, appFlags)
	gotAnswer := resultLine(t, out)
	if gotAnswer != wantAnswer {
		t.Fatalf("distributed answer %q != single-process answer %q\nfull output:\n%s", gotAnswer, wantAnswer, out)
	}
	// The aggregated metrics must reflect a real 3-locality deployment
	// with steal traffic and bound broadcasts on the wire.
	if !strings.Contains(out, "localities=3") {
		t.Errorf("aggregated stats missing localities=3:\n%s", out)
	}
	if !strings.Contains(out, "steals=") || !strings.Contains(out, "broadcasts=") {
		t.Errorf("aggregated stats missing steal/broadcast counters:\n%s", out)
	}
}

func TestDistributedKnapsackMatchesSingleProcess(t *testing.T) {
	testDistMatchesSingle(t, []string{"-app", "knapsack", "-items", "22", "-skeleton", "depthbounded", "-d", "3", "-workers", "2"})
}

func TestDistributedMaxCliqueMatchesSingleProcess(t *testing.T) {
	testDistMatchesSingle(t, []string{"-app", "maxclique", "-n", "90", "-p", "0.7", "-skeleton", "depthbounded", "-d", "2", "-workers", "2"})
}

func TestDistributedBudgetKnapsack(t *testing.T) {
	testDistMatchesSingle(t, []string{"-app", "knapsack", "-items", "20", "-skeleton", "budget", "-b", "5000", "-workers", "2"})
}

// Distributed stack stealing: no proactive spawning at all — every task
// crossing the wire was shed from a live generator stack when a steal
// found its victim's pool dry, over a direct worker-to-worker connection.
func TestDistributedStackStealKnapsack(t *testing.T) {
	testDistMatchesSingle(t, []string{"-app", "knapsack", "-items", "22", "-skeleton", "stacksteal", "-workers", "2"})
}

// A memory-budgeted deployment must spill instead of growing the pool
// and still produce the exact single-process enumeration count.
func TestDistributedPoolBudgetUTS(t *testing.T) {
	testDistMatchesSingle(t, []string{"-app", "uts", "-uts-b0", "500", "-uts-m", "4", "-uts-q", "0.2",
		"-skeleton", "depthbounded", "-d", "4", "-workers", "2", "-pool-budget", "16384"})
}

// The fault-tolerance acceptance test: a real 4-process TCP deployment
// (1 coordinator + 3 workers) in which one worker is SIGKILLed
// mid-search must still terminate, exit cleanly, and report the exact
// answer of the failure-free run — the supervised-task ledger replaying
// the dead worker's subtree roots from the survivors. The steal in
// flight is on a direct worker-to-worker connection, and termination is
// detected by the wave. Once per search type: a maxclique optimum, and a
// uts count, whose subtree values are committed by their acks, so a
// replay's replaces the dead worker's.
func TestDistributedMaxCliqueSurvivesWorkerSIGKILL(t *testing.T) {
	testSurvivesWorkerSIGKILL(t, sigkillClique)
}

func TestDistributedUTSSurvivesWorkerSIGKILL(t *testing.T) {
	testSurvivesWorkerSIGKILL(t, sigkillUTS)
}

// Searches that run well over a second in these deployments, so a kill
// shortly after registration lands mid-search. (maxclique n=160 did when
// this was written; it takes a quarter of a second now, which is the
// kill's own delay. The uts tree has 7.8M nodes.)
var (
	sigkillClique = []string{"-app", "maxclique", "-n", "200", "-p", "0.8", "-skeleton", "depthbounded", "-d", "2", "-workers", "2"}
	sigkillUTS    = []string{"-app", "uts", "-uts-b0", "80000", "-uts-m", "6", "-uts-q", "0.165", "-skeleton", "depthbounded", "-d", "3", "-workers", "2"}
)

func testSurvivesWorkerSIGKILL(t *testing.T, appFlags []string) {
	bin := yewparBinary(t)

	single, err := exec.Command(bin, appFlags...).CombinedOutput()
	if err != nil {
		t.Fatalf("single-process run failed: %v\n%s", err, single)
	}
	wantAnswer := resultLine(t, string(single))

	addr := freeAddr(t)
	var workers []*exec.Cmd
	for i := 0; i < 3; i++ {
		w := exec.Command(bin, append(appFlags, "-dist", "worker", "-dist-addr", addr)...)
		if err := w.Start(); err != nil {
			t.Fatalf("starting worker: %v", err)
		}
		workers = append(workers, w)
	}
	defer func() {
		for _, w := range workers {
			w.Process.Kill()
			w.Wait()
		}
	}()

	// Watch the coordinator's output; once every worker has registered
	// and the search is underway, SIGKILL one worker.
	killed := make(chan struct{})
	ww := &watchWriter{trigger: "all 3 workers registered", arm: func() {
		go func() {
			time.Sleep(250 * time.Millisecond)
			workers[1].Process.Kill() // SIGKILL, mid-search
			close(killed)
		}()
	}}
	coord := exec.Command(bin, append(appFlags, "-dist", "coordinator", "-dist-workers", "3", "-dist-addr", addr)...)
	coord.Stdout = ww
	coord.Stderr = ww
	if err := coord.Start(); err != nil {
		t.Fatalf("starting coordinator: %v", err)
	}

	done := make(chan error, 1)
	go func() { done <- coord.Wait() }()
	var out string
	select {
	case err := <-done:
		out = ww.String()
		if err != nil {
			t.Fatalf("coordinator failed after worker SIGKILL: %v\n%s", err, out)
		}
	case <-time.After(120 * time.Second):
		coord.Process.Kill()
		t.Fatalf("deployment hung after worker SIGKILL\npartial output:\n%s", ww.String())
	}
	select {
	case <-killed:
	default:
		t.Fatalf("search finished before the kill fired; output:\n%s", out)
	}

	if got := resultLine(t, out); got != wantAnswer {
		t.Fatalf("answer after SIGKILL %q != failure-free answer %q\nfull output:\n%s", got, wantAnswer, out)
	}
	if !strings.Contains(out, "deaths=1") {
		t.Errorf("coordinator stats do not report the death:\n%s", out)
	}
	// The surviving workers exit cleanly.
	for i, w := range workers {
		if i == 1 {
			w.Wait() // the corpse
			continue
		}
		if werr := w.Wait(); werr != nil {
			t.Errorf("surviving worker %d failed: %v", i, werr)
		}
	}
}

// The coordinator-failover acceptance test (wire protocol v7): a real
// 4-process TCP deployment launched with -standby in which the
// COORDINATOR is SIGKILLed mid-search. The lowest worker rank holds a
// replica of the hub's residual state, promotes itself, finishes the
// search, and prints the exact answer of the failure-free run — on its
// own stdout, since the original result owner is a corpse. The takeover
// is role migration over the existing peer links. Once per search type:
// a maxclique optimum, and a uts count, whose root the promoted rank
// takes over as a ledger entry, so the root's value is committed there
// by its holder's ack, or by its replay.
func TestDistributedMaxCliqueSurvivesCoordinatorSIGKILL(t *testing.T) {
	testSurvivesCoordinatorSIGKILL(t, coordClique, false)
}

func TestDistributedUTSSurvivesCoordinatorSIGKILL(t *testing.T) {
	testSurvivesCoordinatorSIGKILL(t, sigkillUTS, false)
}

// Staggered double death: the coordinator dies first, the standby
// takes over, and then a regular worker dies too. The promoted
// coordinator's death machinery (ledger replay, the root's entry among
// it should the dead worker have held it) must absorb the second death
// like the original hub would have. A bigger instance keeps the search
// alive past the second, later kill (n=170 ended before it in each of six
// attempts once the takeover no longer re-dialled the promoted rank).
func TestDistributedMaxCliqueSurvivesCoordinatorThenWorkerSIGKILL(t *testing.T) {
	testSurvivesCoordinatorSIGKILL(t, []string{"-app", "maxclique", "-n", "190", "-p", "0.8", "-skeleton", "depthbounded", "-d", "2", "-workers", "2"}, true)
}

var coordClique = []string{"-app", "maxclique", "-n", "160", "-p", "0.8", "-skeleton", "depthbounded", "-d", "2", "-workers", "2"}

// testSurvivesCoordinatorSIGKILL runs the app under -standby with a
// failure budget that covers the deaths.
func testSurvivesCoordinatorSIGKILL(t *testing.T, appFlags []string, alsoKillWorker bool) {
	bin := yewparBinary(t)
	budget := "1"
	if alsoKillWorker {
		budget = "2"
	}
	appFlags = append(appFlags[:len(appFlags):len(appFlags)], "-standby", "-max-failures", budget)

	single, err := exec.Command(bin, appFlags...).CombinedOutput()
	if err != nil {
		t.Fatalf("single-process run failed: %v\n%s", err, single)
	}
	wantAnswer := resultLine(t, string(single))

	// The kills arm when every worker has registered: the coordinator's
	// fires 250ms later, and in the double-death variant rank 3's at
	// 900ms. A lucky run can legitimately finish the whole search inside
	// either window — not a bug, just steal-scheduling variance — so retry
	// the launch until every kill provably lands mid-search: the
	// coordinator's when it beat the coordinator's own exit, the worker's
	// when the promoted rank counts it among the deaths.
	wantDeaths := "deaths=1"
	if alsoKillWorker {
		wantDeaths = "deaths=2"
	}
	for attempt := 1; ; attempt++ {
		if attempt > 6 {
			t.Fatal("search finished before the chaos kills fired on every attempt")
		}
		workers, workerOut, landed := launchAndKillCoordinator(t, bin, appFlags, alsoKillWorker)
		if !landed {
			t.Logf("attempt %d: search finished before the chaos kill fired; retrying", attempt)
			continue
		}
		answer, promotedOut := awaitPromoted(t, workers, workerOut, alsoKillWorker, wantAnswer[:strings.Index(wantAnswer, ":")+1])
		if answer != wantAnswer {
			t.Fatalf("answer after coordinator SIGKILL %q != failure-free answer %q\npromoted output:\n%s", answer, wantAnswer, promotedOut)
		}
		switch {
		case strings.Contains(promotedOut, wantDeaths):
			return
		case alsoKillWorker && strings.Contains(promotedOut, "deaths=1"):
			t.Logf("attempt %d: search finished before the worker kill fired; retrying", attempt)
		default:
			t.Fatalf("promoted worker's stats do not report %s:\n%s", wantDeaths, promotedOut)
		}
	}
}

// awaitPromoted waits for every surviving worker of a failover attempt to
// finish on its own — the promoted one prints the result, a line that
// starts with the given prefix, the others exit silently and cleanly —
// and returns the one result line and the output it came in.
func awaitPromoted(t *testing.T, workers []*exec.Cmd, workerOut []*bytes.Buffer, alsoKillWorker bool, prefix string) (answer, promotedOut string) {
	t.Helper()
	t.Cleanup(func() {
		for _, w := range workers {
			w.Process.Kill()
			w.Wait()
		}
	})
	deadline := time.After(120 * time.Second)
	for i, w := range workers {
		exited := make(chan error, 1)
		go func(w *exec.Cmd) { exited <- w.Wait() }(w)
		select {
		case werr := <-exited:
			if alsoKillWorker && i == 2 {
				break // the second corpse; any exit status goes
			}
			if werr != nil {
				t.Errorf("surviving worker %d failed: %v\noutput:\n%s", i, werr, workerOut[i].String())
			}
		case <-deadline:
			t.Fatalf("worker %d hung after coordinator SIGKILL\noutput so far:\n%s", i, workerOut[i].String())
		}
	}

	// Exactly one survivor — the promoted standby — owns the result.
	var answers []string
	for i := range workerOut {
		out := workerOut[i].String()
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, prefix) {
				answers = append(answers, line)
				promotedOut = out
			}
		}
	}
	if len(answers) != 1 {
		t.Fatalf("want exactly one result line from the promoted worker, got %d: %v\nworker outputs:\n%s\n%s\n%s",
			len(answers), answers, workerOut[0].String(), workerOut[1].String(), workerOut[2].String())
	}
	return answers[0], promotedOut
}

// launchAndKillCoordinator runs one attempt of the coordinator-failover
// scenario: a 4-process deployment whose coordinator output is watched
// for "all 3 workers registered"; that line arms a ChaosPlan that
// SIGKILLs the coordinator 250ms later (and, in the double-death
// variant, rank 3 at 900ms). It returns once the coordinator process
// has exited. landed reports whether the kill beat the search; when
// false the attempt's workers have been reaped and the returned
// handles are nil. procMu orders the kill callback against the worker
// launches (the plan cannot fire before registration, but -race wants
// the ordering proved).
func launchAndKillCoordinator(t *testing.T, bin string, appFlags []string, alsoKillWorker bool) (workers []*exec.Cmd, workerOut []*bytes.Buffer, landed bool) {
	t.Helper()
	addr := freeAddr(t)

	var procMu sync.Mutex
	var coord *exec.Cmd
	var liveWorkers []*exec.Cmd
	var stopChaos func()
	var chaosMu sync.Mutex
	killedCoord := make(chan struct{})
	ww := &watchWriter{trigger: "all 3 workers registered", arm: func() {
		plan := dist.ChaosPlan{Kills: []dist.ChaosKill{{Rank: 0, After: 250 * time.Millisecond}}}
		if alsoKillWorker {
			plan.Kills = append(plan.Kills, dist.ChaosKill{Rank: 3, After: 900 * time.Millisecond})
		}
		stop := plan.Start(func(rank int) {
			procMu.Lock()
			defer procMu.Unlock()
			if rank == 0 {
				coord.Process.Kill()
				close(killedCoord)
				return
			}
			liveWorkers[rank-1].Process.Kill()
		})
		chaosMu.Lock()
		stopChaos = stop
		chaosMu.Unlock()
	}}
	t.Cleanup(func() {
		chaosMu.Lock()
		stop := stopChaos
		chaosMu.Unlock()
		if stop != nil {
			stop()
		}
	})

	coord = exec.Command(bin, append(appFlags, "-dist", "coordinator", "-dist-workers", "3", "-dist-addr", addr)...)
	coord.Stdout = ww
	coord.Stderr = ww
	if err := coord.Start(); err != nil {
		t.Fatalf("starting coordinator: %v", err)
	}

	// The coordinator is already listening, so staggered dials register
	// in launch order and worker i gets rank i+1. The double-death
	// variant depends on that: its second kill must provably hit a
	// non-standby rank (killing the promoted standby itself is the
	// documented unsurvivable case).
	var wouts []*bytes.Buffer
	for i := 0; i < 3; i++ {
		if i > 0 && alsoKillWorker {
			time.Sleep(300 * time.Millisecond)
		}
		buf := new(bytes.Buffer)
		w := exec.Command(bin, append(appFlags, "-dist", "worker", "-dist-addr", addr)...)
		w.Stdout = buf
		w.Stderr = buf
		if err := w.Start(); err != nil {
			t.Fatalf("starting worker: %v", err)
		}
		procMu.Lock()
		liveWorkers = append(liveWorkers, w)
		procMu.Unlock()
		wouts = append(wouts, buf)
	}

	// The coordinator dies by SIGKILL: its exit is an error by design.
	coordDone := make(chan struct{})
	go func() { coord.Wait(); close(coordDone) }()
	select {
	case <-coordDone:
	case <-time.After(120 * time.Second):
		coord.Process.Kill()
		t.Fatal("coordinator still alive long after the chaos plan should have fired")
	}
	select {
	case <-killedCoord:
		return liveWorkers, wouts, true
	default:
		// The search won the race against the kill timer: reap this
		// attempt's workers so the caller can go again.
		for _, w := range liveWorkers {
			w.Process.Kill()
			w.Wait()
		}
		return nil, nil, false
	}
}

// A worker that never dials (dead host, typo'd address) must not leave
// the coordinator waiting forever: registration times out and the
// error names the missing ranks.
func TestDistributedRegistrationTimeoutReportsMissingRank(t *testing.T) {
	bin := yewparBinary(t)
	addr := freeAddr(t)
	appFlags := []string{"-app", "knapsack", "-items", "18", "-skeleton", "depthbounded", "-d", "2", "-workers", "1"}

	// One worker dials; the second never exists.
	w := exec.Command(bin, append(appFlags, "-dist", "worker", "-dist-addr", addr)...)
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { w.Process.Kill(); w.Wait() }()

	coord := exec.Command(bin, append(appFlags, "-dist", "coordinator", "-dist-workers", "2", "-dist-addr", addr, "-reg-timeout", "2s")...)
	out, err := coord.CombinedOutput()
	if err == nil {
		t.Fatalf("coordinator succeeded with a missing worker:\n%s", out)
	}
	if !strings.Contains(string(out), "missing rank 2") {
		t.Fatalf("timeout error does not name the missing rank:\n%s", out)
	}
}

// A -dist -order deployment is ordered end-to-end: the answer matches
// the single-process one, and the coordinator's aggregated stats carry
// the ordered-scheduling counters (priorities crossed the wire — a
// deployment that dropped them would report an empty histogram).
func TestDistributedOrderedMaxClique(t *testing.T) {
	flags := []string{"-app", "maxclique", "-n", "80", "-p", "0.7", "-skeleton", "depthbounded",
		"-d", "2", "-workers", "2", "-order", "bound"}
	testDistMatchesSingle(t, flags)
	out := runDeployment(t, yewparBinary(t), flags)
	if !strings.Contains(out, "order=bound") || !strings.Contains(out, "prio-hist=") {
		t.Fatalf("ordered stats missing from coordinator output:\n%s", out)
	}
}
