package cli

import (
	"bufio"
	"errors"
	"io"
	"io/fs"
	"net"
	"slices"
	"strings"
	"testing"

	"yewpar/internal/graph"
)

// distAnswer runs args as a 2-rank deployment inside the test — a
// coordinator on an ephemeral port and the one worker it waits for — and
// returns the coordinator's answer line, newline included.
func distAnswer(t *testing.T, args ...string) string {
	t.Helper()
	pr, pw := io.Pipe()
	errs := make(chan error, 2) // one send per rank
	go func() {
		err := Run(slices.Concat(args, []string{"-dist", "coordinator", "-dist-workers", "1", "-dist-addr", "127.0.0.1:0"}), pw)
		pw.Close()
		errs <- err
	}()
	ranks, answer := 1, ""
	for sc := bufio.NewScanner(pr); sc.Scan(); {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "dist: listening on "); ok {
			addr, _, _ := strings.Cut(rest, ",")
			ranks++
			go func() {
				errs <- Run(slices.Concat(args, []string{"-dist", "worker", "-dist-addr", addr}), io.Discard)
			}()
		} else if !strings.HasPrefix(line, "dist:") && answer == "" {
			answer = line + "\n"
		}
	}
	for ; ranks > 0; ranks-- {
		if err := <-errs; err != nil {
			t.Fatalf("2-rank deployment of %v: %v", args, err)
		}
	}
	return answer
}

func TestParseDistFlags(t *testing.T) {
	o, err := ParseArgs([]string{"-dist", "worker", "-dist-addr", "10.0.0.1:7000", "-dist-workers", "5"})
	if err != nil {
		t.Fatal(err)
	}
	if o.Dist != "worker" || o.DistAddr != "10.0.0.1:7000" || o.DistWorkers != 5 {
		t.Fatalf("parsed %+v", o)
	}
}

func TestDistRejectsUnknownRole(t *testing.T) {
	err := Run([]string{"-dist", "observer"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "unknown -dist role") {
		t.Fatalf("err = %v", err)
	}
}

func TestDistRejectsNonPoolSkeleton(t *testing.T) {
	err := Run([]string{"-dist", "coordinator", "-skeleton", "seq"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "pool-based") {
		t.Fatalf("skeleton seq: err = %v", err)
	}
}

func TestDistSpecDiffersAcrossInstances(t *testing.T) {
	a, _ := ParseArgs([]string{"-app", "knapsack", "-items", "20"})
	b, _ := ParseArgs([]string{"-app", "knapsack", "-items", "24"})
	if a.distSpec() == b.distSpec() {
		t.Fatal("different instances produced identical deployment specs")
	}
	c, _ := ParseArgs([]string{"-app", "knapsack", "-items", "20"})
	if a.distSpec() != c.distSpec() {
		t.Fatal("identical options produced different deployment specs")
	}
}

// Two spellings of one skeleton are one deployment: the spec carries the
// coordination, not the flag, so the ranks admit each other.
func TestDistSpecCanonicalSkeleton(t *testing.T) {
	a, _ := ParseArgs([]string{"-app", "knapsack", "-skeleton", "stacksteal"})
	b, _ := ParseArgs([]string{"-app", "knapsack", "-skeleton", "stackstealing"})
	c, _ := ParseArgs([]string{"-app", "knapsack", "-skeleton", "budget"})
	if a.distSpec() != b.distSpec() || a.distSpec() == c.distSpec() {
		t.Fatalf("specs %q, %q and %q: want the first two equal, the third apart", a.distSpec(), b.distSpec(), c.distSpec())
	}
}

// -skeleton replicable selects Replicable, which a deployment runs: its
// ranks answer as one process does.
func TestDistReplicable(t *testing.T) {
	args := []string{"-app", "knapsack", "-items", "18", "-skeleton", "replicable", "-d", "3", "-workers", "2", "-stats=false"}
	want := run(t, args...)
	if seq := run(t, "-app", "knapsack", "-items", "18", "-stats=false"); want != seq {
		t.Fatalf("replicable answers %q, seq %q", want, seq)
	}
	if got := distAnswer(t, args...); got != want {
		t.Fatalf("2-rank deployment answers %q, single process %q", got, want)
	}
}

// A command line names one instance: -f reaches a deployment's ranks
// too. distSpec carries f=, so ranks that all ignored it would agree on
// the wrong instance without the handshake noticing.
func TestDistSIPFromFile(t *testing.T) {
	path := writeDIMACS(t, graph.Random(25, 0.6, 3))
	args := []string{"-app", "sip", "-f", path, "-pattern", "6", "-skeleton", "depthbounded", "-workers", "2", "-stats=false"}
	want := run(t, args...)
	if !strings.Contains(want, "target (25 vertices)") {
		t.Fatalf("single-process answer %q is not about the file's 25-vertex target", want)
	}
	if got := distAnswer(t, args...); got != want {
		t.Fatalf("2-rank deployment answers %q, single process %q", got, want)
	}
}

// An instance that cannot be built fails a coordinator before it opens
// its port, not after every worker has registered: the address here is
// held by the test, so a coordinator that listened first would report
// that instead, and one that succeeded in listening would print a line.
func TestDistInstanceErrorBeforeListening(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	for _, tc := range []struct {
		args []string
		want func(error) bool
	}{
		{[]string{"-app", "maxclique", "-f", "/no/such/file.clq"}, func(err error) bool { return errors.Is(err, fs.ErrNotExist) }},
		{[]string{"-app", "maxclique", "-gen", "no_such"}, func(err error) bool { return strings.Contains(err.Error(), "unknown instance") }},
		{[]string{"-app", "kclique", "-n", "20"}, func(err error) bool { return strings.Contains(err.Error(), "-decision-bound") }},
	} {
		var out strings.Builder
		err := Run(append(tc.args, "-skeleton", "depthbounded", "-dist", "coordinator", "-dist-addr", held.Addr().String()), &out)
		if err == nil || !tc.want(err) || out.Len() != 0 {
			t.Errorf("%v: err %v, output %q; want the instance's own error and no output", tc.args, err, out.String())
		}
	}
}

// A flag value no instance or search can be made from is an error that
// names the flag, not a panic in a generator or a worker goroutine, nor
// silently another instance or core.Config's default in its place:
// single-process, and as a coordinator before it opens its port (the
// address is held, as above).
func TestFlagOutOfRangeIsAnErrorNamingIt(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	for _, tc := range []struct{ args, flag string }{
		{"-app queens -n 0", "-n"},
		{"-app tsp -cities 0", "-cities"},
		{"-app tsp -cities 70", "-cities"},
		{"-app sip -n 5 -pattern 9", "-pattern"},
		{"-app uts -uts-shape foo", "-uts-shape"},
		{"-app sip -n -5 -pattern 0", "-n"},
		{"-app knapsack -items -3", "-items"},
		{"-app maxclique -n -4", "-n"},
		{"-app ns -genus 64", "-genus"},
		{"-app sip -f " + writeDIMACS(t, graph.Random(9, 0.5, 1)) + " -pattern -1", "-pattern"},
		{"-localities 0", "-localities"},
		{"-localities -2", "-localities"},
		{"-b -5", "-b"},
		{"-b 0", "-b"},
		{"-d -1", "-d"},
		{"-pool-budget -5", "-pool-budget"},
		{"-p 1.5", "-p"},
		{"-p -1", "-p"},
		{"-link-latency -1s", "-link-latency"},
	} {
		args := strings.Fields(tc.args)
		modes := [][]string{{"-skeleton", "seq"}}
		if !strings.Contains(tc.args, "-app ns") { // ns has no -dist
			modes = append(modes, []string{"-skeleton", "depthbounded", "-dist", "coordinator", "-dist-addr", held.Addr().String()})
		}
		for _, mode := range modes {
			var out strings.Builder
			err := Run(slices.Concat(args, mode), &out)
			if err == nil || !strings.Contains(err.Error(), tc.flag+" ") || out.Len() != 0 {
				t.Errorf("%s %v: err %v, output %q; want an error naming %s and no output", tc.args, mode, err, out.String(), tc.flag)
			}
		}
	}
}
