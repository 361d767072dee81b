package cli

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"yewpar/internal/core"
	"yewpar/internal/dist"
	"yewpar/internal/graph"
)

func run(t *testing.T, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := Run(args, &sb); err != nil {
		t.Fatalf("Run(%v): %v", args, err)
	}
	return sb.String()
}

func TestParseSkeletonNames(t *testing.T) {
	cases := map[string]core.Coordination{
		"seq": core.Sequential, "sequential": core.Sequential,
		"depthbounded": core.DepthBounded,
		"stacksteal":   core.StackStealing, "stackstealing": core.StackStealing,
		"budget": core.Budget, "replicable": core.Replicable,
	}
	for name, want := range cases {
		got, err := ParseSkeleton(name)
		if err != nil || got != want {
			t.Errorf("ParseSkeleton(%q) = %v/%v", name, got, err)
		}
	}
	if _, err := ParseSkeleton("nonsense"); err == nil {
		t.Error("bad skeleton accepted")
	}
}

func TestParseOrderNames(t *testing.T) {
	cases := map[string]core.Order{
		"": core.OrderNone, "none": core.OrderNone,
		"discrepancy": core.OrderDiscrepancy, "disc": core.OrderDiscrepancy,
		"bound": core.OrderBound,
	}
	for name, want := range cases {
		got, err := ParseOrder(name)
		if err != nil || got != want {
			t.Errorf("ParseOrder(%q) = %v/%v", name, got, err)
		}
	}
	if _, err := ParseOrder("nonsense"); err == nil {
		t.Error("bad order accepted")
	}
}

// -order flows into the Config and an ordered run reports its stats.
func TestRunOrderedMaxClique(t *testing.T) {
	for _, ord := range []string{"discrepancy", "bound"} {
		var buf bytes.Buffer
		err := Run([]string{"-app", "maxclique", "-skeleton", "depthbounded",
			"-workers", "2", "-localities", "2", "-n", "40", "-order", ord}, &buf)
		if err != nil {
			t.Fatalf("order %s: %v", ord, err)
		}
		out := buf.String()
		if !strings.Contains(out, "maximum clique size:") {
			t.Fatalf("order %s: no result in output:\n%s", ord, out)
		}
		if !strings.Contains(out, "order="+ord) || !strings.Contains(out, "prio-hist=") {
			t.Fatalf("order %s: ordered stats missing from output:\n%s", ord, out)
		}
	}
	var buf bytes.Buffer
	if err := Run([]string{"-app", "maxclique", "-n", "30", "-order", "bogus"}, &buf); err == nil {
		t.Fatal("bad -order accepted")
	}
}

func TestParseArgsDefaults(t *testing.T) {
	o, err := ParseArgs(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.App != "maxclique" || o.Skeleton != "seq" || o.Budget != 10000 {
		t.Errorf("defaults = %+v", o)
	}
}

// The two per-message latency flags are gone with the injector behind
// them, and -pool with the second workpool it selected: they are unknown
// flags now, not silently ignored ones.
func TestParseArgsRejectsUnknownFlag(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-steal-latency", "50us"},
		{"-bound-latency", "1ms"},
		{"-pool", "depthpool"},
	} {
		if _, err := ParseArgs(args); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// boundStamp is a locality that reports when a bound reaches it.
type boundStamp struct{ at chan time.Time }

func (boundStamp) ServeSteal(int) (dist.WireTask, bool) { return dist.WireTask{}, false }
func (h boundStamp) OnBound(int, int64)                 { h.at <- time.Now() }
func (boundStamp) OnCancel(int)                         {}
func (boundStamp) OnTask(dist.WireTask)                 {}
func (boundStamp) OnAck(int, uint64)                    {}

// -link-latency is the one way to slow the links between -localities:
// it becomes a fault plan whose default link has that latency, so a
// bound published on a network built from the config arrives no sooner.
func TestLinkLatencyMapsToFaultPlan(t *testing.T) {
	o, err := ParseArgs(nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan := o.Config().NetFault; plan != nil {
		t.Fatalf("no -link-latency built a fault plan: %+v", plan)
	}
	o, err = ParseArgs([]string{"-localities", "2", "-link-latency", "50us"})
	if err != nil {
		t.Fatal(err)
	}
	if o.LinkLat != 50*time.Microsecond {
		t.Fatalf("-link-latency 50us parsed as %v", o.LinkLat)
	}
	plan := o.Config().NetFault
	if plan == nil {
		t.Fatal("-link-latency built no fault plan")
	}
	net := dist.NewLoopback(2, dist.LoopbackOptions{Fault: plan})
	defer net.Close()
	h := boundStamp{at: make(chan time.Time, 1)}
	net.Transports()[1].Start(h)
	sent := time.Now()
	if err := net.Transports()[0].BroadcastBound(1, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case at := <-h.at:
		if d := at.Sub(sent); d < o.LinkLat {
			t.Fatalf("bound crossed a %v link in %v", o.LinkLat, d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("bound never arrived")
	}
}

func TestConfigMapping(t *testing.T) {
	o, err := ParseArgs([]string{"-workers", "7", "-localities", "3", "-d", "4",
		"-b", "777", "-chunked"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := o.Config()
	if cfg.Workers != 7 || cfg.Localities != 3 || cfg.DCutoff != 4 ||
		cfg.Budget != 777 || !cfg.Chunked {
		t.Errorf("Config = %+v", cfg)
	}
}

func TestRunMaxCliqueGenerated(t *testing.T) {
	out := run(t, "-app", "maxclique", "-n", "40", "-p", "0.5", "-seed", "3",
		"-skeleton", "depthbounded", "-workers", "4")
	if !strings.Contains(out, "maximum clique size:") {
		t.Fatalf("output missing result: %q", out)
	}
	if !strings.Contains(out, "skeleton=depthbounded") {
		t.Fatalf("output missing stats: %q", out)
	}
}

func TestRunNamedInstance(t *testing.T) {
	out := run(t, "-app", "maxclique", "-gen", "brock400_4", "-skeleton", "stacksteal", "-workers", "4")
	if !strings.Contains(out, "maximum clique size: 15") {
		t.Fatalf("unexpected result for brock400_4: %q", out)
	}
}

func TestRunUnknownInstance(t *testing.T) {
	var sb strings.Builder
	if err := Run([]string{"-app", "maxclique", "-gen", "no_such"}, &sb); err == nil {
		t.Fatal("unknown instance accepted")
	}
}

func TestRunKCliqueRequiresBound(t *testing.T) {
	var sb strings.Builder
	if err := Run([]string{"-app", "kclique", "-n", "20"}, &sb); err == nil {
		t.Fatal("kclique without -decision-bound accepted")
	}
}

func TestRunKCliqueDecision(t *testing.T) {
	out := run(t, "-app", "kclique", "-n", "40", "-p", "0.9", "-seed", "2",
		"-decision-bound", "5", "-skeleton", "budget", "-b", "50", "-workers", "4")
	if !strings.Contains(out, "5-clique exists: true") {
		t.Fatalf("dense graph should contain a 5-clique: %q", out)
	}
}

// writeDIMACS writes g to a .clq file of the test's own and returns its path.
func writeDIMACS(t *testing.T, g *graph.Graph) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.clq")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteDIMACS(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunDIMACSFile(t *testing.T) {
	path := writeDIMACS(t, graph.Random(30, 0.7, 5))
	out := run(t, "-app", "maxclique", "-f", path)
	if !strings.Contains(out, "maximum clique size:") {
		t.Fatalf("file-based run failed: %q", out)
	}
}

func TestRunMissingFile(t *testing.T) {
	var sb strings.Builder
	if err := Run([]string{"-app", "maxclique", "-f", "/no/such/file.clq"}, &sb); err == nil {
		t.Fatal("missing file accepted")
	}
}

// eachAppArgs are small instances of every row of the application table
// (TestRunEachApp fails on a row without one), under a coordination a
// deployment can run.
var eachAppArgs = [][]string{
	{"-app", "maxclique", "-n", "40", "-p", "0.5", "-skeleton", "depthbounded", "-d", "2"},
	{"-app", "kclique", "-n", "40", "-p", "0.9", "-decision-bound", "5", "-skeleton", "budget", "-b", "50"},
	{"-app", "knapsack", "-items", "16", "-skeleton", "budget", "-b", "100"},
	{"-app", "tsp", "-cities", "9", "-skeleton", "depthbounded"},
	{"-app", "sip", "-n", "30", "-p", "0.4", "-pattern", "8", "-skeleton", "stacksteal"},
	{"-app", "uts", "-uts-b0", "50", "-uts-m", "3", "-uts-q", "0.2", "-skeleton", "depthbounded"},
	{"-app", "uts", "-uts-shape", "geometric", "-uts-b0", "3", "-uts-depth", "8", "-skeleton", "stacksteal"},
	{"-app", "ns", "-genus", "10", "-skeleton", "budget", "-b", "50"},
	{"-app", "queens", "-n", "8", "-skeleton", "depthbounded"},
}

// Every row of the table answers, and answers the same whether the
// command line says -dist or not: a row with a codec prints the
// single-process answer line from a 2-rank deployment, a row without one
// is refused before anything listens, with the rows that would work.
func TestRunEachApp(t *testing.T) {
	covered := map[string]bool{}
	for _, args := range eachAppArgs {
		o, err := ParseArgs(args)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		covered[o.App] = true
		args = slices.Concat(args, []string{"-workers", "2", "-stats=false"})
		want := run(t, args...)
		if want == "" || strings.Count(want, "\n") != 1 {
			t.Errorf("%v: answer %q, want one line", args, want)
		}
		if o.app.dist {
			if got := distAnswer(t, args...); got != want {
				t.Errorf("%v: 2-rank deployment answers %q, single process %q", args, got, want)
			}
			continue
		}
		var out strings.Builder
		err = Run(append(args, "-dist", "coordinator", "-dist-addr", "127.0.0.1:0"), &out)
		if err == nil || !strings.Contains(err.Error(), "(supported: "+appNames(" ", true)+")") || out.Len() != 0 {
			t.Errorf("%v under -dist: err %v, output %q; want a refusal naming the supported apps, before listening", args, err, out.String())
		}
	}
	for _, a := range apps {
		if !covered[a.name] {
			t.Errorf("app %q has no instance in eachAppArgs", a.name)
		}
	}
}

func TestRunQueensKnownCount(t *testing.T) {
	out := run(t, "-app", "queens", "-n", "8", "-skeleton", "depthbounded", "-workers", "4")
	if !strings.Contains(out, "8-queens solutions: 92") {
		t.Fatalf("queens output: %q", out)
	}
}

func TestRunNSKnownCount(t *testing.T) {
	out := run(t, "-app", "ns", "-genus", "12")
	if !strings.Contains(out, "genus 12: 592") {
		t.Fatalf("NS count wrong: %q", out)
	}
}

func TestRunUnknownApp(t *testing.T) {
	var sb strings.Builder
	if err := Run([]string{"-app", "sudoku"}, &sb); err == nil {
		t.Fatal("unknown app accepted")
	}
}

// -skeleton bestfirst is the CLI spelling of budget + -order bound: it
// runs the ordinary driver, so it reports stats like any other run.
func TestRunBestFirst(t *testing.T) {
	out := run(t, "-app", "maxclique", "-n", "40", "-p", "0.6", "-skeleton", "bestfirst", "-workers", "4", "-b", "64")
	want := run(t, "-app", "maxclique", "-n", "40", "-p", "0.6", "-skeleton", "seq", "-stats=false")
	if !strings.HasPrefix(out, want) {
		t.Fatalf("bestfirst answer %q, sequential %q", out, want)
	}
	for _, line := range []string{"skeleton=budget workers=4", "nodes=", "order=bound ordered-steals="} {
		if !strings.Contains(out, line) {
			t.Fatalf("bestfirst stats lack %q: %q", line, out)
		}
	}
	if out = run(t, "-app", "maxclique", "-n", "40", "-p", "0.6", "-skeleton", "bestfirst", "-stats=false"); strings.Contains(out, "nodes=") {
		t.Fatalf("bestfirst ignored -stats=false: %q", out)
	}
	out = run(t, "-app", "knapsack", "-items", "16", "-skeleton", "bestfirst", "-workers", "4", "-b", "128")
	if !strings.Contains(out, "optimal profit") {
		t.Fatalf("bestfirst knapsack output: %q", out)
	}
	out = run(t, "-app", "tsp", "-cities", "9", "-skeleton", "bestfirst", "-workers", "4", "-b", "256")
	if !strings.Contains(out, "optimal tour cost") {
		t.Fatalf("bestfirst tsp output: %q", out)
	}
	var sb strings.Builder
	for _, app := range []string{"ns", "uts", "queens"} {
		if err := Run([]string{"-app", app, "-skeleton", "bestfirst"}, &sb); err == nil {
			t.Fatalf("bestfirst on enumeration app %s accepted", app)
		}
	}
	if err := Run([]string{"-app", "maxclique", "-skeleton", "bestfirst", "-f", "/no/file"}, &sb); err == nil {
		t.Fatal("bestfirst with missing file accepted")
	}
}

func TestRunSIPFromFile(t *testing.T) {
	path := writeDIMACS(t, graph.Random(25, 0.6, 3))
	out := run(t, "-app", "sip", "-f", path, "-pattern", "6")
	if !strings.Contains(out, "found in target") {
		t.Fatalf("sip file output: %q", out)
	}
}

func TestRunTraceSummary(t *testing.T) {
	out := run(t, "-app", "maxclique", "-n", "40", "-p", "0.6",
		"-skeleton", "depthbounded", "-workers", "4", "-trace")
	if !strings.Contains(out, "utilisation=") || !strings.Contains(out, "tasks per depth:") {
		t.Fatalf("trace summary missing: %q", out)
	}
	// The sequential skeleton is traced like the rest: its search is
	// one task, at depth 0, on the one worker it runs on.
	out = run(t, "-app", "knapsack", "-items", "16", "-skeleton", "seq", "-workers", "4", "-trace")
	if !strings.Contains(out, "tasks=1 ") || !strings.Contains(out, "utilisation=100.0%") || !strings.Contains(out, "tasks per depth: 0:1") {
		t.Fatalf("sequential trace summary: %q", out)
	}
}

func TestRunStatsSuppressed(t *testing.T) {
	out := run(t, "-app", "maxclique", "-n", "25", "-stats=false")
	if strings.Contains(out, "nodes=") {
		t.Fatalf("stats printed despite -stats=false: %q", out)
	}
}

// The stats line reports the workers and localities that ran, not the
// numbers asked for: core gives a locality at least one worker and the
// Sequential skeleton one of each.
func TestRunStatsReportWhatRan(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-skeleton budget -workers 2 -localities 5", "workers=2 localities=2 "},
		{"-skeleton depthbounded -workers 4 -localities 2", "workers=4 localities=2 "},
		{"-skeleton seq -workers 4 -localities 3", "workers=1 localities=1 "},
	} {
		out := run(t, append(strings.Fields(tc.args), "-app", "maxclique", "-n", "25")...)
		if !strings.Contains(out, tc.want) {
			t.Errorf("%s: stats do not say %q:\n%s", tc.args, tc.want, out)
		}
	}
}
