package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestMedianAndQuartilesMatchPythonStatistics(t *testing.T) {
	cases := []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		// statistics.median / statistics.quantiles(xs, n=4)
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 5.5, 2.75, 8.25},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{1, 2}, 1.5, 0.75, 2.25},
		{[]float64{7}, 7, 7, 7},
		{[]float64{1.5, 2.5, 4, 8, 16}, 4, 2, 12},
	}
	for _, c := range cases {
		if got := median(c.xs); got != c.med {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	xs := []float64{5, 1, 4, 2, 3}
	if percentile(xs, 50) != 3 || percentile(xs, 99) != 5 || percentile(xs, 100) != 5 || percentile(xs, 0) != 1 {
		t.Errorf("nearest-rank percentiles of %v are wrong", xs)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "parent", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "a", Parent: 0, Start: 10 * ms, End: 40 * ms},
		{Name: "overlaps a", Parent: 0, Start: 30 * ms, End: 60 * ms},
		{Name: "runs past the parent", Parent: 0, Start: 90 * ms, End: 120 * ms},
		{Name: "grandchild", Parent: 1, Start: 15 * ms, End: 20 * ms},
	}
	self := selfTimes(spans)
	want := []time.Duration{40 * ms, 25 * ms, 30 * ms, 30 * ms, 5 * ms}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
}

// benchmarkJSON mirrors BENCHMARK.json; unknown keys are an error.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestDeclarationsMeetTheContractAndMatchBenchmarkJSON(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the allowed alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		use(w.name)
		if len(w.why) > 200 || strings.ContainsAny(w.why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	setup := false
	for _, d := range endToEnd {
		use(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("end-to-end metrics lack setup_s (unit s, lower is better)")
	}
	for _, d := range perLayer {
		use(d.Name)
		if d.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", d.Name)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is outside the allowed alphabet or length", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}

	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if want := []string{"go", "run", "./bench"}; !reflect.DeepEqual(decl.Command, want) {
		t.Errorf("command = %v, want %v", decl.Command, want)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(decl.Paths, want) {
		t.Errorf("paths = %v, want %v", decl.Paths, want)
	}
	if decl.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", decl.RunSeconds, defaultSeconds)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name || decl.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %s / %s", i, decl.Workloads[i], w.name, w.why)
		}
	}
	if !reflect.DeepEqual(decl.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json    %+v\n program %+v", decl.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(decl.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json    %+v\n program %+v", decl.PerLayer, perLayer)
	}
}

func metricNames(defs []metricDef) []string {
	var names []string
	for _, d := range defs {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	return names
}

// TestMiniatureRuns pushes a miniature of every workload through the
// code path of a real run — set-up sampling, warm-up, both arms, the
// in-process TCP star and mesh, probes, oracle checks — and requires
// exactly the declared metric set and, for the traced pass, a trace
// file that parses.
func TestMiniatureRuns(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			dir := t.TempDir()
			res, err := runWorkload(w, runOpts{seed: 3, mini: true, traced: traced, outdir: dir}, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 4 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			var got []string
			for n, mv := range res.Metrics {
				got = append(got, n)
				if mv.Value != nil && (math.IsNaN(*mv.Value) || math.IsInf(*mv.Value, 0)) {
					t.Errorf("%s traced=%v: %s = %v", w.name, traced, n, *mv.Value)
				}
			}
			sort.Strings(got)
			if want := metricNames(defs); !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v: metrics %v, declared %v", w.name, traced, got, want)
			}
			if !traced {
				for _, d := range endToEnd {
					if v := res.Metrics[d.Name].Value; v != nil && *v <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.Name, *v)
					}
				}
				continue
			}
			blob, err := os.ReadFile(filepath.Join(dir, "trace-"+w.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tr struct {
				TraceEvents []chromeEvent `json:"traceEvents"`
			}
			if err := json.Unmarshal(blob, &tr); err != nil {
				t.Fatalf("%s: trace does not parse: %v", w.name, err)
			}
			names := map[string]bool{}
			for _, e := range tr.TraceEvents {
				names[e.Name] = true
				if e.Ph != "X" || e.Dur < 0 {
					t.Errorf("%s: bad trace event %+v", w.name, e)
				}
			}
			for _, want := range []string{"run." + w.name, "generate+build", "solve.measured.traced", "deploy", "entry_point", "oracle_check", "probe.bitset", "probe.tcp_mesh"} {
				if !names[want] {
					t.Errorf("%s: trace has no %q span", w.name, want)
				}
			}
		}
	}
}

func fileWith(vals map[string][]float64, failed int) resultsFile {
	var f resultsFile
	for i := 0; i < 10; i++ {
		for _, w := range workloads {
			rec := record{Workload: w.name, Seed: int64(i)}
			rec.Attempted, rec.Failed, rec.Metrics = 10, failed, map[string]metricValue{}
			for _, d := range endToEnd {
				v := 100 + float64(i)/10 // spread well inside every bound
				if xs, ok := vals[w.name+"/"+d.Name]; ok {
					v = xs[i]
				}
				rec.Metrics[d.Name] = metricValue{Value: &v, Unit: d.Unit}
			}
			f.Records = append(f.Records, rec)
		}
	}
	return f
}

func TestCompareVerdictsAndExitCode(t *testing.T) {
	lower := metricDef{Name: "t", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "r", Better: "higher", Bound: 0.10}
	steady := func(c float64) []float64 { return []float64{c, c * 1.01, c * 0.99, c * 1.005, c * 0.995} }
	noisy := []float64{50, 100, 150, 200, 250}
	for _, c := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, steady(100), steady(100), "same"},
		{lower, steady(100), steady(105), "same"},
		{lower, steady(100), steady(120), "worse"},
		{lower, steady(100), steady(90), "better"},
		{higher, steady(100), steady(120), "better"},
		{higher, steady(100), steady(80), "worse"},
		{lower, noisy, steady(100), "unresolved"},
		{lower, steady(100), nil, "unresolved"},
	} {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s is better, A~%v, B~%v) = %s, want %s", c.d.Better, median(c.a), median(c.b), got, c.want)
		}
	}

	dir := t.TempDir()
	write := func(name string, f resultsFile) string {
		blob, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", fileWith(nil, 0))
	slow := make([]float64, 10)
	for i := range slow {
		slow[i] = 70 + float64(i)/10
	}
	worse := write("b.json", fileWith(map[string][]float64{"uts_tcp/speedup": slow}, 0))
	failing := write("c.json", fileWith(nil, 1))
	for _, c := range []struct {
		b    string
		code int
		row  string
	}{
		{base, 0, ""},
		{worse, 1, `uts_tcp\s+speedup.*worse`},
		{failing, 1, `failed_frac.*worse`},
	} {
		var out bytes.Buffer
		if code := realMain([]string{"-compare", base, c.b}, &out, io.Discard); code != c.code {
			t.Errorf("-compare a.json %s: exit %d, want %d\n%s", filepath.Base(c.b), code, c.code, out.String())
		}
		if c.row != "" && !regexp.MustCompile(c.row).MatchString(out.String()) {
			t.Errorf("-compare a.json %s: no row matching %q in\n%s", filepath.Base(c.b), c.row, out.String())
		}
	}
}

func TestUnknownWorkloadIsRefused(t *testing.T) {
	if code := realMain([]string{"-workload", "nope"}, io.Discard, io.Discard); code == 0 {
		t.Error("an unknown workload exited 0")
	}
}
