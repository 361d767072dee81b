// Command bench is the repository's benchmark: four workloads that
// between them exercise every layer (bitset kernels and generators,
// the sequential loop, pools and task accounting, codecs and the wire),
// measured end to end with tracing off and layer by layer in a separate
// traced pass. BENCHMARK.json at the repository root declares what it
// reports; README.md in this directory explains how to read it.
//
//	go run ./bench --workload uts_par --seed 1 --seconds 20 --trace 0
//	go run ./bench                          # every workload, both passes
//	go run ./bench -runs 10 -out A.json     # ten seeds per workload
//	go run ./bench -compare A.json B.json
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// defaultSeconds is run_seconds in BENCHMARK.json: how long one run's
// measuring loop lasts.
const defaultSeconds = 20

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadName := fs.String("workload", "", "run one pass of this workload (default: every workload, both passes, each in its own process)")
	seed := fs.Int64("seed", 1, "derives every generated instance")
	secs := fs.Float64("seconds", defaultSeconds, "how long one run measures")
	trace := fs.Int("trace", 0, "0: end-to-end pass, tracing off; 1: traced per-layer pass")
	outdir := fs.String("outdir", filepath.Join("bench", "out"), "directory for trace and result files")
	runs := fs.Int("runs", 1, "without -workload: end-to-end runs per workload, at seeds seed..seed+runs-1")
	out := fs.String("out", "", "without -workload: write every run's result to this file (default <outdir>/results.json)")
	compare := fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare A.json B.json")
			return 2
		}
		code, err := compareFiles(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		return code
	}

	if *workloadName == "" {
		if *out == "" {
			*out = filepath.Join(*outdir, "results.json")
		}
		if err := runAll(*seed, *secs, *runs, *outdir, *out, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}

	w := findWorkload(*workloadName)
	if w == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workloadName)
		return 2
	}
	// Two search workers on two cores whatever the host has, and the GC
	// setting cmd/yewpar runs with.
	runtime.GOMAXPROCS(searchWorkers)
	debug.SetGCPercent(800)
	res, err := runWorkload(w, runOpts{seed: *seed, seconds: *secs, traced: *trace != 0, outdir: *outdir}, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// record is one run as stored in a result file.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	runResult
}

// resultsFile is what -out writes and -compare reads.
type resultsFile struct {
	Host    hostInfo `json:"host"`
	Seconds float64  `json:"seconds"`
	Records []record `json:"records"`
}

type hostInfo struct {
	NProc     int    `json:"nproc"`
	CPUModel  string `json:"cpu_model"`
	GoVersion string `json:"go_version"`
	Platform  string `json:"platform"`
}

func thisHost() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GoVersion: runtime.Version(), Platform: runtime.GOOS + "/" + runtime.GOARCH}
	if blob, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(blob), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// runAll runs every workload: `runs` end-to-end passes at consecutive
// seeds and one traced pass, each in a process of its own so that one
// workload's heap, peak RSS and scheduler state cannot leak into the
// next. The children's reports are passed through.
func runAll(seed int64, secs float64, runs int, outdir, out string, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultsFile{Host: thisHost(), Seconds: secs}
	incorrect := 0
	for _, w := range workloads {
		for i := 0; i <= runs; i++ {
			rec := record{Workload: w.name, Seed: seed + int64(i)}
			if i == runs {
				rec.Seed, rec.Trace = seed, 1
			}
			cmd := exec.Command(exe,
				"-workload", w.name, "-seed", fmt.Sprint(rec.Seed), "-seconds", fmt.Sprint(secs),
				"-trace", fmt.Sprint(rec.Trace), "-outdir", outdir)
			cmd.Stderr = stderr
			report, runErr := cmd.Output()
			last, err := passThrough(report, stdout)
			if err != nil {
				return fmt.Errorf("%s seed %d trace %d: %v (exit: %v)", w.name, rec.Seed, rec.Trace, err, runErr)
			}
			if err := json.Unmarshal(last, &rec.runResult); err != nil {
				return fmt.Errorf("%s seed %d trace %d: last line is not a result: %w", w.name, rec.Seed, rec.Trace, err)
			}
			if !rec.Correct {
				incorrect++
			}
			file.Records = append(file.Records, rec)
		}
	}
	blob, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(out, blob, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nresults: %s\n", out)
	summarise(file, stdout)
	if incorrect > 0 {
		return fmt.Errorf("%d runs had failed solves", incorrect)
	}
	return nil
}

// passThrough copies a child's report to w, all but its last line,
// which it returns: the result object.
func passThrough(report []byte, w io.Writer) ([]byte, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(report))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != nil {
			fmt.Fprintf(w, "%s\n", last)
		}
		last = append([]byte(nil), sc.Bytes()...)
	}
	if last == nil {
		return nil, fmt.Errorf("no output")
	}
	return last, sc.Err()
}
