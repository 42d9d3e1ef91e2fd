// Command benchmark is the repository's request-to-kernel serving benchmark.
// It builds cmd/inspire-serve, boots it as a child process with default
// flags, drives it over HTTP with a seeded workload, checks every reply
// against an independent reference, and prints every metric by name. See
// README.md in this directory.
//
//	bash benchmark/run.sh                                   # all workloads, end-to-end metrics
//	bash benchmark/run.sh --workload mixed_swap --seed 7    # one workload
//	bash benchmark/run.sh --workload squeezenet_closed1 --trace 1   # per-module ledger
//	bash benchmark/run.sh --repeat 2                        # repeatability self-check
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	goruntime "runtime"
	"strings"
	"time"
)

func main() {
	workload := flag.String("workload", "all", "workload to run (a name from BENCHMARK.json, or all)")
	seed := flag.Uint64("seed", 1, "seed of the input pool, the arrival schedule and the swap weight seeds")
	seconds := flag.Int("seconds", 20, "measured seconds per workload")
	trace := flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-module metrics from a traced run")
	repeat := flag.Int("repeat", 1, "run the whole set this many times and fail if the first and last disagree beyond a metric's bound")
	root := flag.String("root", "..", "repository root; run.sh passes it")
	tracedServer := flag.String("traced-server", "", "internal: serve as the traced twin of inspire-serve, writing spans to this file on exit")
	addr := flag.String("addr", "127.0.0.1:0", "internal: listen address of -traced-server")
	flag.Parse()

	if *tracedServer != "" {
		if err := tracedServe(*addr, *tracedServer); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: traced server:", err)
			os.Exit(1)
		}
		return
	}
	ok, err := run(*root, *workload, *seed, *seconds, *trace, *repeat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// env is where the benchmark runs: the repository checkout and the binaries
// built from it.
type env struct {
	root      string
	buildDir  string
	serverBin string
	selfBin   string
}

// buildDirName holds everything the benchmark writes: binaries, the Go build
// cache and span files. It is listed in .gitignore.
const buildDirName = ".bench_build"

// prepare builds cmd/inspire-serve from the checkout's source. Where the Go
// build cache and temp files go is the caller's environment: run.sh points
// them inside the checkout.
func prepare(root string) (*env, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	e := &env{root: root, buildDir: filepath.Join(root, buildDirName)}
	e.serverBin = filepath.Join(e.buildDir, "inspire-serve")
	if e.selfBin, err = os.Executable(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(e.buildDir, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "build", "-o", e.serverBin, "./cmd/inspire-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building cmd/inspire-serve: %w\n%s", err, out)
	}
	return e, nil
}

// commit names the source under test when the checkout is a git repository.
func (e *env) commit() string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = e.root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// Result is one workload's run.
type Result struct {
	Workload  string
	Attempted int
	Failed    int // rejected + failed + warm-up failures + failed swaps
	Correct   bool
	Detail    string // counts line for the report
	Err       error  // first failed check, if any
	Metrics   []Metric
}

func run(root, workload string, seed uint64, seconds, trace, repeat int) (bool, error) {
	if seconds < 1 {
		return false, errors.New("-seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return false, errors.New("-trace must be 0 or 1")
	}
	if repeat < 1 {
		return false, errors.New("-repeat must be at least 1")
	}
	var todo []Workload
	if workload == "all" {
		todo = workloads
	} else {
		w, ok := workloadByName(workload)
		if !ok {
			return false, fmt.Errorf("unknown workload %q", workload)
		}
		todo = []Workload{w}
	}
	e, err := prepare(root)
	if err != nil {
		return false, err
	}
	fmt.Printf("# inspire serving benchmark: seed=%d seconds=%d trace=%d repeat=%d nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		seed, seconds, trace, repeat, goruntime.NumCPU(), goruntime.GOMAXPROCS(0), goruntime.Version(), e.commit())

	measure := time.Duration(seconds) * time.Second
	allOK := true
	sets := make([][]*Result, repeat)
	for r := range sets {
		if repeat > 1 {
			fmt.Printf("# set %d of %d\n", r+1, repeat)
		}
		for _, w := range todo {
			var res *Result
			if trace == 1 {
				res, err = runTraced(e, w, seed, measure)
			} else {
				res, err = runEndToEnd(e, w, seed, measure)
			}
			if err != nil {
				return false, fmt.Errorf("%s: %w", w.Name, err)
			}
			printResult(w, res)
			allOK = allOK && res.Correct
			sets[r] = append(sets[r], res)
		}
	}
	if repeat > 1 {
		same, err := compareSets(e.root, sets[0], sets[repeat-1])
		if err != nil {
			return false, err
		}
		allOK = allOK && same
	}
	return allOK, printJSON(sets[repeat-1])
}

func printResult(w Workload, r *Result) {
	loop := fmt.Sprintf("closed loop, %d client(s)", w.Conns)
	if w.Rate > 0 {
		loop = fmt.Sprintf("open loop, Poisson %g req/s over %d connections", w.Rate, w.Conns)
	}
	if w.SwapEvery > 0 {
		loop += fmt.Sprintf(", plus a hot swap every %v", w.SwapEvery)
	}
	fmt.Printf("workload %s: %s, items=%d, model %s\n", w.Name, loop, w.Items, w.Model)
	fmt.Printf("  %s\n", r.Detail)
	if r.Err != nil {
		fmt.Printf("  FIRST FAILURE: %v\n", r.Err)
	}
	for _, m := range r.Metrics {
		note := ""
		if m.Note != "" {
			note = "  (" + m.Note + ")"
		}
		fmt.Printf("  %-32s %14.4f %-8s n=%d%s\n", m.Name, m.Value, m.Unit, m.N, note)
	}
}

// printJSON writes the result line the driver reads: one JSON object, last on
// standard output. A single workload's metrics go by their own names; a run
// of several prefixes each with its workload.
func printJSON(results []*Result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: make(map[string]value)}
	for _, r := range results {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for _, m := range r.Metrics {
			name := m.Name
			if len(results) > 1 {
				name = r.Workload + "/" + name
			}
			out.Metrics[name] = value{m.Value, m.Unit}
		}
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(raw))
	return nil
}
