// Command campaignbench is the end-to-end benchmark of the campaign
// engine. It runs one named workload through the program's public
// entry points — campaign.Run in process, or cmd/dseserve over HTTP —
// checks the outputs, and prints every metric by name with its unit,
// ending with one JSON result line:
//
//	bash campaignbench/run.sh --workload served-campaign --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; --trace 1
// runs the same workload traced and reports the per-layer metrics,
// writes the spans as Chrome trace-event JSON under .bench_build/traces
// and prints a per-layer self-time table. Any failed output check
// exits non-zero. BENCHMARK.json at the repository root declares the
// workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// workers is the campaign worker count and the client's connection
// budget: the benchmark's load comes from one process using at most
// two cores' worth of workers or connections.
const workers = 2

// env is what a workload run needs from the command line.
type env struct {
	seed    int64
	seconds time.Duration
	trace   bool
	root    string // checkout root
	work    string // scratch directory of this run, removed afterwards
	tr      *tracer
}

type workload func(e *env) (values, ops, error)

var workloads = map[string]workload{
	"warm-campaign":   warmCampaign,
	"served-campaign": servedCampaign,
}

// checkError marks a failed output check: the run prints its result
// with "correct": false and exits non-zero.
type checkError struct{ err error }

func (c checkError) Error() string { return "output check failed: " + c.err.Error() }

func checkf(format string, args ...any) error { return checkError{fmt.Errorf(format, args...)} }

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: warm-campaign or served-campaign")
	seed := flag.Int64("seed", 1, "workload seed; it is the campaign seed")
	seconds := flag.Int("seconds", 10, "how long the timed phase measures")
	trace := flag.Int("trace", 0, "1 runs the workload traced and reports per-layer metrics")
	root := flag.String("root", ".", "checkout root (build outputs live in its .bench_build)")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: campaignbench --workload warm-campaign|served-campaign --seed N --seconds S --trace 0|1")
		return 2
	}
	abs, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", err)
		return 1
	}
	e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, root: abs}
	build := filepath.Join(abs, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", err)
		return 1
	}
	if e.work, err = os.MkdirTemp(build, "work-"); err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", err)
		return 1
	}
	defer os.RemoveAll(e.work)
	if e.trace {
		e.tr = newTracer()
	}

	v, o, err := w(e)
	var failedCheck checkError
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", err)
		if !errors.As(err, &failedCheck) {
			return 1
		}
	}
	v["failed_frac"] = o.failedFrac()
	v.printAll(os.Stdout)
	if e.trace && err == nil {
		if terr := writeTrace(e, *name); terr != nil {
			fmt.Fprintln(os.Stderr, "campaignbench:", terr)
			return 1
		}
	}

	defs := endToEnd
	if e.trace {
		defs = perLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: err == nil, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		out.Metrics[d.name] = metric{v[d.name], d.unit}
	}
	line, merr := json.Marshal(out)
	if merr != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", merr)
		return 1
	}
	fmt.Println(string(line))
	if err != nil {
		return 1
	}
	return 0
}

// writeTrace writes the run's spans as Chrome trace JSON and prints
// the self-time table of each trace (campaign, replica, requests).
func writeTrace(e *env, name string) error {
	spans := e.tr.snapshot()
	dir := filepath.Join(e.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, e.seed))
	if err := writeChrome(path, spans); err != nil {
		return err
	}
	// One table per kind of trace: all traced campaigns together, the
	// replica, the served requests.
	rootName := map[int64]string{}
	for _, s := range spans {
		if s.id == s.trace {
			rootName[s.trace] = s.name
		}
	}
	byRoot := map[string][]span{}
	var order []string
	for _, s := range spans {
		n := rootName[s.trace]
		if _, seen := byRoot[n]; !seen {
			order = append(order, n)
		}
		byRoot[n] = append(byRoot[n], s)
	}
	for _, n := range order {
		writeSelfTable(os.Stdout, n, byRoot[n])
	}
	fmt.Printf("trace written to %s (open in Perfetto or chrome://tracing)\n", path)
	return nil
}
