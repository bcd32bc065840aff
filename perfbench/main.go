// Command perfbench is the λ-Tune benchmark harness. It drives the program
// only through its public seams — lambdatune.Benchmark and
// Database.TuneContext for CLI-style jobs, the lambdatuned binary's /v1 HTTP
// API for the daemon — runs one workload for a fixed wall-clock window, checks
// every job against a standalone reference run, and prints one JSON report as
// the last line of standard output.
//
// Usage (normally through run.sh, which builds both binaries first):
//
//	perfbench -workload tune-sweep -seed 1 -seconds 15 -trace 0 \
//	    -daemon path/to/lambdatuned -work path/to/scratch-dir
//
// With -trace 0 the report holds the end-to-end metrics, measured untraced;
// with -trace 1 it holds the per-layer metrics of a separate traced run. See
// README.md for the workloads, the metrics and how they relate.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. The lists below are the
// harness's side of BENCHMARK.json; metrics_test.go keeps them in step.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"jobs_per_s", "jobs/s"},
	{"job_ms_p50", "ms"},
	{"job_ms_p90", "ms"},
	{"cpu_ms_per_job", "ms"},
	{"alloc_mb_per_job", "MB"},
	{"max_rss_mb", "MB"},
	{"setup_s", "s"},
	{"speedup_geomean", "x"},
	{"tuning_virtual_s_mean", "virtual_s"},
}

var perLayer = []metricDef{
	{"workload.build_ms", "ms"},
	{"engine.run_query_calls", "count"},
	{"engine.explain_calls", "count"},
	{"engine.plan_calls", "count"},
	{"engine.run_query_wall_ms", "ms"},
	{"engine.plan_cache_hit_rate", "ratio"},
	{"schedule.wall_ms", "ms"},
	{"schedule.calls", "count"},
	{"prompt.wall_ms", "ms"},
	{"prompt.tokens", "count"},
	{"llm.calls", "count"},
	{"llm.wall_ms", "ms"},
	{"llm.usable_ratio", "ratio"},
	{"evaluator.query_wall_ms", "ms"},
	{"evaluator.query_virtual_s", "virtual_s"},
	{"evaluator.index_builds", "count"},
	{"evaluator.index_build_wall_ms", "ms"},
	{"runtime.memo_hit_rate", "ratio"},
	{"runtime.memo_cross_job_hit_rate", "ratio"},
	{"runtime.memo_evictions", "count"},
	{"runtime.slot_wait_ms_mean", "ms"},
	{"llm.gateway_calls", "count"},
	{"service.enqueue_ms_p50", "ms"},
	{"service.admit_to_run_ms_p50", "ms"},
	{"service.run_to_reply_ms_p50", "ms"},
	{"runstate.bytes", "bytes"},
	{"runstate.files", "count"},
	{"obs.spans", "count"},
	{"tuner.self_ms", "ms"},
	{"trace.untraced_jobs_per_s", "jobs/s"},
	{"trace.traced_jobs_per_s", "jobs/s"},
	{"trace.overhead_ratio", "x"},
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	daemon   string // lambdatuned binary (daemon-stream only)
	work     string // scratch directory for daemon data dirs
}

// report is the JSON object printed as the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runDeadline bounds one invocation: the benchmark contract allows 180 s.
const runDeadline = 170 * time.Second

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "tune-sweep, race-sweep or daemon-stream")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed generates the same jobs")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.StringVar(&cfg.daemon, "daemon", "", "lambdatuned binary for daemon-stream")
	flag.StringVar(&cfg.work, "work", "", "scratch directory for daemon data dirs")
	flag.Parse()
	cfg.trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()
	rep, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printReport(rep)
	if !rep.Correct {
		os.Exit(1)
	}
}

func run(ctx context.Context, cfg config) (*report, error) {
	switch cfg.workload {
	case "tune-sweep":
		return runSweep(ctx, cfg, false)
	case "race-sweep":
		return runSweep(ctx, cfg, true)
	case "daemon-stream":
		return runDaemon(ctx, cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want tune-sweep, race-sweep or daemon-stream)", cfg.workload)
}

// newReport fills the metrics of one list from values, in list order; a
// value the run did not produce is an error, so a report is always complete.
func newReport(defs []metricDef, values map[string]float64, attempted, failed int) (*report, error) {
	rep := &report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		rep.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return rep, nil
}

// printReport writes a readable table to standard error and the JSON report
// to standard output.
func printReport(rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "correct=%v attempted=%d failed=%d\n", rep.Correct, rep.Attempted, rep.Failed)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-32s %14.4f %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
