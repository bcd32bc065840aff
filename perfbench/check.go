package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strings"

	"lambdatune"
)

// jobResult is the deterministic part of a tuning result: the fields the
// identity check compares and the quality metrics read.
type jobResult struct {
	BestScript     string
	BestSeconds    float64
	DefaultSeconds float64
	TuningSeconds  float64
	Candidates     int
}

func fromResult(r *lambdatune.Result) jobResult {
	return jobResult{
		BestScript: r.BestScript, BestSeconds: r.BestSeconds, DefaultSeconds: r.DefaultSeconds,
		TuningSeconds: r.TuningSeconds, Candidates: r.Candidates,
	}
}

// key renders the result exactly: %.17g round-trips every float64, so two
// keys are equal only when the results are identical bit for bit.
func (r jobResult) key() string {
	return fmt.Sprintf("best=%q best_s=%.17g default_s=%.17g tuning_s=%.17g candidates=%d",
		r.BestScript, r.BestSeconds, r.DefaultSeconds, r.TuningSeconds, r.Candidates)
}

// outcome is one job of a timed window.
type outcome struct {
	index  int // position in the generated job list
	spec   spec
	ms     float64 // wall latency, submit to result
	result jobResult
	err    error
}

// runStandalone runs a job the way a one-off lambdatune invocation does:
// a fresh benchmark database tuned by Database.TuneContext.
func runStandalone(ctx context.Context, s spec) (jobResult, error) {
	db, w, err := lambdatune.Benchmark(s.Benchmark, lambdatune.Postgres)
	if err != nil {
		return jobResult{}, err
	}
	res, err := db.TuneContext(ctx, w, lambdatune.NewSimulatedLLM(s.Seed), s.options())
	if err != nil {
		return jobResult{}, err
	}
	return fromResult(res), nil
}

// checkReferences reruns every distinct job of the window standalone,
// untimed, and counts the jobs that failed: those that errored and those
// whose result differs from their reference. Mismatches go to stderr.
func checkReferences(ctx context.Context, outs []outcome) (int, error) {
	refs := map[string]string{}
	failed := 0
	for _, o := range outs {
		if o.err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "job %d (%s): %v\n", o.index, o.spec.refKey(), o.err)
			continue
		}
		k := o.spec.refKey()
		ref, ok := refs[k]
		if !ok {
			r, err := runStandalone(ctx, o.spec)
			if err != nil {
				return 0, fmt.Errorf("reference run %s: %w", k, err)
			}
			ref = r.key()
			refs[k] = ref
		}
		if got := o.result.key(); got != ref {
			failed++
			fmt.Fprintf(os.Stderr, "job %d (%s) differs from its reference:\n  got  %s\n  want %s\n", o.index, k, got, ref)
		}
	}
	return failed, nil
}

// quality returns the paper's two axes over the first n generated jobs —
// a fixed set per seed, so both values repeat exactly: the geomean of
// DefaultSeconds/BestSeconds and the mean virtual tuning time.
func quality(outs []outcome, n int) (speedup, tuning float64, err error) {
	first := map[int]jobResult{}
	for _, o := range outs {
		if o.index < n && o.err == nil {
			first[o.index] = o.result
		}
	}
	if len(first) != n {
		return 0, 0, fmt.Errorf("only %d of the first %d jobs completed", len(first), n)
	}
	idx := make([]int, 0, n)
	for i := range first {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	var speedups, tunings []float64
	for _, i := range idx {
		r := first[i]
		speedups = append(speedups, r.DefaultSeconds/r.BestSeconds)
		tunings = append(tunings, r.TuningSeconds)
	}
	return geomean(speedups), mean(tunings), nil
}

// latencyMetrics fills the metrics every workload derives the same way from
// its window: throughput and latency percentiles of the completed jobs.
func latencyMetrics(vals map[string]float64, outs []outcome, window float64) int {
	var ms []float64
	for _, o := range outs {
		if o.err == nil {
			ms = append(ms, o.ms)
		}
	}
	vals["jobs_per_s"] = float64(len(ms)) / window
	vals["job_ms_p50"] = quantile(ms, 0.5)
	vals["job_ms_p90"] = quantile(ms, 0.9)
	printClasses(outs)
	return len(ms)
}

// jobClass names the class a job's latency belongs to: its benchmark, and
// on the stream also its tenant class (hot, warm or cold).
func jobClass(s spec) string {
	if s.Tenant == "" {
		return s.Benchmark
	}
	c, _, _ := strings.Cut(s.Tenant, "-")
	return c + "/" + s.Benchmark
}

// printClasses writes the latency quantiles of every job class to standard
// error, and for p50 and p90 the share of the jobs ranked within five points
// of the percentile that belong to its most common class. A share near 1
// means the percentile sits inside one class; a lower one means it sits where
// classes meet, so a shift of the mix would move it by a class gap.
func printClasses(outs []outcome) {
	type job struct {
		ms    float64
		class string
	}
	var jobs []job
	byClass := map[string][]float64{}
	for _, o := range outs {
		if o.err == nil {
			c := jobClass(o.spec)
			jobs = append(jobs, job{o.ms, c})
			byClass[c] = append(byClass[c], o.ms)
		}
	}
	if len(jobs) == 0 {
		return
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].ms < jobs[j].ms })
	classes := make([]string, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return median(byClass[classes[i]]) < median(byClass[classes[j]]) })
	fmt.Fprintf(os.Stderr, "  %-16s %6s %6s %9s %9s %9s\n", "class", "jobs", "share", "p10_ms", "p50_ms", "p90_ms")
	for _, c := range classes {
		xs := byClass[c]
		fmt.Fprintf(os.Stderr, "  %-16s %6d %5.1f%% %9.2f %9.2f %9.2f\n", c, len(xs),
			100*float64(len(xs))/float64(len(jobs)), quantile(xs, 0.1), quantile(xs, 0.5), quantile(xs, 0.9))
	}
	for _, q := range []float64{0.5, 0.9} {
		lo, hi := int((q-0.05)*float64(len(jobs))), int((q+0.05)*float64(len(jobs)))
		count := map[string]int{}
		top := ""
		for _, j := range jobs[lo:hi] {
			count[j.class]++
			if count[j.class] > count[top] {
				top = j.class
			}
		}
		fmt.Fprintf(os.Stderr, "  p%.0f: ranks %.0f-%.0f%% are %.0f%% %s\n", 100*q, 100*q-5, 100*q+5,
			100*ratio(float64(count[top]), float64(hi-lo)), top)
	}
}

// finish adds the quality metrics over the first n jobs and builds the
// end-to-end report. A run with failed jobs still reports, marked incorrect.
func finish(vals map[string]float64, outs []outcome, n, failed int) (*report, error) {
	speedup, tuning, err := quality(outs, n)
	if err != nil && failed == 0 {
		return nil, err
	}
	vals["speedup_geomean"], vals["tuning_virtual_s_mean"] = speedup, tuning
	return newReport(endToEnd, vals, len(outs), failed)
}
