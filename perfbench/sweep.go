package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"lambdatune"
)

const (
	// fixedJobs leading jobs complete in every window, however short: the
	// quality metrics cover exactly these, and p90 has well over ten
	// samples beyond it. tune-sweep's jobs are cheap but their tuning times
	// heavy-tailed, so it covers more of them.
	fixedJobs     = 200
	tuneFixedJobs = 500
	// sweepWarmup is the untimed warm-up pass of each set-up.
	sweepWarmup = 20
	// setupReps is how often a run sets up; setup_s is the median.
	setupReps = 5
)

// runSweep runs tune-sweep (full evaluation, k=5) or race-sweep (racing,
// k=20): one closed-loop client calling Benchmark + TuneContext per job,
// inside this process, each job with its own generated seed.
func runSweep(ctx context.Context, cfg config, racing bool) (*report, error) {
	// One client at P1 needs one core. Keeping the Go runtime, GC included,
	// on that core roughly halved the run-to-run spread of the wall-clock
	// metrics in interleaved runs on a two-vCPU host.
	runtime.GOMAXPROCS(1)
	gen, warm := sweep{cfg.seed, racing}, sweep{warmupSeed, racing}
	fixed := tuneFixedJobs
	if racing {
		fixed = fixedJobs
	}

	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		for _, b := range gen.benchmarks() {
			if _, _, err := lambdatune.Benchmark(b, lambdatune.Postgres); err != nil {
				return nil, err
			}
		}
		for j := 0; j < sweepWarmup; j++ {
			if _, err := runStandalone(ctx, warm.at(j)); err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", warm.at(j).refKey(), err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	runtime.GC() // start the window without the set-up's garbage
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, _, err := selfUsage()
	if err != nil {
		return nil, err
	}
	window := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	modes := &modeClock{start: start}
	lay := newLayers()
	var outs []outcome
	for i := 0; i < fixed || time.Since(start) < window; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s := gen.at(i)
		t0 := time.Now()
		o := outcome{index: i, spec: s}
		traced := cfg.trace && modes.traced(t0)
		d := time.Duration(0)
		if traced {
			o.result, d, o.err = tracedJob(ctx, s, lay)
		} else {
			o.result, o.err = runStandalone(ctx, s)
			d = time.Since(t0)
		}
		o.ms = float64(d) / 1e6
		if cfg.trace {
			modes.done(traced, d)
		}
		outs = append(outs, o)
	}
	elapsed := time.Since(start).Seconds()
	cpu1, rss, err := selfUsage()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)

	failed, err := checkReferences(ctx, outs)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		lay.overhead(modes)
		lay.absent(absentInProcess...)
		return newReport(perLayer, lay.result(), len(outs), failed)
	}
	vals := map[string]float64{}
	n := float64(latencyMetrics(vals, outs, elapsed))
	vals["cpu_ms_per_job"] = ratio(float64(cpu1-cpu0)/1e6, n)
	vals["alloc_mb_per_job"] = ratio(float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20), n)
	vals["max_rss_mb"] = float64(rss) / (1 << 20)
	vals["setup_s"] = median(setups)
	return finish(vals, outs, fixed, failed)
}

// absentInProcess are the layers a CLI-style job never reaches: it runs no
// service and writes no run state.
var absentInProcess = []string{
	"service.enqueue_ms_p50", "service.admit_to_run_ms_p50", "service.run_to_reply_ms_p50",
	"runstate.bytes", "runstate.files",
}

// tracedJob runs one job with every layer observed from outside: the
// Benchmark call timed, the database instrumented, the LLM client timed, and
// a trace and metrics registry attached. Database.TuneContext is a one-shot
// Runtime (see its doc); the traced job builds that runtime itself so its
// memo and gateway counters are visible, and tunes through the same path.
func tracedJob(ctx context.Context, s spec, l *layers) (jobResult, time.Duration, error) {
	t0 := time.Now()
	db, w, err := lambdatune.Benchmark(s.Benchmark, lambdatune.Postgres)
	if err != nil {
		return jobResult{}, 0, err
	}
	build := time.Since(t0)
	db.Instrument()
	client, err := newTimedClient(s.Seed)
	if err != nil {
		return jobResult{}, 0, err
	}
	m, tr := lambdatune.NewMetrics(), lambdatune.NewTrace()
	opts := s.options()
	opts.Observability.Metrics, opts.Observability.Trace = m, tr
	rt := lambdatune.NewRuntime(lambdatune.RuntimeOptions{Metrics: m})
	res, err := rt.TuneContext(ctx, db, w, client, opts)
	_ = rt.Close() // Close only refuses new jobs; it cannot fail
	// The job ends here. Reading its trace below is the harness's work, kept
	// out of the job's time so the overhead ratio shows the program's own.
	wall := time.Since(t0)
	if err != nil {
		return jobResult{}, wall, err
	}

	t, err := summarize(tr.Tracer().Records())
	if err != nil {
		return jobResult{}, wall, err
	}
	l.addTrace(t)
	snap := m.Snapshot()
	plan := db.PlanCacheStats()
	st := rt.Stats()
	l.sum["workload.build_ms"] += float64(build) / 1e6
	l.sum["engine.run_query_calls"] += snap["backend_run_query_calls_total"]
	l.sum["engine.explain_calls"] += snap["backend_explain_calls_total"]
	l.sum["engine.plan_calls"] += float64(plan.Lookups())
	l.sum["engine.run_query_wall_ms"] += snap["backend_run_query_wall_seconds_total"] * 1e3
	l.ratio("engine.plan_cache_hit_rate", float64(plan.Hits), float64(plan.Lookups()))
	l.sum["llm.calls"] += float64(client.calls)
	l.sum["llm.wall_ms"] += float64(client.wall) / 1e6
	l.ratio("llm.usable_ratio", float64(res.Candidates), float64(client.calls))
	l.ratio("runtime.memo_hit_rate", float64(st.MemoHits), float64(st.MemoLookups))
	l.ratio("runtime.memo_cross_job_hit_rate", float64(st.MemoCrossJobHits), float64(st.MemoLookups))
	l.sum["runtime.memo_evictions"] += float64(st.MemoEvictions)
	l.ratio("runtime.slot_wait_ms_mean", snap["runtime_pool_lease_wait_seconds_sum"]*1e3, snap["runtime_pool_lease_wait_seconds_count"])
	l.sum["llm.gateway_calls"] += sumPrefix(snap, "tenant_gateway_calls_total_")
	return fromResult(res), wall, nil
}

// sumPrefix adds up the per-tenant series of one metric family.
func sumPrefix(snap map[string]float64, prefix string) float64 {
	var total float64
	for k, v := range snap {
		if strings.HasPrefix(k, prefix) {
			total += v
		}
	}
	return total
}
