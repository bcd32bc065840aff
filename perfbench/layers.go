package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"lambdatune"
	"lambdatune/internal/obs"
)

// jobTrace condenses one job's span records: the program's own per-phase
// summary, plus what the harness derives from the raw spans.
type jobTrace struct {
	obs.Summary
	promptTokens float64
	// runStart/runEnd bound the root run span on the host clock (UnixNano).
	runStart, runEnd int64
	// selfMs is the run span's wall time not covered by any leaf span (one
	// without children; each leaf is one phase's work): the tuner's own work
	// (admission, pool handling, selection logic).
	selfMs float64
}

func summarize(recs []obs.SpanRecord) (jobTrace, error) {
	t := jobTrace{Summary: obs.Summarize(recs)}
	parents := map[int]bool{}
	for _, r := range recs {
		parents[r.Parent] = true
	}
	var leaves [][2]int64
	for _, r := range recs {
		switch {
		case r.Name == "run" && r.Parent == 0:
			t.runStart, t.runEnd = r.WallStartNS, r.WallEndNS
		case r.Name == "prompt":
			t.promptTokens += number(r.Attrs["tokens"])
		}
		if !parents[r.ID] {
			leaves = append(leaves, [2]int64{r.WallStartNS, r.WallEndNS})
		}
	}
	if t.runEnd <= t.runStart {
		return t, fmt.Errorf("trace has no timed root run span")
	}
	t.selfMs = float64(t.runEnd-t.runStart-covered(leaves, t.runStart, t.runEnd)) / 1e6
	return t, nil
}

// phase returns the job's cost in one obs phase (zero if it has none).
func (t jobTrace) phase(name string) obs.PhaseCost {
	for _, p := range t.Phases {
		if p.Phase == name {
			return p
		}
	}
	return obs.PhaseCost{}
}

// number reads a numeric span attribute: an int in process, a float64 once
// the span has been through JSON.
func number(v any) float64 {
	switch x := v.(type) {
	case int:
		return float64(x)
	case float64:
		return x
	}
	return 0
}

// covered returns how much of [lo, hi] the union of the intervals covers.
// Parallel evaluation workers overlap, so a plain sum would overcount.
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		s, e := max(x[0], cur), min(x[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// layers accumulates the per-layer metrics of a traced run. Sums become
// per-job means, ratio metrics are pooled over all jobs, and samples give
// medians.
type layers struct {
	jobs     int
	sum      map[string]float64
	num, den map[string]float64
	samples  map[string][]float64
	values   map[string]float64 // reported as is
}

func newLayers() *layers {
	return &layers{
		sum: map[string]float64{}, num: map[string]float64{}, den: map[string]float64{},
		samples: map[string][]float64{}, values: map[string]float64{},
	}
}

// addTrace records the layer costs one job's trace shows.
func (l *layers) addTrace(t jobTrace) {
	l.jobs++
	sched, eval, index := t.phase(obs.PhaseSchedule), t.phase(obs.PhaseEval), t.phase(obs.PhaseIndex)
	l.sum["schedule.wall_ms"] += sched.WallSeconds * 1e3
	l.sum["schedule.calls"] += float64(sched.Spans)
	l.sum["prompt.wall_ms"] += t.phase(obs.PhasePrompt).WallSeconds * 1e3
	l.sum["prompt.tokens"] += t.promptTokens
	l.sum["evaluator.query_wall_ms"] += eval.WallSeconds * 1e3
	l.sum["evaluator.query_virtual_s"] += eval.VirtSeconds
	l.sum["evaluator.index_builds"] += float64(index.Spans)
	l.sum["evaluator.index_build_wall_ms"] += index.WallSeconds * 1e3
	l.sum["obs.spans"] += float64(t.Spans)
	l.sum["tuner.self_ms"] += t.selfMs
}

// ratio pools num/den for a ratio metric.
func (l *layers) ratio(name string, num, den float64) {
	l.num[name] += num
	l.den[name] += den
}

// sample adds one observation to a median metric.
func (l *layers) sample(name string, v float64) { l.samples[name] = append(l.samples[name], v) }

// absent reports layers the workload bypasses or the program does not
// expose on its path; they read 0 (README.md lists them per workload).
func (l *layers) absent(names ...string) {
	for _, n := range names {
		l.values[n] = 0
	}
}

// overhead records traced versus untraced throughput from the alternating
// slices of a traced run.
func (l *layers) overhead(m *modeClock) {
	u, t := m.rate(false), m.rate(true)
	l.values["trace.untraced_jobs_per_s"] = u
	l.values["trace.traced_jobs_per_s"] = t
	l.values["trace.overhead_ratio"] = ratio(u, t)
}

func (l *layers) result() map[string]float64 {
	out := map[string]float64{}
	for k, v := range l.sum {
		out[k] = ratio(v, float64(l.jobs))
	}
	for k, v := range l.num {
		out[k] = ratio(v, l.den[k])
	}
	for k, xs := range l.samples {
		out[k] = median(xs)
	}
	for k, v := range l.values {
		out[k] = v
	}
	return out
}

// modeSlice is how long a traced run stays in one mode before switching.
const modeSlice = time.Second

// modeClock alternates a traced sweep between untraced and traced slices of
// modeSlice, so both modes see the same machine state, and accounts each
// job to the mode it started in.
type modeClock struct {
	start time.Time
	jobs  [2]int
	busy  [2]time.Duration
}

// traced reports the mode of a job starting at t.
func (m *modeClock) traced(t time.Time) bool { return int(t.Sub(m.start)/modeSlice)%2 == 1 }

// done accounts one job's wall time to its mode.
func (m *modeClock) done(traced bool, d time.Duration) {
	m.jobs[mode(traced)]++
	m.busy[mode(traced)] += d
}

// rate is the mode's throughput: the one client completes a job per mean
// job time.
func (m *modeClock) rate(traced bool) float64 {
	return ratio(float64(m.jobs[mode(traced)]), m.busy[mode(traced)].Seconds())
}

// mode indexes modeClock's per-mode counters: 0 untraced, 1 traced.
func mode(traced bool) int {
	if traced {
		return 1
	}
	return 0
}

// timedClient wraps the simulated LLM to count and time its calls from
// outside. It forwards the sampling temperature, so results are unchanged.
type timedClient struct {
	inner lambdatune.TemperatureClient
	mu    sync.Mutex
	calls int
	wall  time.Duration
}

func newTimedClient(seed int64) (*timedClient, error) {
	tc, ok := lambdatune.NewSimulatedLLM(seed).(lambdatune.TemperatureClient)
	if !ok {
		return nil, fmt.Errorf("simulated LLM does not take a temperature")
	}
	return &timedClient{inner: tc}, nil
}

func (c *timedClient) Name() string { return c.inner.Name() }

func (c *timedClient) Complete(ctx context.Context, prompt string) (string, error) {
	t0 := time.Now()
	out, err := c.inner.Complete(ctx, prompt)
	c.record(time.Since(t0))
	return out, err
}

func (c *timedClient) CompleteT(ctx context.Context, prompt string, temperature float64) (string, error) {
	t0 := time.Now()
	out, err := c.inner.CompleteT(ctx, prompt, temperature)
	c.record(time.Since(t0))
	return out, err
}

func (c *timedClient) record(d time.Duration) {
	c.mu.Lock()
	c.calls++
	c.wall += d
	c.mu.Unlock()
}
