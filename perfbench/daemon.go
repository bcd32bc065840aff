package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lambdatune/internal/obs"
	"lambdatune/internal/service"
)

const (
	// daemonClients closed-loop HTTP clients drive the daemon.
	daemonClients = 2
	// daemonStop bounds a graceful drain before the daemon is killed.
	daemonStop = 20 * time.Second
)

// daemon is one lambdatuned child process.
type daemon struct {
	cmd    *exec.Cmd
	dir    string // data dir
	base   string // API base URL
	pprof  string // pprof base URL
	logged chan struct{}
	exited chan struct{}
}

// startDaemon boots lambdatuned on loopback ports the kernel picks, reads
// both addresses from its JSON log, and waits until /readyz answers 200.
func startDaemon(ctx context.Context, bin, dir string, hc *http.Client) (*daemon, error) {
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-pprof-addr", "127.0.0.1:0",
		"-data-dir", dir, "-workers", "2", "-eval-slots", "2", "-quiet", "-log-format", "json")
	cmd.Stderr = pw
	// The daemon dies with the harness even if the harness is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		pr.Close()
		pw.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	pw.Close()
	d := &daemon{cmd: cmd, dir: dir, logged: make(chan struct{}), exited: make(chan struct{})}
	addrs := make(chan [2]string, 1)
	go d.readLog(pr, addrs)
	go func() {
		_ = cmd.Wait() // the exit status of a daemon we stop ourselves carries nothing
		close(d.exited)
	}()

	select {
	case a := <-addrs:
		d.base, d.pprof = "http://"+a[0], strings.TrimSuffix(a[1], "/debug/pprof/")
	case <-d.exited:
		return nil, fmt.Errorf("lambdatuned exited during boot")
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("lambdatuned did not log its addresses")
	case <-ctx.Done():
		d.stop()
		return nil, ctx.Err()
	}
	for {
		resp, err := hc.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("lambdatuned exited before it was ready")
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// readLog scans the daemon's JSON log for the API and pprof addresses, then
// keeps draining it so the daemon never blocks on a full pipe.
func (d *daemon) readLog(r io.ReadCloser, addrs chan<- [2]string) {
	defer close(d.logged)
	defer r.Close()
	var api, pprof string
	sent := false
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		var line struct{ Msg, Addr, URL string }
		if sent || json.Unmarshal(sc.Bytes(), &line) != nil {
			continue
		}
		switch line.Msg {
		case "listening":
			api = line.Addr
		case "pprof listening":
			pprof = line.URL
		}
		if api != "" && pprof != "" {
			addrs <- [2]string{api, pprof}
			sent = true
		}
	}
}

// stop drains the daemon with SIGTERM, kills it if the drain overruns, and
// returns once the process and its log reader have ended.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.exited:
	case <-time.After(daemonStop):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	<-d.logged
}

// client returns an API client for the daemon over hc.
func (d *daemon) client(hc *http.Client) *service.Client {
	return &service.Client{BaseURL: d.base, HTTP: hc}
}

// totalAlloc reads the daemon's cumulative heap allocation from the MemStats
// block of its pprof heap profile.
func (d *daemon) totalAlloc(hc *http.Client) (uint64, error) {
	resp, err := hc.Get(d.pprof + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# TotalAlloc = "); ok {
			return strconv.ParseUint(v, 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("heap profile has no TotalAlloc")
}

// scrape reads the daemon's /metrics exposition into name → value.
func (d *daemon) scrape(hc *http.Client) (map[string]float64, error) {
	resp, err := hc.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if v, err := strconv.ParseFloat(line[i+1:], 64); i > 0 && err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// dirUsage counts the regular files under dir and their bytes.
func dirUsage(dir string) (files, bytes int64, err error) {
	err = filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || !e.Type().IsRegular() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		files++
		bytes += info.Size()
		return nil
	})
	return files, bytes, err
}

// submit runs one job through the API the way a client does: POST it,
// follow its progress stream to the end, then GET the finished record. It
// returns the client-side timestamps the service timings are measured from.
func submit(ctx context.Context, api *service.Client, s spec) (job *service.Job, posted, replied time.Time, err error) {
	job, err = api.Enqueue(service.JobSpec{Benchmark: s.Benchmark, Seed: s.Seed, Samples: s.Samples,
		Parallelism: s.Parallelism, Tenant: s.Tenant})
	if err != nil {
		return nil, posted, replied, err
	}
	posted = time.Now()
	if err = follow(ctx, api, job.ID); err != nil {
		return nil, posted, replied, err
	}
	if job, err = api.Get(job.ID); err != nil {
		return nil, posted, replied, err
	}
	replied = time.Now()
	switch {
	case job.Status != service.StatusSucceeded:
		err = fmt.Errorf("job %s ended %s: %s", job.ID, job.Status, job.Error)
	case job.Result == nil:
		err = fmt.Errorf("job %s succeeded without a result", job.ID)
	}
	return job, posted, replied, err
}

// follow reads a job's progress stream until the daemon ends it, which it
// does when the job ends.
func follow(ctx context.Context, api *service.Client, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, api.BaseURL+"/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		return err
	}
	resp, err := api.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stream of %s: %s", id, resp.Status)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

func fromJob(r *service.JobResult) jobResult {
	return jobResult{
		BestScript: r.BestScript, BestSeconds: r.BestSeconds, DefaultSeconds: r.DefaultSeconds,
		TuningSeconds: r.TuningSeconds, Candidates: r.Candidates,
	}
}

// clientLoop is one closed-loop client: it draws the next stream job,
// submits it, and waits for its result before drawing again, until the
// window has passed and the leading fixedJobs jobs are all drawn.
type clientLoop struct {
	api   *service.Client
	job   func(i int) spec // the i-th job this loop draws
	next  *atomic.Int64
	until func(i int) bool
	lay   *layers // non-nil in a traced run: every job's trace is read
	mu    sync.Mutex
	outs  []outcome
	// traceErr is the first failed trace fetch; it fails the traced run.
	traceErr error
}

func (c *clientLoop) run(ctx context.Context) {
	for {
		i := int(c.next.Add(1) - 1)
		if !c.until(i) || ctx.Err() != nil {
			return
		}
		s := c.job(i)
		t0 := time.Now()
		job, posted, replied, err := submit(ctx, c.api, s)
		o := outcome{index: i, spec: s, ms: float64(replied.Sub(t0)) / 1e6, err: err}
		var t jobTrace
		var terr error
		if err == nil {
			o.result = fromJob(job.Result)
			if c.lay != nil {
				var recs []obs.SpanRecord
				if recs, terr = c.api.Trace(job.ID); terr == nil {
					t, terr = summarize(recs)
				}
			}
		}
		c.mu.Lock()
		c.outs = append(c.outs, o)
		if terr != nil && c.traceErr == nil {
			c.traceErr = terr
		}
		if err == nil && c.lay != nil && terr == nil {
			c.lay.addServiceJob(t, o.result.Candidates, t0, posted, replied)
		}
		c.mu.Unlock()
	}
}

// addServiceJob records the layer costs of one daemon job: its trace, and
// the client's clock against the trace's root run span.
func (l *layers) addServiceJob(t jobTrace, candidates int, sent, posted, replied time.Time) {
	l.addTrace(t)
	// The daemon's backend is not instrumented; its query spans are the
	// RunQuery calls.
	eval, llm := t.phase(obs.PhaseEval), t.phase(obs.PhaseLLM)
	l.sum["engine.run_query_calls"] += float64(eval.Spans)
	l.sum["engine.run_query_wall_ms"] += eval.WallSeconds * 1e3
	l.sum["llm.calls"] += float64(llm.Spans)
	l.sum["llm.wall_ms"] += llm.WallSeconds * 1e3
	l.ratio("llm.usable_ratio", float64(candidates), float64(llm.Spans))
	l.sample("service.enqueue_ms_p50", float64(posted.Sub(sent))/1e6)
	l.sample("service.admit_to_run_ms_p50", float64(t.runStart-posted.UnixNano())/1e6)
	l.sample("service.run_to_reply_ms_p50", float64(replied.UnixNano()-t.runEnd)/1e6)
}

// drive runs the loop's jobs with daemonClients clients until until(i)
// turns false, and returns the outcomes.
func (c *clientLoop) drive(ctx context.Context) ([]outcome, error) {
	var wg sync.WaitGroup
	for k := 0; k < daemonClients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(ctx)
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return c.outs, c.traceErr
}

// runDaemon runs daemon-stream: the lambdatuned binary as a child process
// with its data dir in a fresh directory, driven over /v1 by closed-loop
// clients.
func runDaemon(ctx context.Context, cfg config) (*report, error) {
	if cfg.daemon == "" || cfg.work == "" {
		return nil, errors.New("daemon-stream needs -daemon and -work")
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.work, "daemon-stream-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4 * daemonClients}, Timeout: runDeadline}
	defer hc.CloseIdleConnections()
	gen := stream{cfg.seed}

	// Set-up, setupReps times: boot a fresh daemon until /readyz answers,
	// then run the untimed warm-up round through the clients. The last daemon
	// stays up for the timed window.
	warmup := stream{warmupSeed}.round(-1)
	var setups []float64
	var d *daemon
	for i := 0; i < setupReps; i++ {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		d, err = startDaemon(ctx, cfg.daemon, filepath.Join(work, fmt.Sprintf("boot-%d", i)), hc)
		if err != nil {
			return nil, err
		}
		defer d.stop()
		warm := &clientLoop{api: d.client(hc), job: func(i int) spec { return warmup[i] }, next: new(atomic.Int64),
			until: func(i int) bool { return i < len(warmup) }}
		outs, err := warm.drive(ctx)
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		for _, o := range outs {
			if o.err != nil {
				return nil, fmt.Errorf("warm-up: %w", o.err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	pid := d.cmd.Process.Pid
	var m0 map[string]float64
	if cfg.trace {
		if m0, err = d.scrape(hc); err != nil {
			return nil, err
		}
	}
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	alloc0, err := d.totalAlloc(hc)
	if err != nil {
		return nil, err
	}
	window := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	loop := &clientLoop{api: d.client(hc), job: gen.at, next: new(atomic.Int64),
		until: func(i int) bool { return i < fixedJobs || time.Since(start) < window }}
	if cfg.trace {
		loop.lay = newLayers()
	}
	outs, err := loop.drive(ctx)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start).Seconds()
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	alloc1, err := d.totalAlloc(hc)
	if err != nil {
		return nil, err
	}
	rss, err := procMaxRSS(pid)
	if err != nil {
		return nil, err
	}
	var m1 map[string]float64
	if cfg.trace {
		if m1, err = d.scrape(hc); err != nil {
			return nil, err
		}
	}
	d.stop()
	files, bytes, err := dirUsage(d.dir)
	if err != nil {
		return nil, err
	}

	failed, err := checkReferences(ctx, outs)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		lay := loop.lay
		delta := func(prefix string) float64 { return sumPrefix(m1, prefix) - sumPrefix(m0, prefix) }
		jobs := float64(len(outs))
		hits, misses := delta("runtime_memo_hits_total_"), delta("runtime_memo_misses_total_")
		lay.values["runtime.memo_hit_rate"] = ratio(hits, hits+misses)
		lay.values["runtime.memo_cross_job_hit_rate"] = ratio(delta("runtime_memo_cross_job_hits_total_"), hits+misses)
		lay.values["runtime.memo_evictions"] = ratio(m1["runtime_memo_evictions_total"]-m0["runtime_memo_evictions_total"], jobs)
		lay.values["runtime.slot_wait_ms_mean"] = ratio(delta("runtime_pool_lease_wait_seconds_sum")*1e3, delta("runtime_pool_lease_wait_seconds_count"))
		lay.values["llm.gateway_calls"] = ratio(delta("tenant_gateway_calls_total_"), jobs)
		// The data dir holds the warm-up round's jobs as well as the window's.
		lay.values["runstate.bytes"] = ratio(float64(bytes), jobs+streamRound)
		lay.values["runstate.files"] = ratio(float64(files), jobs+streamRound)
		lay.absent(absentDaemon...)
		return newReport(perLayer, lay.result(), len(outs), failed)
	}
	vals := map[string]float64{}
	n := float64(latencyMetrics(vals, outs, elapsed))
	vals["cpu_ms_per_job"] = ratio(float64(cpu1-cpu0)/1e6, n)
	vals["alloc_mb_per_job"] = ratio(float64(alloc1-alloc0)/(1<<20), n)
	vals["max_rss_mb"] = float64(rss) / (1 << 20)
	vals["setup_s"] = median(setups)
	return finish(vals, outs, fixedJobs, failed)
}

// absentDaemon are the layers the daemon does not expose over its API: it
// builds each job's database from a warm template inside the job, and its
// backend is not instrumented, so Explain calls and plan-cache probes are
// invisible from outside. It also traces every job and has no untraced mode,
// so there is no untraced throughput to compare the traced one with.
var absentDaemon = []string{
	"workload.build_ms", "engine.explain_calls", "engine.plan_calls", "engine.plan_cache_hit_rate",
	"trace.untraced_jobs_per_s", "trace.traced_jobs_per_s", "trace.overhead_ratio",
}
