package main

import (
	"context"
	"math"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestIdentityCheck runs a round of each sweep plain and traced: tracing
// must not change a result, and a result off by one ulp must be caught.
func TestIdentityCheck(t *testing.T) {
	ctx := context.Background()
	specs := append(sweep{1, false}.round(0), sweep{1, true}.round(0)...)
	lay := newLayers()
	var outs []outcome
	for i, s := range specs {
		r, err := runStandalone(ctx, s)
		outs = append(outs, outcome{index: i, spec: s, result: r, err: err})
		r, _, err = tracedJob(ctx, s, lay)
		outs = append(outs, outcome{index: i, spec: s, result: r, err: err})
	}
	if failed, err := checkReferences(ctx, outs); err != nil || failed != 0 {
		t.Fatalf("identity check: %d failed, err %v", failed, err)
	}
	if lay.jobs != len(specs) {
		t.Fatalf("traced %d jobs, want %d", lay.jobs, len(specs))
	}

	outs[3].result.TuningSeconds = math.Nextafter(outs[3].result.TuningSeconds, math.Inf(1))
	if failed, err := checkReferences(ctx, outs); err != nil || failed != 1 {
		t.Fatalf("tampered result: %d failed, err %v; want 1", failed, err)
	}
}

// TestSmokeRuns runs the whole harness at a zero-second window (the minimum
// job count still applies) on tune-sweep twice and on daemon-stream plain
// and traced: every run passes the identity check, and the quality metrics
// repeat exactly for a seed.
func TestSmokeRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a few hundred tuning jobs")
	}
	ctx := context.Background()
	dir := t.TempDir()
	bin := filepath.Join(dir, "lambdatuned")
	if out, err := exec.Command("go", "build", "-o", bin, "lambdatune/cmd/lambdatuned").CombinedOutput(); err != nil {
		t.Fatalf("build lambdatuned: %v\n%s", err, out)
	}
	runOK := func(cfg config) *report {
		t.Helper()
		rep, err := run(ctx, cfg)
		if err != nil {
			t.Fatalf("%s trace=%v: %v", cfg.workload, cfg.trace, err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < fixedJobs {
			t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d", cfg.workload, cfg.trace, rep.Correct, rep.Failed, rep.Attempted)
		}
		return rep
	}
	base := config{seed: 4242, daemon: bin, work: filepath.Join(dir, "work")}

	tune := base
	tune.workload = "tune-sweep"
	a, b := runOK(tune), runOK(tune)
	for _, m := range []string{"speedup_geomean", "tuning_virtual_s_mean"} {
		if a.Metrics[m] != b.Metrics[m] {
			t.Errorf("%s differs between runs of one seed: %v vs %v", m, a.Metrics[m], b.Metrics[m])
		}
	}

	d := base
	d.workload = "daemon-stream"
	if rep := runOK(d); rep.Metrics["speedup_geomean"].Value <= 1 {
		t.Errorf("daemon-stream speedup_geomean = %v, want > 1", rep.Metrics["speedup_geomean"].Value)
	}
	d.trace = true
	if rep := runOK(d); rep.Metrics["service.enqueue_ms_p50"].Value <= 0 || rep.Metrics["obs.spans"].Value <= 0 {
		t.Errorf("traced daemon-stream did not observe the service: %+v", rep.Metrics)
	}
}
