package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

// TestMetricsMatchBenchmarkJSON keeps the metric names and units the harness
// prints identical, in order, to the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var b struct {
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	conv := func(ds []metricDef) []def {
		out := make([]def, len(ds))
		for i, d := range ds {
			out[i] = def{d.name, d.unit}
		}
		return out
	}
	if got := conv(endToEnd); !reflect.DeepEqual(got, b.EndToEnd) {
		t.Errorf("end-to-end metrics\n got %v\nwant %v", got, b.EndToEnd)
	}
	if got := conv(perLayer); !reflect.DeepEqual(got, b.PerLayer) {
		t.Errorf("per-layer metrics\n got %v\nwant %v", got, b.PerLayer)
	}
}

func TestNewReportRejectsMissingMetric(t *testing.T) {
	if _, err := newReport(endToEnd, map[string]float64{"jobs_per_s": 1}, 1, 0); err == nil {
		t.Fatal("a report with unmeasured metrics was accepted")
	}
}

func TestCoveredMergesOverlaps(t *testing.T) {
	iv := [][2]int64{{10, 20}, {15, 30}, {40, 50}, {0, 5}, {45, 60}}
	if got := covered(iv, 0, 55); got != 5+20+15 {
		t.Fatalf("covered = %d, want 40", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for q, want := range map[float64]float64{0: 1, 0.5: 3, 0.9: 4.6, 1: 5} {
		if got := quantile(xs, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if xs[0] != 4 {
		t.Fatal("quantile sorted its input")
	}
}
