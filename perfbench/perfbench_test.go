package main

import (
	"context"
	"math"
	"testing"
)

var endToEnd = []string{
	"setup_s", "ops_per_s", "lat_p50_ms", "lat_p90_ms", "cpu_ms_per_op",
	"alloc_kb_per_op", "heap_live_mb", "ratio_mean", "ratio_max",
}

// tinyRun runs one workload at the tiny size on a fixed op count.
func tinyRun(t *testing.T, name string, trace bool) *result {
	t.Helper()
	res, _, err := run(context.Background(), config{
		workload: name, seed: 7, seconds: 0.01, trace: trace, tiny: true, maxOps: 48,
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: correct=%v, %d of %d checks failed: %s", name, res.Correct, res.Failed, res.Attempted, res.firstFail)
	}
	return res
}

func checkNames(t *testing.T, name string, res *result, want []string) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, want %d", name, len(res.Metrics), len(want))
	}
	for _, m := range want {
		if v, ok := res.Metrics[m]; !ok || v.Unit == "" {
			t.Errorf("%s: metric %s missing or without a unit", name, m)
		}
	}
}

func TestWorkloadsTiny(t *testing.T) {
	var layers []string
	for name := range layerUnits {
		layers = append(layers, name)
	}
	for _, name := range workloads {
		t.Run(name, func(t *testing.T) {
			a, b := tinyRun(t, name, false), tinyRun(t, name, false)
			checkNames(t, name, a, endToEnd)
			// A fixed op sequence gives the same ratios. Allocation is
			// close but not exact: the service seeds its instance hash
			// per process, so shard routing, and with it map and
			// per-worker scratch growth, differ from run to run.
			for _, m := range []string{"ratio_mean", "ratio_max"} {
				if a.Metrics[m] != b.Metrics[m] {
					t.Errorf("%s: %s differs across same-seed runs: %v vs %v", name, m, a.Metrics[m].Value, b.Metrics[m].Value)
				}
			}
			if x, y := a.Metrics["alloc_kb_per_op"].Value, b.Metrics["alloc_kb_per_op"].Value; math.Abs(x-y) > 0.1*max(x, y) {
				t.Errorf("%s: alloc_kb_per_op differs by more than 10%% across same-seed runs: %v vs %v", name, x, y)
			}
			ta, tb := tinyRun(t, name, true), tinyRun(t, name, true)
			checkNames(t, name, ta, layers)
			if m := "dual.probes_per_op"; ta.Metrics[m] != tb.Metrics[m] {
				t.Errorf("%s: %s differs across same-seed runs: %v vs %v", name, m, ta.Metrics[m].Value, tb.Metrics[m].Value)
			}
		})
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, _, err := run(context.Background(), config{workload: "nope", seconds: 1}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestCheckerCountsFailures(t *testing.T) {
	var c checker
	c.bound(1.5, 1.6, 1.5/1.0)
	c.bound(1.7, 1.6, 1.7/1.0)
	c.fail("schedule: %v", "boom")
	if c.attempted != 3 || c.failed != 2 || len(c.ratios) != 1 {
		t.Fatalf("attempted=%d failed=%d ratios=%d, want 3, 2, 1", c.attempted, c.failed, len(c.ratios))
	}
	if c.firstFail == "" {
		t.Fatal("first failure not recorded")
	}
}
