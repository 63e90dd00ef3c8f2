package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"safespec/internal/core"
	"safespec/internal/pipeline"
	"safespec/internal/sweep"
)

func TestQuantileNearestRankAndTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	if v, ok := quantile(xs, 0.5); v != 50 || !ok {
		t.Errorf("p50 of 1..100 = %v, %v; want 50, true", v, ok)
	}
	// Rank 90 of 100 leaves exactly minTail samples above it.
	if v, ok := quantile(xs, 0.9); v != 90 || !ok {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	// Rank ceil(0.9*99) = 90 of 99 leaves 9 above: unsupported.
	if v, ok := quantile(xs[:99], 0.9); v != 91 || ok {
		t.Errorf("p90 of 2..100 = %v, %v; want 91, false", v, ok)
	}
	if v, ok := quantile(nil, 0.5); v != 0 || ok {
		t.Errorf("p50 of nothing = %v, %v; want 0, false", v, ok)
	}
	if xs[0] != 100 {
		t.Error("quantile sorted its input in place")
	}
}

func result(bench, mode string, seed int64, committed, cycles uint64) sweep.Result {
	return sweep.Result{
		Job: sweep.Job{Bench: bench, Mode: mode, Seed: seed},
		Res: &core.Results{Stats: &pipeline.Stats{Committed: committed, Cycles: cycles}},
	}
}

func TestNormIPCPairsSeedsThenGeomeans(t *testing.T) {
	results := []sweep.Result{
		// a: wfc ratios 0.5 (seed 1) and 1.0 (seed 2), mean 0.75.
		result("a", "baseline", 1, 100, 100),
		result("a", "wfc", 1, 100, 200),
		result("a", "wfb", 1, 100, 100),
		result("a", "baseline", 2, 100, 50),
		result("a", "wfc", 2, 100, 50),
		result("a", "wfb", 2, 100, 100),
		// b: wfc ratio 0.75 for its only seed.
		result("b", "baseline", 1, 400, 100),
		result("b", "wfc", 1, 300, 100),
		result("b", "wfb", 1, 400, 100),
		{Job: sweep.Job{Bench: "b", Mode: "wfc", Seed: 9}, Err: os.ErrInvalid},
	}
	if got, want := normIPC(results, "wfc"), 0.75; math.Abs(got-want) > 1e-12 {
		t.Errorf("wfc norm IPC = %v, want %v", got, want)
	}
	// wfb: a has 1.0 and 0.5 (mean 0.75), b has 1.0; geomean sqrt(0.75).
	if got, want := normIPC(results, "wfb"), math.Sqrt(0.75); math.Abs(got-want) > 1e-12 {
		t.Errorf("wfb norm IPC = %v, want %v", got, want)
	}
}

func TestSelfTimeSubtractsCoveredChildIntervals(t *testing.T) {
	spans := []span{
		{Name: "resultcache.exec", Parent: -1, Start: 0, End: 100},
		{Name: "core.exec", Parent: 0, Start: 10, End: 60},
		{Name: "core.run", Parent: 1, Start: 20, End: 50},
		// Overlaps the first child and runs past the parent's end: only
		// the uncovered part inside the parent counts.
		{Name: "core.exec", Parent: 0, Start: 50, End: 120},
	}
	got := selfNS(spans)
	want := []int64{10, 20, 30, 70}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%d] (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	if c := covered(0, 10, [][2]int64{{-5, 2}, {1, 3}, {8, 20}}); c != 5 {
		t.Errorf("covered = %d, want 5", c)
	}
}

func TestLinkRemoteAdoptsWorkerRoots(t *testing.T) {
	spans := []span{
		{Cell: 7, Name: "grid.remote", Parent: -1},
		{Cell: 7, Name: "core.exec", Parent: -1},
		{Cell: 7, Name: "core.run", Parent: 1},
		{Cell: 8, Name: "core.exec", Parent: -1},
	}
	linkRemote(spans)
	if spans[0].Parent != -1 || spans[1].Parent != 0 || spans[2].Parent != 1 || spans[3].Parent != -1 {
		t.Errorf("parents after linking = %d %d %d %d; want -1 0 1 -1",
			spans[0].Parent, spans[1].Parent, spans[2].Parent, spans[3].Parent)
	}
}

func TestBusyFrac(t *testing.T) {
	if got := busyFrac(3*time.Second, 2, 2*time.Second); got != 0.75 {
		t.Errorf("busyFrac = %v, want 0.75", got)
	}
	if got := busyFrac(time.Second, 0, time.Second); got != 0 {
		t.Errorf("busyFrac with no slots = %v, want 0", got)
	}
	if got := busyFrac(time.Second, 2, 0); got != 0 {
		t.Errorf("busyFrac with no wall time = %v, want 0", got)
	}
}

func TestRateIsMedianOfPasses(t *testing.T) {
	passes := []pass{
		{wall: time.Second, cells: make([]cellStat, 10)},
		{wall: time.Second, cells: make([]cellStat, 30)},
		{wall: 2 * time.Second, cells: make([]cellStat, 40)},
	}
	if got := rate(passes); got != 20 {
		t.Errorf("rate = %v, want the median pass rate 20", got)
	}
}

// TestBenchmarkJSONMatchesDefinitions pins BENCHMARK.json's workloads and
// metrics to the ones this program runs and reports.
func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloadNames[i])
		}
	}
	check := func(kind string, got []metric, defs []metricDef) {
		if len(got) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(defs))
		}
		for i, m := range got {
			d := defs[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %s %s %s", kind, i, m, d.name, d.unit, d.better)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
