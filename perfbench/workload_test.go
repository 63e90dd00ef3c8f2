package main

import (
	"bytes"
	"context"
	"io"
	"math"
	"reflect"
	"testing"
	"time"

	"safespec/internal/figures"
)

func TestDefineWorkloadIsSeeded(t *testing.T) {
	for _, name := range workloadNames {
		a, err := defineWorkload(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := defineWorkload(name, 7)
		c, _ := defineWorkload(name, 8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if reflect.DeepEqual(a.spec.Seeds, c.spec.Seeds) {
			t.Errorf("%s: seeds 7 and 8 gave the same generator seeds", name)
		}
	}
	if _, err := defineWorkload("nope", 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestCachePrefillIsHalfOfEveryFan(t *testing.T) {
	w, err := defineWorkload("cache-mixed", 3)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := w.spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(w.prefilled) != len(jobs)/2 {
		t.Fatalf("%d of %d cells prefilled, want half", len(w.prefilled), len(jobs))
	}
	perPair := map[string]int{}
	seen := map[int]bool{}
	for _, i := range w.prefilled {
		if seen[i] {
			t.Fatalf("cell %d prefilled twice", i)
		}
		seen[i] = true
		perPair[jobs[i].Bench+"/"+jobs[i].Mode]++
	}
	for pair, n := range perPair {
		if n != len(w.spec.Seeds)/2 {
			t.Errorf("%s: %d of %d seeds prefilled", pair, n, len(w.spec.Seeds))
		}
	}
}

// runTiny sets up a test-size workload and runs its timed phase: one pass
// untraced, three (untraced, traced, untraced) traced.
func runTiny(t *testing.T, name string, traced bool) *outcome {
	t.Helper()
	w, err := defineWorkload(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	b, err := setUp(ctx, w.tiny(), 2, t.TempDir(), tr)
	if err != nil {
		t.Fatal(err)
	}
	o := &outcome{b: b}
	o.passes, err = b.timedPhase(ctx, time.Nanosecond, nil)
	if err == nil {
		o.ref, o.refRows, err = b.reference(ctx)
	}
	b.close()
	if err != nil {
		t.Fatal(err)
	}
	if tr != nil {
		o.spans = tr.snapshot()
	}
	return o
}

// TestTinyWorkloadsMatchTheirReference runs every workload at test size
// and checks the output check both ways: every row matches the
// reference, and one deliberately changed reference row is counted as a
// failed cell in every pass.
func TestTinyWorkloadsMatchTheirReference(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			o := runTiny(t, name, false)
			if len(o.passes) != 1 {
				t.Fatalf("%d passes, want 1", len(o.passes))
			}
			p := o.passes[0]
			if len(p.cells) == 0 || len(p.cells) != len(o.ref) {
				t.Fatalf("pass has %d cells, reference %d", len(p.cells), len(o.ref))
			}
			if n := countFailed(p, o.refRows); n != 0 {
				t.Fatalf("%d cells differ from the reference", n)
			}
			rows := splitRows(o.refRows)
			rows[1] = bytes.Replace(rows[1], []byte(`"cycles":`), []byte(`"cycles":1`), 1)
			tampered := append(bytes.Join(rows, []byte("\n")), '\n')
			if n := countFailed(p, tampered); n != 1 {
				t.Errorf("one mismatched row counted as %d failed cells, want 1", n)
			}
			if got, want := normIPC(o.ref, "wfc"), wfcHeadline(t, o); math.Abs(got-want) > 1e-12 {
				t.Errorf("wfc norm IPC %v, figures says %v", got, want)
			}
		})
	}
}

// wfcHeadline is the Figure 11 number as internal/figures computes it.
func wfcHeadline(t *testing.T, o *outcome) float64 {
	t.Helper()
	groups, err := figures.Group(o.ref)
	if err != nil {
		t.Fatal(err)
	}
	return figures.GeoMeanNormIPC(figures.Performance(groups))
}

// TestTinyTracedRunsStressTheirLayer checks that a traced run attributes
// time to the layers each workload claims to stress.
func TestTinyTracedRunsStressTheirLayer(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			o := runTiny(t, name, true)
			if len(o.passes) != 3 || !o.passes[1].traced || o.passes[0].traced || o.passes[2].traced {
				t.Fatalf("traced run passes: want untraced, traced, untraced")
			}
			for _, p := range o.passes {
				if n := countFailed(p, o.refRows); n != 0 {
					t.Fatalf("pass %d: %d cells differ from the reference", p.n, n)
				}
			}
			m := o.perLayerMetrics(io.Discard)
			positive := []string{"workloads.build_ms", "core.run_ms", "core.sim_cycles", "core.ns_per_sim_cycle", "sweep.busy_frac"}
			switch o.b.w.path {
			case pathCache:
				positive = append(positive, "resultcache.hit_ms_p50", "resultcache.miss_store_ms_p50", "resultcache.self_ms")
				if r := m["resultcache.hit_ratio"]; r != 0.5 {
					t.Errorf("hit ratio %v, want the prefilled half", r)
				}
			case pathGrid:
				positive = append(positive, "grid.worker_busy_frac", "grid.http_requests_per_cell",
					"grid.http_bytes_per_cell", "grid.leases_per_cell", "grid.self_ms")
				if b := m["grid.worker_busy_frac"]; b >= 1 {
					t.Errorf("grid workers busy %v of the time, want below 1", b)
				}
			}
			for _, name := range positive {
				if m[name] <= 0 {
					t.Errorf("%s = %v, want > 0", name, m[name])
				}
			}
			if m["bench.traced_cells"] != float64(len(o.passes[1].cells)) {
				t.Errorf("traced cells %v, want %d", m["bench.traced_cells"], len(o.passes[1].cells))
			}
		})
	}
}

// TestRunPrintsEveryMetric drives the whole run, untraced and traced, and
// checks the result line carries exactly the declared metrics.
func TestRunPrintsEveryMetric(t *testing.T) {
	for _, trace := range []bool{false, true} {
		cfg := config{workload: "cache-mixed", seed: 2, seconds: time.Nanosecond, trace: trace,
			workdir: t.TempDir(), maxSetups: 1, tiny: true}
		line, err := run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defs := endToEnd
		if trace {
			defs = perLayer
		}
		if !line.Correct || line.Failed != 0 || line.Attempted == 0 {
			t.Errorf("trace=%v: correct=%v attempted=%d failed=%d", trace, line.Correct, line.Attempted, line.Failed)
		}
		if len(line.Metrics) != len(defs) {
			t.Errorf("trace=%v: %d metrics, want %d", trace, len(line.Metrics), len(defs))
		}
		for _, d := range defs {
			if v, ok := line.Metrics[d.name]; !ok || v.Unit != d.unit {
				t.Errorf("trace=%v: metric %s = %+v, want unit %s", trace, d.name, v, d.unit)
			}
		}
		if !trace && line.Metrics["cells_ok_frac"].Value != 1 {
			t.Errorf("cells_ok_frac = %v, want 1", line.Metrics["cells_ok_frac"].Value)
		}
	}
}
