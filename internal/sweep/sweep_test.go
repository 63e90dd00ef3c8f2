package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"safespec/internal/core"
	"safespec/internal/shadow"
)

// smallMatrix returns a fast 3-bench x 3-mode matrix.
func smallMatrix(t testing.TB) []Job {
	t.Helper()
	spec := Quick()
	spec.Benchmarks = []string{"exchange2", "perlbench", "mcf"}
	spec.Instructions = 3_000
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

func TestMatrixExpansion(t *testing.T) {
	jobs := smallMatrix(t)
	if len(jobs) != 9 {
		t.Fatalf("want 9 jobs, got %d", len(jobs))
	}
	// Benchmark-major with all modes adjacent, baseline first.
	if jobs[0].String() != "exchange2/baseline" || jobs[1].String() != "exchange2/wfc" ||
		jobs[2].String() != "exchange2/wfb" || jobs[3].String() != "perlbench/baseline" {
		t.Errorf("unexpected job order: %v %v %v %v", jobs[0], jobs[1], jobs[2], jobs[3])
	}

	spec := MatrixSpec{Benchmarks: []string{"gcc"}, Seeds: []int64{1, 2, 3}, Instructions: 100}
	seeded, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(seeded) != 9 { // 1 bench x 3 modes x 3 seeds
		t.Errorf("want 9 seeded jobs, got %d", len(seeded))
	}
	if seeded[0].Seed != 1 || seeded[1].Seed != 2 {
		t.Errorf("seeds not expanded per mode: %v %v", seeded[0], seeded[1])
	}
}

func TestMatrixUnknownBenchmark(t *testing.T) {
	spec := MatrixSpec{Benchmarks: []string{"not-a-benchmark"}}
	if _, err := spec.Jobs(); err == nil {
		t.Error("unknown benchmark must error at matrix build time")
	}
}

// TestParallelSerialEquivalence is the core determinism property: the same
// matrix run serially and on a saturated pool yields identical result rows
// and byte-identical sink output.
func TestParallelSerialEquivalence(t *testing.T) {
	jobs := smallMatrix(t)
	runWith := func(workers int) ([]Result, string) {
		var buf bytes.Buffer
		results, err := Run(context.Background(), jobs,
			Options{Workers: workers, Sinks: []Sink{NewJSONL(&buf)}})
		if err != nil {
			t.Fatal(err)
		}
		return results, buf.String()
	}
	serial, serialOut := runWith(1)
	parallel, parallelOut := runWith(8)

	if serialOut != parallelOut {
		t.Errorf("sink output differs between 1 and 8 workers:\n%s\nvs\n%s", serialOut, parallelOut)
	}
	for i := range serial {
		if serial[i].Err != nil || parallel[i].Err != nil {
			t.Fatalf("job %d errored: %v / %v", i, serial[i].Err, parallel[i].Err)
		}
		sr, pr := MakeRow(serial[i]), MakeRow(parallel[i])
		if sr != pr {
			t.Errorf("job %d rows differ:\n%+v\nvs\n%+v", i, sr, pr)
		}
	}
}

// orderSink records the observation order of job indices.
type orderSink struct {
	mu      sync.Mutex
	indices []int
	flushed int
}

func (o *orderSink) Observe(r Result) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.indices = append(o.indices, r.Index)
	return nil
}

func (o *orderSink) Flush() error { o.flushed++; return nil }

// TestDeterministicOrdering checks that sinks observe every result in
// ascending job order on a saturated pool (run under -race in CI).
func TestDeterministicOrdering(t *testing.T) {
	jobs := smallMatrix(t)
	var order orderSink
	results, err := Run(context.Background(), jobs, Options{Workers: 8, Sinks: []Sink{&order}})
	if err != nil {
		t.Fatal(err)
	}
	if len(order.indices) != len(jobs) {
		t.Fatalf("sink saw %d results, want %d", len(order.indices), len(jobs))
	}
	for i, idx := range order.indices {
		if idx != i {
			t.Fatalf("out-of-order delivery at %d: %v", i, order.indices)
		}
	}
	if order.flushed != 1 {
		t.Errorf("Flush called %d times, want 1", order.flushed)
	}
	for i, r := range results {
		if r.Index != i {
			t.Errorf("results[%d].Index = %d", i, r.Index)
		}
		if r.Wall <= 0 {
			t.Errorf("job %d: no wall-time accounting", i)
		}
		if r.Committed() == 0 {
			t.Errorf("job %d: no committed-instruction accounting", i)
		}
	}
}

// cancelSink cancels the sweep after observing n results.
type cancelSink struct {
	n      int
	seen   int
	cancel context.CancelFunc
}

func (c *cancelSink) Observe(Result) error {
	c.seen++
	if c.seen == c.n {
		c.cancel()
	}
	return nil
}

func (c *cancelSink) Flush() error { return nil }

// TestCancellationMidSweep cancels from a sink after two results, with every
// later job held at ctx.Done() via the executeJob seam so the cancellation
// point is deterministic (the workers cannot outrun the collector): the run
// must report the context error, mark every other job with it, and still
// deliver one row per job to the sinks in order.
func TestCancellationMidSweep(t *testing.T) {
	orig := executeJob
	defer func() { executeJob = orig }()
	executeJob = func(ctx context.Context, i int, j Job) (*core.Results, error) {
		if i >= 2 {
			<-ctx.Done() // hold until the sink cancels mid-sweep
			return nil, ctx.Err()
		}
		return orig(ctx, i, j)
	}
	spec := Quick()
	spec.Instructions = 2_000
	jobs, err := spec.Jobs() // 18 jobs
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var order orderSink
	results, err := Run(ctx, jobs,
		Options{Workers: 2, Sinks: []Sink{&cancelSink{n: 2, cancel: cancel}, &order}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if len(order.indices) != len(jobs) {
		t.Fatalf("sinks saw %d rows, want one per job (%d)", len(order.indices), len(jobs))
	}
	for i, idx := range order.indices {
		if idx != i {
			t.Fatalf("out-of-order delivery under cancellation at %d: %v", i, order.indices)
		}
	}
	skipped := 0
	for _, r := range results {
		switch {
		case r.Err != nil:
			if !errors.Is(r.Err, context.Canceled) {
				t.Errorf("job %d: unexpected error %v", r.Index, r.Err)
			}
			skipped++
		case r.Res == nil:
			t.Errorf("job %d: neither result nor error", r.Index)
		}
	}
	if want := len(jobs) - 2; skipped != want {
		t.Errorf("cancellation after 2 of %d jobs: %d skipped, want %d", len(jobs), skipped, want)
	}
}

func TestPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := smallMatrix(t)
	results, err := Run(ctx, jobs, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	for _, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("job %d: want context error, got %v (res=%v)", r.Index, r.Err, r.Res != nil)
		}
	}
}

func TestTimeout(t *testing.T) {
	spec := Quick()
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(context.Background(), jobs, Options{Workers: 1, Timeout: time.Microsecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline exceeded, got %v", err)
	}
}

// panicJob returns a job whose simulator panics during Run (non-positive
// shadow capacity), exercising the per-job isolation path with a real
// in-simulation panic.
func panicJob() Job {
	cfg := core.WFC().WithShadowPolicy(
		shadow.Policy{Name: "shadow-dcache", Entries: -1},
		shadow.Policy{Name: "shadow-icache", Entries: 4},
		shadow.Policy{Name: "shadow-dtlb", Entries: 4},
		shadow.Policy{Name: "shadow-itlb", Entries: 4},
	).WithLimits(1_000, 1_000_000)
	return Job{Bench: "mcf", Mode: "panic", Config: cfg}
}

// TestPanicIsolation injects a panicking job into the middle of a healthy
// matrix: the panic must surface as that job's error only, and every other
// job must complete normally.
func TestPanicIsolation(t *testing.T) {
	jobs := smallMatrix(t)
	jobs[4] = panicJob()
	results, err := Run(context.Background(), jobs, Options{Workers: 4})
	if err != nil {
		t.Fatalf("a panicking job must not fail the sweep: %v", err)
	}
	for i, r := range results {
		if i == 4 {
			if r.Err == nil || !strings.Contains(r.Err.Error(), "panicked") {
				t.Errorf("job 4: want recovered panic, got %v", r.Err)
			}
			continue
		}
		if r.Err != nil || r.Res == nil {
			t.Errorf("job %d: collateral damage from the panicking job: %v", i, r.Err)
		}
	}
	if err := FirstErr(results); err == nil || !strings.Contains(err.Error(), "mcf/panic") {
		t.Errorf("FirstErr must surface the panicked job, got %v", err)
	}
}

func TestUnknownBenchJobError(t *testing.T) {
	jobs := []Job{{Bench: "nope", Mode: "baseline", Config: core.Baseline().WithLimits(100, 0)}}
	results, err := Run(context.Background(), jobs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil {
		t.Error("unknown benchmark must error the job")
	}
}

func TestForEachPanicAndErrors(t *testing.T) {
	var mu sync.Mutex
	ran := map[int]bool{}
	err := ForEach(context.Background(), 8, 4, func(_ context.Context, i int) error {
		mu.Lock()
		ran[i] = true
		mu.Unlock()
		switch i {
		case 2:
			panic("boom")
		case 5:
			return fmt.Errorf("job-5 failed")
		}
		return nil
	})
	if len(ran) != 8 {
		t.Errorf("only %d of 8 indices ran", len(ran))
	}
	if err == nil || !strings.Contains(err.Error(), "panic: boom") ||
		!strings.Contains(err.Error(), "job-5 failed") {
		t.Errorf("want joined panic + error, got: %v", err)
	}
	if err := ForEach(context.Background(), 0, 4, nil); err != nil {
		t.Errorf("empty range: %v", err)
	}
}

func TestJSONLRows(t *testing.T) {
	jobs := smallMatrix(t)[:3]
	var buf bytes.Buffer
	if _, err := Run(context.Background(), jobs, Options{Sinks: []Sink{NewJSONL(&buf)}}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 JSON lines, got %d", len(lines))
	}
	for i, line := range lines {
		var row Row
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if row.Bench != "exchange2" || row.Committed == 0 || row.Err != "" {
			t.Errorf("line %d malformed: %+v", i, row)
		}
	}
}

func TestAggregate(t *testing.T) {
	jobs := smallMatrix(t)
	jobs = append(jobs, Job{Bench: "nope", Mode: "baseline"})
	var agg Aggregate
	if _, err := Run(context.Background(), jobs, Options{Sinks: []Sink{&agg}}); err != nil {
		t.Fatal(err)
	}
	if agg.Jobs != len(jobs) || agg.Errored != 1 {
		t.Errorf("agg = %+v, want %d jobs / 1 errored", agg, len(jobs))
	}
	if agg.Committed == 0 || agg.Busy <= 0 || agg.MaxWall <= 0 {
		t.Errorf("missing accounting: %+v", agg)
	}
	if s := agg.String(); !strings.Contains(s, "1 errored") {
		t.Errorf("summary malformed: %s", s)
	}
}

// TestAggregateBusyFromSpans: a result carrying a Timing is busy for its
// cache, simulate and report spans only, so queue wait (a remote sweep's
// coordinator queue) is not counted as work; an untimed result is busy for
// its whole Wall.
func TestAggregateBusyFromSpans(t *testing.T) {
	for _, tc := range []struct {
		name   string
		timing *Timing
		want   time.Duration
	}{
		{"queued remote job", &Timing{QueueNS: int64(9 * time.Second), SimulateNS: int64(time.Second)}, time.Second},
		{"all spans", &Timing{QueueNS: 1, CacheNS: 2, SimulateNS: 30, ReportNS: 400}, 432},
		{"cache hit", &Timing{CacheNS: int64(time.Millisecond)}, time.Millisecond},
		{"untimed", nil, 10 * time.Second},
	} {
		var agg Aggregate
		if err := agg.Observe(Result{Err: errors.New("x"), Wall: 10 * time.Second, Timing: tc.timing}); err != nil {
			t.Fatal(err)
		}
		if agg.Busy != tc.want || agg.MaxWall != tc.want {
			t.Errorf("%s: busy %v, slowest %v; want both %v", tc.name, agg.Busy, agg.MaxWall, tc.want)
		}
	}
}

// TestSeedChangesProgram checks the seed override reaches the generator.
func TestSeedChangesProgram(t *testing.T) {
	base := Job{Bench: "gcc", Mode: "baseline", Config: core.Baseline().WithLimits(2_000, 0)}
	other := base
	other.Seed = 99
	results, err := Run(context.Background(), []Job{base, other}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := FirstErr(results); err != nil {
		t.Fatal(err)
	}
	if results[0].Res.Cycles == results[1].Res.Cycles &&
		results[0].Res.L1D.Misses == results[1].Res.L1D.Misses {
		t.Error("seed override produced an identical run")
	}
}

// recordingSubmitter is a LocalExecutor that also implements Submitter,
// recording the matrix announcement.
type recordingSubmitter struct {
	LocalExecutor
	mu        sync.Mutex
	submits   int
	announced []Job
	executed  int
	err       error
}

func (r *recordingSubmitter) Submit(ctx context.Context, jobs []Job) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.submits++
	r.announced = jobs
	if r.executed > 0 {
		return errors.New("Submit arrived after an Execute call")
	}
	return r.err
}

func (r *recordingSubmitter) Execute(ctx context.Context, index int, j Job) (*core.Results, error) {
	r.mu.Lock()
	r.executed++
	r.mu.Unlock()
	return r.LocalExecutor.Execute(ctx, index, j)
}

// TestSubmitterAnnouncesMatrix checks the optional Submitter extension: Run
// announces the complete job matrix exactly once, before any Execute call.
func TestSubmitterAnnouncesMatrix(t *testing.T) {
	jobs := smallMatrix(t)
	rec := &recordingSubmitter{}
	results, err := Run(context.Background(), jobs, Options{Executor: rec})
	if err != nil {
		t.Fatal(err)
	}
	if err := FirstErr(results); err != nil {
		t.Fatal(err)
	}
	if rec.submits != 1 {
		t.Errorf("matrix announced %d times, want 1", rec.submits)
	}
	if len(rec.announced) != len(jobs) {
		t.Errorf("announced %d jobs, want %d", len(rec.announced), len(jobs))
	}
	for i := range rec.announced {
		if rec.announced[i].String() != jobs[i].String() {
			t.Errorf("announced job %d is %s, want %s", i, rec.announced[i], jobs[i])
		}
	}
}

// TestSubmitterErrorFailsSweep: a failed matrix announcement fails the run
// outright, before any job executes.
func TestSubmitterErrorFailsSweep(t *testing.T) {
	rec := &recordingSubmitter{err: errors.New("coordinator unreachable")}
	_, err := Run(context.Background(), smallMatrix(t), Options{Executor: rec})
	if err == nil || !strings.Contains(err.Error(), "submit matrix") {
		t.Fatalf("want submit error, got %v", err)
	}
	if rec.executed != 0 {
		t.Errorf("%d jobs executed despite failed submission", rec.executed)
	}
}
