package sweep

import (
	"context"
	"fmt"
	"time"

	"safespec/internal/core"
)

// Timing is the optional per-job span breakdown carried alongside a
// Result: where the job's wall-clock time went, in nanoseconds. Spans a
// layer cannot observe stay zero — a purely local run has no report span,
// a cache hit has no simulate span — and a Result from an executor that
// is not a TimedExecutor has a nil Timing altogether. Timing is diagnostic only:
// it never feeds Row, so sweep output stays byte-identical whether or not
// any layer populates it.
//
// Span semantics:
//   - QueueNS: wait between the job becoming runnable and an executor
//     picking it up (local pool wait, or coordinator enqueue→lease grant).
//   - CacheNS: result-cache lookup plus store time.
//   - SimulateNS: time inside the simulator itself.
//   - ReportNS: result delivery overhead (worker report round trip as
//     observed by the coordinator, net of simulate and cache time).
type Timing struct {
	QueueNS    int64 `json:"queue_ns,omitempty"`
	CacheNS    int64 `json:"cache_ns,omitempty"`
	SimulateNS int64 `json:"simulate_ns,omitempty"`
	ReportNS   int64 `json:"report_ns,omitempty"`
}

// Add accumulates t into the receiver (used by per-sweep aggregation).
func (t *Timing) Add(o Timing) {
	t.QueueNS += o.QueueNS
	t.CacheNS += o.CacheNS
	t.SimulateNS += o.SimulateNS
	t.ReportNS += o.ReportNS
}

// String renders the non-zero spans compactly, e.g.
// "queue 1.2s, simulate 40s".
func (t Timing) String() string {
	out := ""
	app := func(name string, ns int64) {
		if ns == 0 {
			return
		}
		if out != "" {
			out += ", "
		}
		out += fmt.Sprintf("%s %v", name, time.Duration(ns).Round(time.Millisecond))
	}
	app("queue", t.QueueNS)
	app("cache", t.CacheNS)
	app("simulate", t.SimulateNS)
	app("report", t.ReportNS)
	if out == "" {
		return "no spans"
	}
	return out
}

// TimedExecutor is an optional Executor extension: executors that can
// attribute a job's wall time to spans implement it, and Run prefers it
// over Execute so Result.Timing is populated. Executors that wrap another
// executor (the result cache, the grid worker) merge their own spans with
// the inner executor's.
type TimedExecutor interface {
	ExecuteTimed(ctx context.Context, index int, j Job) (*core.Results, *Timing, error)
}

// ExecuteTimed runs the job in-process, attributing all execution time to
// the simulate span.
func (LocalExecutor) ExecuteTimed(ctx context.Context, index int, j Job) (*core.Results, *Timing, error) {
	start := time.Now()
	res, err := executeJob(ctx, index, j)
	return res, &Timing{SimulateNS: int64(time.Since(start))}, err
}
