package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"safespec/internal/stats"
)

// Sink observes sweep results. Run delivers results in ascending job order
// from a single goroutine (no locking needed) and calls Flush exactly once
// before returning.
type Sink interface {
	Observe(Result) error
	Flush() error
}

// Row is the serialized form of one result written by the JSONL sink. It
// contains only fields that are deterministic for a given job —
// never wall-clock times — so sink output is byte-identical across runs and
// worker counts.
type Row struct {
	Bench string `json:"bench"`
	Mode  string `json:"mode"`
	Seed  int64  `json:"seed"`
	// Threads is the SMT hardware-thread count; it is omitted for
	// single-thread cells so pre-SMT rows (and the golden JSONL pinning
	// them) are byte-identical.
	Threads         int     `json:"threads,omitempty"`
	Cycles          uint64  `json:"cycles"`
	Committed       uint64  `json:"committed"`
	IPC             float64 `json:"ipc"`
	Mispredicts     uint64  `json:"mispredicts"`
	DMissRate       float64 `json:"d_miss_rate"`
	IMissRate       float64 `json:"i_miss_rate"`
	DShadowHitShare float64 `json:"d_shadow_hit_share"`
	IShadowHitShare float64 `json:"i_shadow_hit_share"`
	CommitRateD     float64 `json:"commit_rate_d"`
	CommitRateI     float64 `json:"commit_rate_i"`
	Err             string  `json:"err,omitempty"`
}

// MakeRow projects a Result onto its serialized form.
func MakeRow(r Result) Row {
	row := Row{Bench: r.Job.Bench, Mode: r.Job.Mode, Seed: r.Job.Seed}
	if n := r.Job.Config.Pipeline.NumThreads(); n > 1 {
		row.Threads = n
	}
	if r.Err != nil {
		row.Err = r.Err.Error()
		return row
	}
	s := r.Res
	row.Cycles = s.Cycles
	row.Committed = s.Committed
	row.IPC = s.IPC()
	row.Mispredicts = s.Mispredicts
	row.DMissRate = s.DReadMissRate()
	row.IMissRate = s.IFetchMissRate()
	row.DShadowHitShare = s.DShadowHitShare()
	row.IShadowHitShare = s.IShadowHitShare()
	row.CommitRateD = s.ShD.CommitRate()
	row.CommitRateI = s.ShI.CommitRate()
	return row
}

// JSONL streams one JSON object per result to w (the `-json` output of
// cmd/safespec-bench).
type JSONL struct {
	enc *json.Encoder
}

// NewJSONL builds a JSON-lines sink over w.
func NewJSONL(w io.Writer) *JSONL { return &JSONL{enc: json.NewEncoder(w)} }

// Observe writes the result's row as one JSON line.
func (j *JSONL) Observe(r Result) error { return j.enc.Encode(MakeRow(r)) }

// Flush is a no-op; every Observe writes through.
func (j *JSONL) Flush() error { return nil }

// Aggregate accumulates sweep-level accounting: job counts, summed per-job
// busy time and committed instructions, plus per-(bench, mode) IPC samples
// so a multi-seed fan collapses into mean ± 95% CI cells.
// It is the in-memory sink behind the progress summary of
// cmd/safespec-bench.
type Aggregate struct {
	// Jobs and Errored count observed results and the failed subset.
	Jobs, Errored int
	// Committed and Cycles sum the simulated work across jobs.
	Committed, Cycles uint64
	// Busy sums per-job busy time across workers; MaxWall is the slowest
	// single job by the same clock. A job's busy time is its cache,
	// simulate and report spans when it carries a Timing (so a remote
	// sweep's coordinator queue wait is not counted as work), else its
	// Wall.
	Busy, MaxWall time.Duration
	// Spans sums the per-job Timing breakdowns across the Timed results
	// that carried one (results without Timing only contribute to Busy).
	Spans Timing
	Timed int

	// cells collects per-(bench, mode) IPC samples in observation order;
	// order holds the keys in first-seen (job) order.
	cells map[cellKey][]float64
	order []cellKey
}

type cellKey struct {
	bench, mode string
	threads     int
}

// CellStat summarizes one (bench, mode, threads) cell across its seed fan:
// the number of successful runs and the mean IPC with its 95% confidence
// half-width (0 when the cell holds a single seed).
type CellStat struct {
	Bench, Mode string
	Threads     int
	N           int
	MeanIPC     float64
	CI95        float64
}

// Observe folds one result into the totals. Errored jobs still contribute
// their busy time: a job that fails late has occupied its worker all along.
func (a *Aggregate) Observe(r Result) error {
	a.Jobs++
	busy := r.Wall
	if t := r.Timing; t != nil {
		busy = time.Duration(t.CacheNS + t.SimulateNS + t.ReportNS)
		a.Spans.Add(*t)
		a.Timed++
	}
	a.Busy += busy
	a.MaxWall = max(a.MaxWall, busy)
	if r.Err != nil {
		a.Errored++
		return nil
	}
	a.Committed += r.Res.Committed
	a.Cycles += r.Res.Cycles
	k := cellKey{r.Job.Bench, r.Job.Mode, r.Job.Config.Pipeline.NumThreads()}
	if a.cells == nil {
		a.cells = make(map[cellKey][]float64)
	}
	if _, seen := a.cells[k]; !seen {
		a.order = append(a.order, k)
	}
	a.cells[k] = append(a.cells[k], r.Res.IPC())
	return nil
}

// Cells returns the per-(bench, mode) seed-fan summaries in job order. With
// a single-seed matrix every cell has N=1 and CI95=0; a seed fan collapses
// into one row per cell instead of duplicate rows.
func (a *Aggregate) Cells() []CellStat {
	out := make([]CellStat, 0, len(a.order))
	for _, k := range a.order {
		xs := a.cells[k]
		mean, half := stats.MeanCI95(xs)
		out = append(out, CellStat{Bench: k.bench, Mode: k.mode, Threads: k.threads, N: len(xs), MeanIPC: mean, CI95: half})
	}
	return out
}

// Flush is a no-op.
func (a *Aggregate) Flush() error { return nil }

// String renders the accounting summary.
func (a *Aggregate) String() string {
	rate := 0.0
	if s := a.Busy.Seconds(); s > 0 {
		rate = float64(a.Committed) / s
	}
	return fmt.Sprintf("%d jobs (%d errored): %d instrs, %d cycles, busy %v (slowest job %v, %.0f instrs/s/worker)",
		a.Jobs, a.Errored, a.Committed, a.Cycles,
		a.Busy.Round(time.Millisecond), a.MaxWall.Round(time.Millisecond), rate)
}

// SpanSummary renders the summed per-job span breakdown, e.g.
// "spans over 18/18 jobs: queue 1.2s, simulate 40s". It returns "" when no
// observed result carried a Timing (a fleet of pre-timing peers).
func (a *Aggregate) SpanSummary() string {
	if a.Timed == 0 {
		return ""
	}
	return fmt.Sprintf("spans over %d/%d jobs: %s", a.Timed, a.Jobs, a.Spans)
}
