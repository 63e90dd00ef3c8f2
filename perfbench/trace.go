package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"safespec/internal/core"
	"safespec/internal/sweep"
)

// cellStride separates the cell ids of consecutive passes: a cell's id is
// pass*cellStride + job index, so every span of one sweep cell in one pass
// shares an id across layers, goroutines and grid workers.
const cellStride = 1_000_000

// setupCell is the cell id of spans recorded during set-up.
const setupCell = -1

// span is one timed call at a layer boundary. Names are "<layer>.<call>".
// Parent indexes the span that made the call (-1 for a root). The optional
// attributes carry what the layer reported about the call: the simulated
// cycles of a core.run, and the sweep.Timing stamps of a root span.
type span struct {
	Cell   int64         `json:"cell"`
	Name   string        `json:"name"`
	Parent int           `json:"parent"`
	Start  int64         `json:"start_ns"`
	End    int64         `json:"end_ns"`
	Cycles uint64        `json:"sim_cycles,omitempty"`
	Timing *sweep.Timing `json:"timing,omitempty"`
}

func (s span) layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// tracer keeps spans in memory; they are written out once, when the
// benchmark ends. Times are host nanoseconds since the tracer's origin.
type tracer struct {
	origin time.Time
	// pass is the current pass number, stamped into cell ids.
	pass atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

type spanKey struct{}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// cell returns the id of the current pass's cell for a job index.
func (t *tracer) cell(index int) int64 { return t.pass.Load()*cellStride + int64(index) }

// begin opens a span as a child of the span carried by ctx, returning a
// context carrying the new one.
func (t *tracer) begin(ctx context.Context, cell int64, name string) (context.Context, int) {
	parent := -1
	if p, ok := ctx.Value(spanKey{}).(int); ok {
		parent = p
	}
	start := t.now()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Cell: cell, Name: name, Parent: parent, Start: start})
	t.mu.Unlock()
	return context.WithValue(ctx, spanKey{}, id), id
}

// end closes span id, applying set (when non-nil) to record attributes.
func (t *tracer) end(id int, set func(*span)) {
	now := t.now()
	t.mu.Lock()
	t.spans[id].End = now
	if set != nil {
		set(&t.spans[id])
	}
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far, with grid-worker
// roots linked under the client-side span of their cell.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	for i := range out {
		// A call that panicked never closed its span; count it as empty.
		out[i].End = max(out[i].End, out[i].Start)
	}
	linkRemote(out)
	return out
}

// linkRemote makes each root span that a grid worker recorded (it runs on
// the worker's goroutine, so no context links it) a child of the
// "grid.remote" span of the same cell.
func linkRemote(spans []span) {
	remote := map[int64]int{}
	for i, s := range spans {
		if s.Name == "grid.remote" {
			remote[s.Cell] = i
		}
	}
	for i := range spans {
		if spans[i].Parent >= 0 || spans[i].Name == "grid.remote" {
			continue
		}
		if p, ok := remote[spans[i].Cell]; ok {
			spans[i].Parent = p
		}
	}
}

// selfNS returns, per span, its duration minus the part of its interval
// that its child spans cover.
func selfNS(spans []span) []int64 {
	children := make([][][2]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = (s.End - s.Start) - covered(s.Start, s.End, children[i])
	}
	return out
}

// covered returns the length of [lo, hi] covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		a := max(iv[0], end)
		if iv[1] > a {
			total += iv[1] - a
			end = iv[1]
		}
	}
	return total
}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// coreExec simulates a cell in-process through the public calls that
// sweep.LocalExecutor makes — Job.Program, core.New or Simulator.Reset on
// a pooled simulator, Simulator.Run — recording a span around each.
type coreExec struct {
	tr   *tracer
	pool sync.Pool
}

func (c *coreExec) Execute(ctx context.Context, index int, j sweep.Job) (*core.Results, error) {
	res, _, err := c.ExecuteTimed(ctx, index, j)
	return res, err
}

func (c *coreExec) ExecuteTimed(ctx context.Context, index int, j sweep.Job) (res *core.Results, t *sweep.Timing, err error) {
	start := time.Now()
	cell := c.tr.cell(index)
	ctx, top := c.tr.begin(ctx, cell, "core.exec")
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("perfbench: %s panicked: %v", j, r)
		}
		c.tr.end(top, nil)
		t = &sweep.Timing{SimulateNS: int64(time.Since(start))}
	}()

	_, id := c.tr.begin(ctx, cell, "workloads.program")
	prog, err := j.Program()
	c.tr.end(id, nil)
	if err != nil {
		return nil, nil, err
	}

	_, id = c.tr.begin(ctx, cell, "core.reset")
	sim, _ := c.pool.Get().(*core.Simulator)
	if sim != nil {
		sim.Reset(j.Config, prog)
	} else {
		sim = core.New(j.Config, prog)
	}
	c.tr.end(id, nil)

	_, id = c.tr.begin(ctx, cell, "core.run")
	res = sim.Run().Detach()
	c.tr.end(id, func(s *span) { s.Cycles = res.Cycles })
	c.pool.Put(sim)
	return res, nil, nil
}

// spanExec records a span named name around every call into inner, and
// attaches the call's sweep.Timing to it.
type spanExec struct {
	tr    *tracer
	name  string
	inner sweep.Executor
}

func (s *spanExec) Execute(ctx context.Context, index int, j sweep.Job) (*core.Results, error) {
	res, _, err := s.ExecuteTimed(ctx, index, j)
	return res, err
}

func (s *spanExec) ExecuteTimed(ctx context.Context, index int, j sweep.Job) (*core.Results, *sweep.Timing, error) {
	ctx, id := s.tr.begin(ctx, s.tr.cell(index), s.name)
	var (
		res *core.Results
		t   *sweep.Timing
		err error
	)
	if timed, ok := s.inner.(sweep.TimedExecutor); ok {
		res, t, err = timed.ExecuteTimed(ctx, index, j)
	} else {
		res, err = s.inner.Execute(ctx, index, j)
	}
	s.tr.end(id, func(sp *span) {
		if t != nil {
			cp := *t
			sp.Timing = &cp
		}
	})
	return res, t, err
}

// submitSpanExec is a spanExec whose inner executor takes the whole matrix
// up front (sweep.Submitter); the announcement is forwarded so wrapping
// leaves the grid client on its real path.
type submitSpanExec struct{ spanExec }

func (s *submitSpanExec) Submit(ctx context.Context, jobs []sweep.Job) error {
	return s.inner.(sweep.Submitter).Submit(ctx, jobs)
}

// withSpan wraps inner in a span named name, keeping inner's Submitter role.
func withSpan(tr *tracer, name string, inner sweep.Executor) sweep.Executor {
	s := spanExec{tr: tr, name: name, inner: inner}
	if _, ok := inner.(sweep.Submitter); ok {
		return &submitSpanExec{s}
	}
	return &s
}

// switchExec is a grid worker's executor in a traced run: a worker reads
// its executor once, so passes choose between the traced and the plain
// path through this switch.
type switchExec struct {
	tracing atomic.Bool
	traced  *coreExec
}

func (s *switchExec) Execute(ctx context.Context, index int, j sweep.Job) (*core.Results, error) {
	res, _, err := s.ExecuteTimed(ctx, index, j)
	return res, err
}

func (s *switchExec) ExecuteTimed(ctx context.Context, index int, j sweep.Job) (*core.Results, *sweep.Timing, error) {
	if s.tracing.Load() {
		return s.traced.ExecuteTimed(ctx, index, j)
	}
	return sweep.LocalExecutor{}.ExecuteTimed(ctx, index, j)
}
