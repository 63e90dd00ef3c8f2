package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"safespec/internal/core"
	"safespec/internal/figures"
	"safespec/internal/grid"
	"safespec/internal/resultcache"
	"safespec/internal/sweep"
)

// Execution paths a workload's sweep takes.
const (
	pathLocal = "local" // sweep.Run on the in-process executor
	pathCache = "cache" // resultcache.Executor over the in-process executor
	pathGrid  = "grid"  // grid.RemoteExecutor → grid.Server → two grid.Workers, over 127.0.0.1
)

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"local-setup", "local-cycle", "cache-mixed", "grid-loopback"}

// workload is one input set: a sweep matrix, the path it runs through and,
// for the cache path, which cells the cache holds before each pass.
type workload struct {
	name string
	path string
	spec sweep.MatrixSpec
	// prefilled are the job indexes cached before each pass (cache path).
	prefilled []int
}

// seedStream separates this benchmark's random stream from other users of
// the workload seed.
const seedStream = 0x5afe5bec

// defineWorkload derives a workload's inputs from the workload seed: the
// generator seeds of its kernels and, on the cache path, the prefilled
// cells. The same seed always yields the same inputs. Every cell calls
// Simulator.Reset, so modelled caches start empty in every cell.
func defineWorkload(name string, seed int64) (workload, error) {
	rng := rand.New(rand.NewPCG(uint64(seed), seedStream))
	w := workload{name: name}
	switch name {
	case "local-setup":
		// The Quick matrix over a seed fan: the program changes on every
		// cell, so Reset rebuilds the memory image each time.
		w.path, w.spec = pathLocal, sweep.Quick()
		w.spec.Seeds = genSeeds(rng, 4)
	case "local-cycle":
		// Every benchmark at the paper's instruction budget: the cycle
		// loop dominates.
		paper := figures.DefaultSweep()
		w.path, w.spec = pathLocal, sweep.Full()
		w.spec.Instructions, w.spec.MaxCycles = paper.Instructions, paper.MaxCycles
		w.spec.Seeds = genSeeds(rng, 1)
	case "cache-mixed", "grid-loopback":
		// Small cells (Quick without mcf), so simulation is cheap next to
		// the cache or grid overhead around it.
		w.spec = sweep.Quick()
		w.spec.Benchmarks = []string{"perlbench", "lbm", "exchange2", "gcc", "pop2"}
		w.spec.Seeds = genSeeds(rng, 8)
		w.path = pathGrid
		if name == "cache-mixed" {
			w.path = pathCache
			w.prefilled = halfOfEachFan(rng, w.spec)
		}
	default:
		return w, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return w, nil
}

// genSeeds draws n distinct positive generator seeds.
func genSeeds(rng *rand.Rand, n int) []int64 {
	seen := map[int64]bool{}
	out := make([]int64, 0, n)
	for len(out) < n {
		s := 1 + rng.Int64N(1<<31)
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// halfOfEachFan picks, for every (benchmark, mode) pair, a seeded half of
// its seed fan, so the cells left to simulate cost the same share of every
// benchmark whatever the seed. Job indexes follow MatrixSpec.Jobs, where a
// pair's seeds are adjacent.
func halfOfEachFan(rng *rand.Rand, spec sweep.MatrixSpec) []int {
	fan := len(spec.Seeds)
	pairs := len(spec.Benchmarks) * len(sweep.StandardModes())
	var out []int
	for p := 0; p < pairs; p++ {
		for _, s := range rng.Perm(fan)[:fan/2] {
			out = append(out, p*fan+s)
		}
	}
	return out
}

// tiny shrinks a workload to a seconds-long test size, keeping its path
// and the share of prefilled cells.
func (w workload) tiny() workload {
	w.spec.Benchmarks = []string{"exchange2", "gcc"}
	w.spec.Instructions = 2_000
	w.spec.Seeds = w.spec.Seeds[:min(2, len(w.spec.Seeds))]
	if w.path == pathCache {
		w.prefilled = halfOfEachFan(rand.New(rand.NewPCG(1, seedStream)), w.spec)
	}
	return w
}

// bench is a set-up workload, ready to run passes over its matrix.
type bench struct {
	w       workload
	jobs    []sweep.Job
	workers int
	workdir string
	tr      *tracer // nil unless traced passes will run

	// cache path: results stored into each pass's fresh cache directory
	// before the pass, keyed by job index.
	prefill map[int]*core.Results

	// grid path
	grid *loopback
}

// setUp prepares w: it generates every program of the matrix (warming the
// workloads.Program memo, as a user's first sweep would), fills the first
// cache directory, or starts the loopback grid. With tr non-nil, program
// generation is traced under setupCell.
func setUp(ctx context.Context, w workload, workers int, workdir string, tr *tracer) (*bench, error) {
	jobs, err := w.spec.Jobs()
	if err != nil {
		return nil, err
	}
	b := &bench{w: w, jobs: jobs, workers: workers, workdir: workdir, tr: tr}
	for _, j := range jobs {
		id := -1
		if tr != nil {
			_, id = tr.begin(ctx, setupCell, "workloads.program")
		}
		_, err := j.Program()
		if tr != nil {
			tr.end(id, nil)
		}
		if err != nil {
			return nil, err
		}
	}
	switch w.path {
	case pathCache:
		sub := make([]sweep.Job, len(w.prefilled))
		for i, idx := range w.prefilled {
			sub[i] = jobs[idx]
		}
		results, err := sweep.Run(ctx, sub, sweep.Options{Workers: workers})
		if err != nil {
			return nil, err
		}
		if err := sweep.FirstErr(results); err != nil {
			return nil, err
		}
		b.prefill = make(map[int]*core.Results, len(sub))
		for i, idx := range w.prefilled {
			b.prefill[idx] = results[i].Res
		}
		// The first pass's cache is part of set-up, as for a user.
		if _, err := b.openCache(0); err != nil {
			return nil, err
		}
	case pathGrid:
		b.grid, err = startLoopback(tr)
		if err != nil {
			return nil, err
		}
	}
	return b, nil
}

// close stops everything setUp started and removes the work directory.
func (b *bench) close() {
	if b.grid != nil {
		b.grid.stop()
	}
	if b.workdir != "" {
		os.RemoveAll(b.workdir)
	}
}

// cacheDir is the result cache directory of pass n.
func (b *bench) cacheDir(n int) string {
	return filepath.Join(b.workdir, fmt.Sprintf("cache-%d", n))
}

// openCache opens pass n's cache directory and stores the prefilled
// results into it (rewriting an entry is harmless: Put is idempotent).
func (b *bench) openCache(n int) (*resultcache.Cache, error) {
	c, err := resultcache.Open(b.cacheDir(n))
	if err != nil {
		return nil, err
	}
	for idx, res := range b.prefill {
		key, err := b.jobs[idx].Hash()
		if err != nil {
			return nil, err
		}
		if err := c.Put(key, res); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// cellStat is what a pass keeps of one cell once its row is written.
type cellStat struct {
	failed bool // the executor reported an error
	wall   time.Duration
	timing sweep.Timing
	cycles uint64
}

// pass is one run of the whole matrix.
type pass struct {
	n      int
	traced bool
	wall   time.Duration
	// end is on the tracer's clock (traced passes only).
	end   int64
	rows  []byte // the sweep.JSONL output
	cells []cellStat
	delta counters
}

// counters are the cumulative counts a pass is measured by, read before
// and after it; the indexes are the c* constants.
type counters [nCounters]int64

const (
	cAllocs      = iota // heap objects allocated by the process
	cHits               // resultcache hits
	cMisses             // resultcache misses
	cCacheErrors        // resultcache errors
	cGranted            // grid leases granted
	cCompleted          // grid leases completed
	cRequeued           // grid jobs requeued or hedged
	cRequests           // HTTP requests of the grid clients
	cBytes              // HTTP body bytes of the grid clients
	nCounters
)

func (c counters) sub(o counters) counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

func (c counters) add(o counters) counters {
	for i := range c {
		c[i] += o[i]
	}
	return c
}

func (b *bench) counters(cache *resultcache.Cache) counters {
	var c counters
	c[cAllocs] = int64(heapAllocs())
	if cache != nil {
		s := cache.Stats()
		c[cHits], c[cMisses], c[cCacheErrors] = int64(s.Hits), int64(s.Misses), int64(s.Errors)
	}
	if b.grid != nil {
		s := b.grid.server.Stats()
		c[cGranted], c[cCompleted], c[cRequeued] = int64(s.Granted), int64(s.Completed), int64(s.Requeued+s.Hedged)
		c[cRequests], c[cBytes] = b.grid.http.requests.Load(), b.grid.http.bytes.Load()
	}
	return c
}

// runPass runs the matrix once as pass n. The sweep, its sinks and pool
// are the real ones; tracing only wraps the executor. Only sweep.Run (and,
// on the grid path, releasing the sweep) is timed; opening and removing a
// pass's cache directory is not.
func (b *bench) runPass(ctx context.Context, n int, traced bool) (pass, error) {
	p := pass{n: n, traced: traced}
	var exec sweep.Executor
	var cache *resultcache.Cache
	var inner sweep.Executor = sweep.LocalExecutor{}
	if traced {
		b.tr.pass.Store(int64(n))
		inner = &coreExec{tr: b.tr}
	}
	switch b.w.path {
	case pathLocal:
		exec = inner
	case pathCache:
		var err error
		if cache, err = b.openCache(n); err != nil {
			return p, err
		}
		defer os.RemoveAll(cache.Dir())
		exec = resultcache.NewExecutor(cache, inner)
		if traced {
			exec = withSpan(b.tr, "resultcache.exec", exec)
		}
	case pathGrid:
		if b.grid.exec != nil {
			b.grid.exec.tracing.Store(traced)
		}
		exec = b.grid.remote
		if traced {
			exec = withSpan(b.tr, "grid.remote", exec)
		}
	}

	var rows bytes.Buffer
	before := b.counters(cache)
	start := time.Now()
	results, err := sweep.Run(ctx, b.jobs, sweep.Options{
		Workers:  b.workers,
		Sinks:    []sweep.Sink{sweep.NewJSONL(&rows)},
		Executor: exec,
	})
	if b.grid != nil {
		err = errors.Join(err, b.grid.remote.Close())
	}
	p.wall = time.Since(start)
	if traced {
		p.end = b.tr.now()
	}
	p.delta = b.counters(cache).sub(before)
	if err != nil {
		return p, fmt.Errorf("pass %d: %w", n, err)
	}
	p.rows = rows.Bytes()
	p.cells = make([]cellStat, len(results))
	for i, r := range results {
		c := cellStat{failed: r.Err != nil, wall: r.Wall}
		if r.Timing != nil {
			c.timing = *r.Timing
		}
		if r.Res != nil {
			c.cycles = r.Res.Cycles
		}
		p.cells[i] = c
	}
	return p, nil
}

// reference runs the matrix once, untimed, on a path independent of the
// one under test: cache and grid cells are checked against the plain local
// executor, local cells against the traced in-process executor.
func (b *bench) reference(ctx context.Context) ([]sweep.Result, []byte, error) {
	var exec sweep.Executor = sweep.LocalExecutor{}
	if b.w.path == pathLocal {
		exec = &coreExec{tr: newTracer()}
	}
	var rows bytes.Buffer
	results, err := sweep.Run(ctx, b.jobs, sweep.Options{
		Workers:  b.workers,
		Sinks:    []sweep.Sink{sweep.NewJSONL(&rows)},
		Executor: exec,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("reference: %w", err)
	}
	// A cell that errors here cannot match its timed row (or errored there
	// too), so countFailed counts it either way.
	return results, rows.Bytes(), nil
}

// countFailed returns the cells of p that errored or whose JSONL row
// differs byte for byte from the reference row of the same job.
func countFailed(p pass, ref []byte) int {
	got, want := splitRows(p.rows), splitRows(ref)
	failed := 0
	for i, c := range p.cells {
		if c.failed || i >= len(got) || i >= len(want) || !bytes.Equal(got[i], want[i]) {
			failed++
		}
	}
	return failed
}

func splitRows(b []byte) [][]byte {
	return bytes.Split(bytes.TrimSuffix(b, []byte("\n")), []byte("\n"))
}

// loopback is an in-process grid: a Server on 127.0.0.1, two Workers with
// one slot each, and the RemoteExecutor a sweep submits through. Every
// client's transport is counted.
type loopback struct {
	server *grid.Server
	remote *grid.RemoteExecutor
	exec   *switchExec // the workers' executor in a traced run; nil otherwise
	http   *httpCounter

	srv     *http.Server
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	clients []*http.Client
}

// gridSlots is the worker-slot count of the loopback grid: two workers
// with one lease loop each.
const gridSlots = 2

func startLoopback(tr *tracer) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("grid loopback: %w", err)
	}
	g := &loopback{server: grid.NewServer(grid.ServerOptions{}), http: &httpCounter{}}
	g.srv = &http.Server{Handler: g.server.Handler()}
	go g.srv.Serve(ln)
	url := "http://" + ln.Addr().String()

	var exec sweep.Executor // nil: the worker's default local executor
	if tr != nil {
		g.exec = &switchExec{traced: &coreExec{tr: tr}}
		exec = g.exec
	}
	ctx, cancel := context.WithCancel(context.Background())
	g.cancel = cancel
	for i := 0; i < gridSlots; i++ {
		client := g.http.client()
		g.clients = append(g.clients, client)
		w := &grid.Worker{Coordinator: url, ID: fmt.Sprintf("perfbench-%d", i), Parallel: 1, Exec: exec, Client: client}
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			w.Run(ctx)
		}()
	}
	client := g.http.client()
	g.clients = append(g.clients, client)
	g.remote = &grid.RemoteExecutor{URL: url, Client: client}
	return g, nil
}

// stop ends the workers, waits for them, and shuts the server down.
func (g *loopback) stop() {
	g.remote.Close()
	g.cancel()
	g.wg.Wait()
	g.srv.Close()
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

// nproc is the load limit: pool workers of every sweep.
func nproc() int { return runtime.NumCPU() }
