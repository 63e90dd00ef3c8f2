// Command perfbench is the repository benchmark: it runs one workload — a
// benchmark × mode × seed sweep on one execution path — for a fixed time,
// checks every output row against an independent reference, and prints
// each metric by name with its unit. The last line of standard output is
// the machine-readable result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a run
// alternates untraced and traced passes and reports the per-layer metrics,
// computed from spans kept in memory and written out when the run ends.
// See README.md for the workloads and what each metric should move.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload local-setup --seed 1 --seconds 15 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"safespec/internal/stats"
)

// processStart stands in for the process's start: package variables are
// initialised right after the Go runtime starts, before main.
var processStart = time.Now()

// An untraced run measures its own set-up and more in fresh child
// processes, so the program memo starts cold, as it does for a user. The
// children run between timed passes, one after each, while they take less
// than a quarter of the timed phase and fewer than maxSetups set-ups are
// measured; the rest of minSetups follow the timed phase. Spread over the
// run, a burst of load from outside the benchmark moves few of them.
const (
	minSetups = 7
	maxSetups = 15
)

// runBudget bounds a whole run, so a hung grid or simulation fails the
// run instead of hanging it.
const runBudget = 170 * time.Second

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// workdir holds the run's scratch files and, for traced runs, the
	// span files.
	workdir string
	// maxSetups caps the set-ups measured (1 measures only the run's own).
	maxSetups int
	// tiny shrinks the workload to test size.
	tiny bool
}

func main() {
	cfg := config{maxSetups: maxSetups}
	var seconds, trace int
	var setupOnly bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: derives the kernels' generator seeds and the cache prefill")
	flag.IntVar(&seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.StringVar(&cfg.workdir, "workdir", filepath.Join(".bench_build", "perfbench"), "directory for scratch files and span output")
	flag.BoolVar(&setupOnly, "setup-only", false, "set the workload up, print the set-up seconds and exit")
	flag.Parse()
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1 and -trace 0 or 1")
		os.Exit(2)
	}

	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	if setupOnly {
		s, err := setUpOnce(ctx, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(strconv.FormatFloat(s, 'g', -1, 64))
		return
	}
	line, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// scratchDir is this process's own directory under the work directory.
func scratchDir(cfg config) string {
	return filepath.Join(cfg.workdir, fmt.Sprintf("%s-%d", cfg.workload, os.Getpid()))
}

func (cfg config) define() (workload, error) {
	w, err := defineWorkload(cfg.workload, cfg.seed)
	if cfg.tiny {
		w = w.tiny()
	}
	return w, err
}

// setUpOnce sets the workload up, as a run would, and returns the seconds
// from process start to ready.
func setUpOnce(ctx context.Context, cfg config) (float64, error) {
	w, err := cfg.define()
	if err != nil {
		return 0, err
	}
	b, err := setUp(ctx, w, nproc(), scratchDir(cfg), nil)
	if err != nil {
		return 0, err
	}
	s := time.Since(processStart).Seconds()
	b.close()
	return s, nil
}

// run sets up, runs the timed passes, checks every row against the
// reference, and turns the outcome into the result line. Progress and a
// human-readable metric listing go to standard error.
func run(ctx context.Context, cfg config) (resultLine, error) {
	o, err := measure(ctx, cfg)
	if err != nil {
		return resultLine{}, err
	}
	defs, m := endToEnd, map[string]float64(nil)
	if cfg.trace {
		defs, m = perLayer, o.perLayerMetrics(os.Stderr)
		path := filepath.Join(cfg.workdir, "traces", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := writeSpans(path, o.spans); err != nil {
			return resultLine{}, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(o.spans), path)
	} else {
		m = o.endToEndMetrics()
	}
	r := rates(o.passes)
	q1, _ := quantile(r, 0.25)
	q3, _ := quantile(r, 0.75)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d passes (cells/s per pass: q1 %.4g, median %.4g, q3 %.4g), %d cells attempted, %d failed\n",
		cfg.workload, cfg.seed, len(o.passes), q1, stats.Median(r), q3, o.attempted, o.failed)
	printMetrics(os.Stderr, defs, m)

	line := resultLine{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		line.Metrics[d.name] = metricValue{Value: m[d.name], Unit: d.unit}
	}
	return line, nil
}

// measure runs one workload end to end: set-up, timed passes, the
// reference check, and (untraced) the extra set-up samples.
func measure(ctx context.Context, cfg config) (*outcome, error) {
	w, err := cfg.define()
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	b, err := setUp(ctx, w, nproc(), scratchDir(cfg), tr)
	if err != nil {
		return nil, err
	}
	o := &outcome{b: b, setup: []float64{time.Since(processStart).Seconds()}}
	var spent time.Duration // in set-up children
	sample := func() error {
		start := time.Now()
		s, err := setUpChild(ctx, cfg)
		spent += time.Since(start)
		if err == nil {
			o.setup = append(o.setup, s)
		}
		return err
	}
	between := func() error {
		if cfg.trace || len(o.setup) >= cfg.maxSetups || spent >= cfg.seconds/4 {
			return nil
		}
		return sample()
	}
	o.passes, err = b.timedPhase(ctx, cfg.seconds, between)
	for err == nil && !cfg.trace && len(o.setup) < min(minSetups, cfg.maxSetups) {
		err = sample()
	}
	if err == nil {
		o.rssMB, err = peakRSSMB()
	}
	if err == nil {
		o.ref, o.refRows, err = b.reference(ctx)
	}
	b.close()
	if err != nil {
		return nil, err
	}
	for _, p := range o.passes {
		o.attempted += len(p.cells)
		o.failed += countFailed(p, o.refRows)
	}
	if tr != nil {
		o.spans = tr.snapshot()
	}
	return o, nil
}

// timedPhase runs passes over the matrix until their summed wall time
// reaches d, calling between (when non-nil) after each pass, untimed. A
// traced bench alternates untraced and traced passes and runs at least
// three, so a traced pass and an untraced one after the first (warm-up)
// pass are always measured.
func (b *bench) timedPhase(ctx context.Context, d time.Duration, between func() error) ([]pass, error) {
	var passes []pass
	var timed time.Duration
	for n := 0; timed < d || (b.tr != nil && n < 3); n++ {
		p, err := b.runPass(ctx, n, b.tr != nil && n%2 == 1)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		timed += p.wall
		if between != nil {
			if err := between(); err != nil {
				return nil, err
			}
		}
	}
	return passes, nil
}

// setUpChild measures one set-up in a fresh process running this binary.
func setUpChild(ctx context.Context, cfg config) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, fmt.Errorf("set-up sample: %w", err)
	}
	cmd := exec.CommandContext(ctx, self, "-workload", cfg.workload, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-workdir", cfg.workdir, "-setup-only")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up sample: %w", err)
	}
	s, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
	if err != nil {
		return 0, fmt.Errorf("set-up sample: %w", err)
	}
	return s, nil
}
