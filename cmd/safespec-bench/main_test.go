package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"safespec/internal/grid"
)

// testOpts returns options writing tables to out and progress to io.Discard.
func testOpts(out io.Writer) options {
	return options{out: out, info: io.Discard}
}

func TestRunConfigOnly(t *testing.T) {
	o := testOpts(io.Discard)
	o.figs, o.instrs = "config", 1000
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

func TestRunSizingSubset(t *testing.T) {
	o := testOpts(io.Discard)
	o.figs, o.instrs, o.bench = "sizing", 3000, "exchange2,lbm"
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

func TestRunPerfSubset(t *testing.T) {
	o := testOpts(io.Discard)
	o.figs, o.instrs, o.bench, o.serial = "perf", 3000, "exchange2", true
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

func TestJSONRejectsNonSweepFigs(t *testing.T) {
	for _, figs := range []string{"security", "config", "all"} {
		o := testOpts(io.Discard)
		o.figs, o.json = figs, true
		if err := run(o); err == nil {
			t.Errorf("-json with -figs %s must error instead of printing nothing", figs)
		}
	}
}

func TestRunUnknownBenchmark(t *testing.T) {
	o := testOpts(io.Discard)
	o.figs, o.instrs, o.bench = "perf", 1000, "missing-bench"
	if err := run(o); err == nil {
		t.Error("unknown benchmark must error")
	}
}

// TestJSONDeterministicAcrossWorkers is the acceptance check: the -json
// rows of the quick preset are byte-identical for -workers 1 and -workers 8.
func TestJSONDeterministicAcrossWorkers(t *testing.T) {
	jsonOut := func(workers int) string {
		var buf bytes.Buffer
		o := testOpts(&buf)
		o.figs, o.json, o.quick, o.workers = "perf", true, true, workers
		o.bench = "exchange2,perlbench,mcf" // trim the quick matrix for test time
		o.instrs = 4000
		if err := run(o); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	one, eight := jsonOut(1), jsonOut(8)
	if one != eight {
		t.Errorf("-json output differs between -workers 1 and -workers 8:\n%q\nvs\n%q", one, eight)
	}
	if n := strings.Count(one, "\n"); n != 9 {
		t.Errorf("want 9 JSON rows (3 benches x 3 modes), got %d", n)
	}
	if !strings.Contains(one, `"bench":"exchange2"`) || !strings.Contains(one, `"mode":"wfc"`) {
		t.Errorf("JSON rows malformed: %s", one)
	}
	if strings.Contains(one, "===") {
		t.Error("-json must suppress the human tables")
	}
}

func TestQuickPreset(t *testing.T) {
	var buf bytes.Buffer
	o := testOpts(&buf)
	o.figs, o.quick = "perf", true
	o.bench = "exchange2"
	o.instrs = 2000
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "geomean") {
		t.Error("perf table missing geomean")
	}
}

// TestFlagValidation covers the new distributed/cache flag surface.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*options)
	}{
		{"remote and serve together", func(o *options) {
			o.figs, o.remote, o.serve = "perf", "http://127.0.0.1:9", ":9090"
		}},
		{"remote without sweep", func(o *options) { o.figs, o.remote = "security", "http://127.0.0.1:9" }},
		{"serve without sweep", func(o *options) { o.figs, o.serve = "security", ":9090" }},
		{"lease flags with external coordinator", func(o *options) {
			o.figs, o.remote, o.leaseTTL = "perf", "http://127.0.0.1:9", time.Minute
		}},
		{"lease flags without a coordinator", func(o *options) {
			o.figs, o.retries = "perf", 3
		}},
		{"cache without sweep", func(o *options) { o.figs, o.cacheDir = "config", "/tmp/x" }},
		{"bad seeds", func(o *options) { o.figs, o.seeds = "perf", "1,two" }},
		{"duplicate seeds", func(o *options) { o.figs, o.seeds = "perf", "3,3" }},
	}
	for _, tc := range cases {
		o := testOpts(io.Discard)
		o.instrs, o.bench = 1000, "exchange2"
		tc.mut(&o)
		if err := run(o); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
}

// TestCacheWarmRun drives the full binary path twice over one cache dir:
// the second run must produce byte-identical JSON rows and simulate
// nothing (misses=0 in the progress line).
func TestCacheWarmRun(t *testing.T) {
	dir := t.TempDir()
	runOnce := func() (string, string) {
		var out, info bytes.Buffer
		o := options{out: &out, info: &info}
		o.figs, o.json, o.cacheDir = "perf", true, dir
		o.bench, o.instrs = "exchange2,mcf", 2000
		if err := run(o); err != nil {
			t.Fatal(err)
		}
		return out.String(), info.String()
	}
	cold, coldInfo := runOnce()
	warm, warmInfo := runOnce()
	if cold != warm {
		t.Errorf("warm-cache rows differ from cold:\n%s\nvs\n%s", cold, warm)
	}
	if !strings.Contains(coldInfo, "hits=0") {
		t.Errorf("cold run should miss everything: %s", coldInfo)
	}
	if !strings.Contains(warmInfo, "misses=0") {
		t.Errorf("warm run simulated something: %s", warmInfo)
	}
}

// TestSeedFanFlag checks -seeds end to end: per-seed JSON rows plus the
// mean ± CI annotation on the perf table.
func TestSeedFanFlag(t *testing.T) {
	var rows bytes.Buffer
	o := testOpts(&rows)
	o.figs, o.json, o.seeds = "perf", true, "1,2"
	o.bench, o.instrs = "exchange2", 2000
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(rows.String(), "\n"); n != 6 { // 1 bench x 3 modes x 2 seeds
		t.Errorf("want 6 rows, got %d:\n%s", n, rows.String())
	}
	var table bytes.Buffer
	o = testOpts(&table)
	o.figs, o.seeds = "perf", "1,2"
	o.bench, o.instrs = "exchange2", 2000
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table.String(), "n=2, ipc ±") {
		t.Errorf("perf table missing seed-fan CI annotation:\n%s", table.String())
	}
}

// TestServeEndToEnd drives run() in -serve mode (the in-process degenerate
// coordinator) with a bearer token and two in-process grid workers attached
// to the ephemeral coordinator, and checks the JSON rows are byte-identical
// to a local run — the distributed acceptance property at the binary level.
func TestServeEndToEnd(t *testing.T) {
	const token = "bench-test-token"
	localRows := func() string {
		var buf bytes.Buffer
		o := testOpts(&buf)
		o.figs, o.json = "perf", true
		o.bench, o.instrs = "exchange2,mcf", 2000
		if err := run(o); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}()

	// The coordinator address is ephemeral; scrape it from the progress
	// stream and attach workers as soon as it is announced.
	infoR, infoW := io.Pipe()
	workerCtx, stopWorkers := context.WithCancel(context.Background())
	defer stopWorkers()
	go func() {
		sc := bufio.NewScanner(infoR)
		for sc.Scan() {
			line := sc.Text()
			_, addr, ok := strings.Cut(line, "listening on ")
			if !ok {
				continue
			}
			addr = strings.Fields(addr)[0]
			for i := 0; i < 2; i++ {
				w := &grid.Worker{Coordinator: addr, Token: token,
					ID: fmt.Sprintf("t%d", i), Parallel: 2, Poll: 5 * time.Millisecond}
				go w.Run(workerCtx)
			}
		}
	}()

	var buf bytes.Buffer
	o := options{out: &buf, info: infoW}
	o.figs, o.json = "perf", true
	o.serve, o.token = "127.0.0.1:0", token
	o.bench, o.instrs = "exchange2,mcf", 2000
	err := run(o)
	infoW.Close()
	if err != nil {
		t.Fatal(err)
	}
	if buf.String() != localRows {
		t.Errorf("-serve rows differ from local:\n%s\nvs\n%s", buf.String(), localRows)
	}
}

func TestCacheGCFlagValidation(t *testing.T) {
	o := testOpts(io.Discard)
	o.cacheGC = "10M"
	if err := run(o); err == nil || !strings.Contains(err.Error(), "-cache-dir") {
		t.Errorf("-cache-gc without -cache-dir accepted (err=%v)", err)
	}

	o = testOpts(io.Discard)
	o.figs = "none"
	o.cacheDir = t.TempDir()
	o.cacheGC = "not-a-size"
	if err := run(o); err == nil {
		t.Error("malformed -cache-gc size accepted")
	}
}

func TestCacheGCStandalonePrunes(t *testing.T) {
	dir := t.TempDir()
	// Warm a tiny cache.
	o := testOpts(io.Discard)
	o.figs, o.instrs, o.bench, o.serial = "perf", 1000, "exchange2", true
	o.cacheDir = dir
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	// Standalone GC to zero evicts everything but keeps the cache usable.
	o = testOpts(io.Discard)
	o.figs = "none"
	o.cacheDir, o.cacheGC = dir, "0"
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("%d cache entries survived a zero-budget GC", len(entries))
	}
	if _, err := os.Stat(filepath.Join(dir, "VERSION")); err != nil {
		t.Errorf("VERSION marker lost: %v", err)
	}
}

func TestParseBytes(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64
		err  bool
	}{
		{"0", 0, false}, {"123", 123, false}, {"4K", 4096, false},
		{"2M", 2 << 20, false}, {"1G", 1 << 30, false}, {"1g", 1 << 30, false},
		{"", 0, true}, {"-5", 0, true}, {"x", 0, true}, {"5T", 0, true},
	} {
		got, err := parseBytes(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Errorf("parseBytes(%q) = %d, %v; want %d, err=%v", tc.in, got, err, tc.want, tc.err)
		}
	}
}
