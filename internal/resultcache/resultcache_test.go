package resultcache

import (
	"bytes"
	"context"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"testing"

	"safespec/internal/core"
	"safespec/internal/pipeline"
	"safespec/internal/sweep"
)

// countingExecutor counts how many jobs actually reach simulation.
type countingExecutor struct {
	executed atomic.Int64
	inner    sweep.Executor
}

func (c *countingExecutor) Execute(ctx context.Context, i int, j sweep.Job) (*core.Results, error) {
	c.executed.Add(1)
	return c.inner.Execute(ctx, i, j)
}

func smallJobs(t *testing.T) []sweep.Job {
	t.Helper()
	spec := sweep.Quick()
	spec.Benchmarks = []string{"exchange2", "mcf"}
	spec.Instructions = 2_000
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// TestColdWarmDeterminism is the cache acceptance property: a warm run
// simulates nothing and produces byte-identical sink output.
func TestColdWarmDeterminism(t *testing.T) {
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	jobs := smallJobs(t)
	runOnce := func() (string, int64) {
		counting := &countingExecutor{inner: sweep.LocalExecutor{}}
		var jsonl bytes.Buffer
		_, err := sweep.Run(context.Background(), jobs, sweep.Options{
			Executor: NewExecutor(cache, counting),
			Sinks:    []sweep.Sink{sweep.NewJSONL(&jsonl)},
		})
		if err != nil {
			t.Fatal(err)
		}
		return jsonl.String(), counting.executed.Load()
	}

	cold, coldExecs := runOnce()
	if coldExecs != int64(len(jobs)) {
		t.Fatalf("cold run executed %d of %d jobs", coldExecs, len(jobs))
	}
	warm, warmExecs := runOnce()
	if warmExecs != 0 {
		t.Fatalf("warm run executed %d jobs, want 0", warmExecs)
	}
	if cold != warm {
		t.Errorf("warm output differs from cold:\n%s\nvs\n%s", cold, warm)
	}
	s := cache.Stats()
	if s.Puts != uint64(len(jobs)) || s.Hits != uint64(len(jobs)) || s.Errors != 0 {
		t.Errorf("unexpected counters: %+v", s)
	}
}

// TestErrorsNotCached checks that failures are never stored: a failing cell
// re-executes on every run.
func TestErrorsNotCached(t *testing.T) {
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	jobs := []sweep.Job{{Bench: "no-such-bench", Mode: "baseline"}}
	for i := 0; i < 2; i++ {
		counting := &countingExecutor{inner: sweep.LocalExecutor{}}
		results, err := sweep.Run(context.Background(), jobs,
			sweep.Options{Executor: NewExecutor(cache, counting)})
		if err != nil {
			t.Fatal(err)
		}
		if results[0].Err == nil {
			t.Fatal("job should fail")
		}
		if counting.executed.Load() != 1 {
			t.Fatalf("run %d: executed %d, want 1 (errors must not be cached)", i, counting.executed.Load())
		}
	}
	if s := cache.Stats(); s.Puts != 0 {
		t.Errorf("a failure was stored: %+v", s)
	}
}

// TestCorruptEntryDegradesToMiss checks that a torn or garbage entry is
// re-simulated and surfaced in the Errors counter, never trusted.
func TestCorruptEntryDegradesToMiss(t *testing.T) {
	dir := t.TempDir()
	cache, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	jobs := smallJobs(t)[:1]
	if _, err := sweep.Run(context.Background(), jobs,
		sweep.Options{Executor: NewExecutor(cache, nil)}); err != nil {
		t.Fatal(err)
	}
	key, err := jobs[0].Hash()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cache.path(key), []byte("{ not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	counting := &countingExecutor{inner: sweep.LocalExecutor{}}
	results, err := sweep.Run(context.Background(), jobs,
		sweep.Options{Executor: NewExecutor(reopened, counting)})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil {
		t.Fatalf("corrupt cache must not fail the job: %v", results[0].Err)
	}
	if counting.executed.Load() != 1 {
		t.Errorf("corrupt entry not re-simulated")
	}
	if s := reopened.Stats(); s.Errors == 0 {
		t.Errorf("corruption not surfaced in counters: %+v", s)
	}
}

// TestKeyMismatchRejected guards the content-address invariant: an entry
// stored under the wrong name must not be served.
func TestKeyMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	cache, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	jobs := smallJobs(t)
	if _, err := sweep.Run(context.Background(), jobs[:1],
		sweep.Options{Executor: NewExecutor(cache, nil)}); err != nil {
		t.Fatal(err)
	}
	key0, _ := jobs[0].Hash()
	key1, _ := jobs[1].Hash()
	if err := os.MkdirAll(filepath.Dir(cache.path(key1)), 0o755); err != nil {
		t.Fatal(err)
	}
	b, _ := os.ReadFile(cache.path(key0))
	if err := os.WriteFile(cache.path(key1), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := cache.Get(key1); ok || err == nil {
		t.Errorf("mis-addressed entry served: ok=%v err=%v", ok, err)
	}
}

// TestVersionGate checks that a directory written by a different format
// version is refused instead of misread.
func TestVersionGate(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "VERSION"), []byte("999\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Error("format version mismatch must refuse to open")
	}
}

// TestSharedAcrossSeeds checks the content addressing across differently
// shaped matrices: the same (bench, mode, seed, config) cell hits no matter
// which sweep produced it.
func TestSharedAcrossSeeds(t *testing.T) {
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	single := sweep.MatrixSpec{Benchmarks: []string{"exchange2"}, Instructions: 2_000, Seeds: []int64{5}}
	fan := sweep.MatrixSpec{Benchmarks: []string{"exchange2"}, Instructions: 2_000, Seeds: []int64{4, 5, 6}}
	jobs1, err := single.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sweep.Run(context.Background(), jobs1,
		sweep.Options{Executor: NewExecutor(cache, nil)}); err != nil {
		t.Fatal(err)
	}
	jobs3, err := fan.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	counting := &countingExecutor{inner: sweep.LocalExecutor{}}
	if _, err := sweep.Run(context.Background(), jobs3,
		sweep.Options{Executor: NewExecutor(cache, counting)}); err != nil {
		t.Fatal(err)
	}
	// 3 modes x 3 seeds, of which 3 cells (seed 5, each mode) are cached.
	if got, want := counting.executed.Load(), int64(len(jobs3)-len(jobs1)); got != want {
		t.Errorf("fan run executed %d, want %d (seed-5 cells should hit)", got, want)
	}
}

// TestChecksumCatchesInBandDamage: a flipped byte inside a numeric result
// field still parses as valid JSON — only the entry checksum can catch it.
// Such an entry must error (degrading to a miss), never serve a wrong
// number into a sweep.
func TestChecksumCatchesInBandDamage(t *testing.T) {
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const key = "abcd1234"
	res := &core.Results{Stats: &pipeline.Stats{Committed: 1111, Cycles: 2222}}
	if err := cache.Put(key, res); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(cache.path(key))
	if err != nil {
		t.Fatal(err)
	}
	// Flip one digit of Committed: 1111 -> 1911. The envelope still parses.
	damaged := bytes.Replace(b, []byte("1111"), []byte("1911"), 1)
	if bytes.Equal(damaged, b) {
		t.Fatal("test setup: payload digits not found in entry")
	}
	if err := os.WriteFile(cache.path(key), damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := cache.Get(key); ok || err == nil {
		t.Fatalf("damaged entry served: ok=%v err=%v res=%+v", ok, err, got)
	}
	if s := cache.Stats(); s.Errors == 0 {
		t.Errorf("in-band damage not surfaced in counters: %+v", s)
	}
}

// TestSumlessEntryMiss: an entry without a checksum cannot be verified, so
// it is a corrupt-entry miss — counted as an error, then re-simulated —
// never a hit served unverified.
func TestSumlessEntryMiss(t *testing.T) {
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	jobs := smallJobs(t)[:1]
	key, err := jobs[0].Hash()
	if err != nil {
		t.Fatal(err)
	}
	sumless, err := json.Marshal(envelope{Version: FormatVersion, Key: key,
		Res: &core.Results{Stats: &pipeline.Stats{Committed: 42}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(cache.path(key)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cache.path(key), sumless, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := cache.Get(key); ok || err == nil {
		t.Fatalf("sumless entry served: ok=%v err=%v res=%+v", ok, err, got)
	}
	if s := cache.Stats(); s.Errors != 1 || s.Hits != 0 {
		t.Errorf("sumless entry not counted as a corrupt miss: %+v", s)
	}
	counting := &countingExecutor{inner: sweep.LocalExecutor{}}
	res, err := NewExecutor(cache, counting).Execute(context.Background(), 0, jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	if counting.executed.Load() != 1 || res.Committed == 42 {
		t.Errorf("sumless entry not re-simulated: %d executions, committed %d",
			counting.executed.Load(), res.Committed)
	}
}

// TestReadFaultSeam: the chaos hook corrupts bytes between disk and parse,
// and the checksum turns that into a counted miss; clearing the hook
// restores the hit.
func TestReadFaultSeam(t *testing.T) {
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const key = "0badf00d"
	if err := cache.Put(key, &core.Results{Stats: &pipeline.Stats{Committed: 9}}); err != nil {
		t.Fatal(err)
	}
	cache.SetReadFault(func(b []byte) []byte {
		c := append([]byte(nil), b...)
		// Damage the res section, not the envelope frame, so the JSON still
		// parses and only the checksum can object.
		if i := bytes.LastIndexByte(c, '9'); i >= 0 {
			c[i] = '7'
		}
		return c
	})
	if _, ok, err := cache.Get(key); ok || err == nil {
		t.Fatalf("corrupted read served: ok=%v err=%v", ok, err)
	}
	cache.SetReadFault(nil)
	got, ok, err := cache.Get(key)
	if err != nil || !ok || got.Committed != 9 {
		t.Fatalf("clean read after clearing the fault: ok=%v err=%v res=%+v", ok, err, got)
	}
}

// FuzzCacheEntry feeds arbitrary bytes through the read-fault seam in place
// of one stored entry. Get must never panic, and it may serve a hit only for
// an envelope whose version, key and checksum all match; such a result
// survives a Put/Get round trip byte for byte.
func FuzzCacheEntry(f *testing.F) {
	cache, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	clean, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	const key = "c0ffee42"
	if err := cache.Put(key, &core.Results{Stats: &pipeline.Stats{Committed: 1234, Cycles: 5678}}); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(cache.path(key))
	if err != nil {
		f.Fatal(err)
	}
	sumless, err := json.Marshal(envelope{Version: FormatVersion, Key: key,
		Res: &core.Results{Stats: &pipeline.Stats{Committed: 1234}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(sumless)
	f.Add([]byte{})
	for _, n := range []int{1, len(valid) / 2, len(valid) - 2} {
		f.Add(valid[:n])
	}
	for _, at := range []int{0, len(valid) / 3, len(valid) / 2, len(valid) - 3} {
		flipped := append([]byte(nil), valid...)
		flipped[at] ^= 0x04
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		cache.SetReadFault(func([]byte) []byte { return b })
		res, ok, err := cache.Get(key)
		if ok != (err == nil) {
			t.Fatalf("Get: ok=%v with err=%v", ok, err)
		}
		if !ok {
			return
		}
		var e envelope
		if err := json.Unmarshal(b, &e); err != nil {
			t.Fatalf("hit served from bytes that do not decode: %v", err)
		}
		if e.Version != FormatVersion || e.Key != key || e.Res == nil {
			t.Fatalf("hit served from a mismatched envelope: version %d, key %q", e.Version, e.Key)
		}
		enc, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if sum := strconv.FormatUint(uint64(crc32.ChecksumIEEE(enc)), 16); sum != e.Sum {
			t.Fatalf("hit served with checksum %q, result sums to %q", e.Sum, sum)
		}
		if err := clean.Put(key, res); err != nil {
			t.Fatal(err)
		}
		again, ok, err := clean.Get(key)
		if err != nil || !ok {
			t.Fatalf("round trip of a served hit: ok=%v err=%v", ok, err)
		}
		if enc2, _ := json.Marshal(again); !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip changed the result:\n%s\nvs\n%s", enc, enc2)
		}
	})
}
