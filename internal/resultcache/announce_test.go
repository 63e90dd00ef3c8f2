package resultcache

import (
	"bytes"
	"context"
	"os"
	"reflect"
	"sync"
	"testing"

	"safespec/internal/core"
	"safespec/internal/sweep"
)

// recordingSubmitter is an inner executor that takes a matrix
// announcement, as the grid client does: it records every announcement and
// the index each Execute ran at, and simulates in-process.
type recordingSubmitter struct {
	mu        sync.Mutex
	announced [][]sweep.Job
	ran       map[int]sweep.Job
}

func (r *recordingSubmitter) Submit(_ context.Context, jobs []sweep.Job) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.announced = append(r.announced, jobs)
	return nil
}

func (r *recordingSubmitter) Execute(ctx context.Context, i int, j sweep.Job) (*core.Results, error) {
	r.mu.Lock()
	if r.ran == nil {
		r.ran = make(map[int]sweep.Job)
	}
	r.ran[i] = j
	r.mu.Unlock()
	return sweep.LocalExecutor{}.Execute(ctx, i, j)
}

// warmCache opens a fresh cache holding the results of jobs at the given
// indexes.
func warmCache(t *testing.T, jobs []sweep.Job, indexes ...int) *Cache {
	t.Helper()
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range indexes {
		key, err := jobs[i].Hash()
		if err != nil {
			t.Fatal(err)
		}
		res, err := sweep.LocalExecutor{}.Execute(context.Background(), i, jobs[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := cache.Put(key, res); err != nil {
			t.Fatal(err)
		}
	}
	return cache
}

// runRows runs jobs through exec and returns the JSONL rows.
func runRows(t *testing.T, jobs []sweep.Job, exec sweep.Executor) string {
	t.Helper()
	var rows bytes.Buffer
	if _, err := sweep.Run(context.Background(), jobs, sweep.Options{
		Executor: exec,
		Sinks:    []sweep.Sink{sweep.NewJSONL(&rows)},
	}); err != nil {
		t.Fatal(err)
	}
	return rows.String()
}

// TestSubmitAnnouncesMisses: behind a half-warm cache, the inner Submitter
// is announced exactly the misses, in matrix order, and runs each at its
// dense index; the kept hits never reach it, and the rows match a local run.
func TestSubmitAnnouncesMisses(t *testing.T) {
	jobs := smallJobs(t)
	cache := warmCache(t, jobs, 0, 2, 4)
	rec := &recordingSubmitter{}
	rows := runRows(t, jobs, NewExecutor(cache, rec))

	if local := runRows(t, jobs, nil); rows != local {
		t.Errorf("rows differ from local:\n%s\nvs\n%s", rows, local)
	}
	misses := []sweep.Job{jobs[1], jobs[3], jobs[5]}
	if !reflect.DeepEqual(rec.announced, [][]sweep.Job{misses}) {
		t.Errorf("inner announcements %v, want one of the %d misses", rec.announced, len(misses))
	}
	if want := map[int]sweep.Job{0: misses[0], 1: misses[1], 2: misses[2]}; !reflect.DeepEqual(rec.ran, want) {
		t.Errorf("inner ran %v, want the misses at dense indexes 0..2", rec.ran)
	}
	if s := cache.Stats(); s.Hits != 3 || s.Misses != 3 || s.Puts != 3+3 || s.Errors != 0 {
		t.Errorf("counters %+v, want 3 hits, 3 misses, 3 prefilled + 3 stored puts", s)
	}
}

// TestSubmitAllHits: a fully warm cache announces nothing to the inner
// executor and runs nothing on it.
func TestSubmitAllHits(t *testing.T) {
	jobs := smallJobs(t)
	cache := warmCache(t, jobs, 0, 1, 2, 3, 4, 5)
	rec := &recordingSubmitter{}
	runRows(t, jobs, NewExecutor(cache, rec))
	if len(rec.announced) != 0 || len(rec.ran) != 0 {
		t.Errorf("all-hit sweep reached the inner executor: announced %v, ran %v", rec.announced, rec.ran)
	}
}

// TestUnannouncedIndexPassesThrough: an Execute for an index the
// announcement did not carry (a grid worker never announces) is looked up
// and run at its own index, exactly as without an announcement.
func TestUnannouncedIndexPassesThrough(t *testing.T) {
	jobs := smallJobs(t)
	cache := warmCache(t, jobs)
	rec := &recordingSubmitter{}
	exec := NewExecutor(cache, rec)
	ctx := context.Background()
	if err := exec.Submit(ctx, jobs[:2]); err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Execute(ctx, 5, jobs[5]); err != nil {
		t.Fatal(err)
	}
	if want := map[int]sweep.Job{5: jobs[5]}; !reflect.DeepEqual(rec.ran, want) {
		t.Errorf("inner ran %v, want index 5 at its own index", rec.ran)
	}
	if s := cache.Stats(); s.Misses != 3 || s.Puts != 1 {
		t.Errorf("counters %+v, want 2 announced misses + 1 pass-through miss, 1 put", s)
	}
}

// TestSubmitWithoutInnerSubmitter: over an inner executor that takes no
// announcement, Submit looks nothing up; each Execute does, as before.
func TestSubmitWithoutInnerSubmitter(t *testing.T) {
	jobs := smallJobs(t)
	cache := warmCache(t, jobs, 0)
	counting := &countingExecutor{inner: sweep.LocalExecutor{}}
	exec := NewExecutor(cache, counting)
	if err := exec.Submit(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if s := cache.Stats(); s.Hits != 0 || s.Misses != 0 || s.Errors != 0 {
		t.Errorf("Submit over a non-Submitter looked entries up: %+v", s)
	}
	runRows(t, jobs, exec)
	if got := counting.executed.Load(); got != int64(len(jobs)-1) {
		t.Errorf("executed %d jobs, want %d", got, len(jobs)-1)
	}
}

// TestAnnouncedCountersMatch: hits, misses, puts and errors after an
// announced run equal those of the same run with the announcement hidden,
// a corrupt entry included.
func TestAnnouncedCountersMatch(t *testing.T) {
	jobs := smallJobs(t)
	run := func(hide bool) Stats {
		cache := warmCache(t, jobs, 0, 2, 3)
		key, err := jobs[3].Hash()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cache.path(key), []byte("{ not json"), 0o644); err != nil {
			t.Fatal(err)
		}
		var exec sweep.Executor = NewExecutor(cache, &recordingSubmitter{})
		if hide {
			exec = struct{ sweep.Executor }{exec}
		}
		runRows(t, jobs, exec)
		return cache.Stats()
	}
	announced, hidden := run(false), run(true)
	if announced != hidden {
		t.Errorf("announced run counters %+v, hidden-announcement run %+v", announced, hidden)
	}
	// Puts: 3 prefilled, then the 3 misses and the corrupt entry stored.
	if want := (Stats{Hits: 2, Misses: 3, Puts: 3 + 4, Errors: 1}); announced != want {
		t.Errorf("counters %+v, want %+v", announced, want)
	}
}
