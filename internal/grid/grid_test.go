package grid

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"maps"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"safespec/internal/core"
	"safespec/internal/resultcache"
	"safespec/internal/sweep"
)

func smallJobs(t testing.TB, benches ...string) []sweep.Job {
	t.Helper()
	if len(benches) == 0 {
		benches = []string{"exchange2", "mcf"}
	}
	spec := sweep.Quick()
	spec.Benchmarks = benches
	spec.Instructions = 2_000
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// startWorkers runs n in-process workers against url and returns a stop
// function that cancels and joins them.
func startWorkers(t testing.TB, url string, n int) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w := &Worker{
			Coordinator: url,
			ID:          "w" + string(rune('0'+i)),
			Parallel:    2,
			Poll:        5 * time.Millisecond,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	return func() {
		cancel()
		wg.Wait()
	}
}

// doJSON sends one request through the grid client and returns its HTTP
// status. The error covers transport and decoding failures only, so a test
// can assert on any status, 401, 429 and 5xx included.
func doJSON(ctx context.Context, hc *http.Client, method, url, token string, in, out any) (int, error) {
	status, err := client{token: token, http: hc}.do(ctx, method, url, in, out)
	if status >= 400 {
		err = nil
	}
	return status, err
}

// routeCounter is an http.RoundTripper that counts requests per route, with
// the sweep id elided ("GET /v1/sweeps/{id}/results").
type routeCounter struct {
	mu sync.Mutex
	n  map[string]int
}

func (c *routeCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	route := req.URL.Path
	if rest, ok := strings.CutPrefix(route, "/v1/sweeps/"); ok {
		route = "/v1/sweeps/{id}"
		if _, sub, ok := strings.Cut(rest, "/"); ok {
			route += "/" + sub
		}
	}
	c.mu.Lock()
	if c.n == nil {
		c.n = make(map[string]int)
	}
	c.n[req.Method+" "+route]++
	c.mu.Unlock()
	return http.DefaultTransport.RoundTrip(req)
}

func (c *routeCounter) snapshot() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return maps.Clone(c.n)
}

// halfWarmCache opens a result cache holding the results of the jobs at
// even indexes, so a sweep through it sends only the odd ones to the grid.
func halfWarmCache(t testing.TB, jobs []sweep.Job) *resultcache.Cache {
	t.Helper()
	cache, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(jobs); i += 2 {
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

// startGrid serves a fresh Server on a loopback listener and returns it
// with a RemoteExecutor pointed at it; both are torn down with the test.
func startGrid(t testing.TB, opts ServerOptions) (*Server, *httptest.Server, *RemoteExecutor) {
	t.Helper()
	server := NewServer(opts)
	srv := httptest.NewServer(server.Handler())
	re := &RemoteExecutor{URL: srv.URL, Token: opts.Token, PollWait: 200 * time.Millisecond}
	t.Cleanup(func() {
		re.Close()
		srv.Close()
	})
	return server, srv, re
}

// TestGridEndToEnd is the acceptance property: a sweep executed by two
// worker processes over HTTP produces byte-identical JSONL output and
// identical aggregate accounting to a local run.
func TestGridEndToEnd(t *testing.T) {
	jobs := smallJobs(t)

	runWith := func(exec sweep.Executor, workers int) (string, sweep.Aggregate) {
		var jsonl bytes.Buffer
		var agg sweep.Aggregate
		_, err := sweep.Run(context.Background(), jobs, sweep.Options{
			Workers:  workers,
			Executor: exec,
			Sinks:    []sweep.Sink{sweep.NewJSONL(&jsonl), &agg},
		})
		if err != nil {
			t.Fatal(err)
		}
		return jsonl.String(), agg
	}

	local, localAgg := runWith(nil, 0)

	server, srv, re := startGrid(t, ServerOptions{})
	stop := startWorkers(t, srv.URL, 2)
	defer stop()

	remote, remoteAgg := runWith(re, len(jobs))

	if local != remote {
		t.Errorf("distributed sink output differs from local:\n%s\nvs\n%s", local, remote)
	}
	if localAgg.Jobs != remoteAgg.Jobs || localAgg.Errored != remoteAgg.Errored ||
		localAgg.Committed != remoteAgg.Committed || localAgg.Cycles != remoteAgg.Cycles {
		t.Errorf("aggregate accounting differs: local %+v vs remote %+v", localAgg, remoteAgg)
	}
	// Busy time is the workers' cache, simulate and report spans, not the
	// wall time Execute spent waiting on the coordinator queue.
	sp := remoteAgg.Spans
	if remoteAgg.Timed != len(jobs) || remoteAgg.Busy != time.Duration(sp.CacheNS+sp.SimulateNS+sp.ReportNS) {
		t.Errorf("remote busy %v over %d/%d timed jobs, want the span sum (%s)", remoteAgg.Busy, remoteAgg.Timed, len(jobs), sp)
	}
	s := server.Stats()
	if s.Completed != uint64(len(jobs)) || s.Pending != 0 || s.Leased != 0 {
		t.Errorf("coordinator accounting off: %+v", s)
	}
}

// TestGridJobErrorTravels checks that a job failure on a worker comes back
// as that job's error with its cause intact — the same row a local run
// produces — without aborting the sweep.
func TestGridJobErrorTravels(t *testing.T) {
	jobs := smallJobs(t, "exchange2")
	jobs = append(jobs, sweep.Job{Bench: "no-such-bench", Mode: "baseline"})

	_, srv, re := startGrid(t, ServerOptions{})
	stop := startWorkers(t, srv.URL, 1)
	defer stop()

	var local, remote bytes.Buffer
	if _, err := sweep.Run(context.Background(), jobs,
		sweep.Options{Sinks: []sweep.Sink{sweep.NewJSONL(&local)}}); err != nil {
		t.Fatal(err)
	}
	results, err := sweep.Run(context.Background(), jobs, sweep.Options{
		Workers: len(jobs), Executor: re,
		Sinks: []sweep.Sink{sweep.NewJSONL(&remote)},
	})
	if err != nil {
		t.Fatal(err)
	}
	bad := results[len(results)-1]
	if bad.Err == nil || !strings.Contains(bad.Err.Error(), "unknown benchmark") {
		t.Fatalf("error cause lost on the wire: %v", bad.Err)
	}
	if local.String() != remote.String() {
		t.Errorf("error rows differ:\n%s\nvs\n%s", local.String(), remote.String())
	}
}

// leaseOne acts as a crashing worker: it takes one lease over raw HTTP and
// never reports a result. An empty queue (204) is polled until a job
// arrives, so it may race a sweep submission still in flight.
func leaseOne(t *testing.T, url string) LeaseResponse {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		body, _ := json.Marshal(LeaseRequest{Worker: "crasher"})
		resp, err := http.Post(url+"/v1/lease", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusNoContent && time.Now().Before(deadline) {
			resp.Body.Close()
			time.Sleep(time.Millisecond)
			continue
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("lease status %d", resp.StatusCode)
		}
		var lr LeaseResponse
		if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
			t.Fatal(err)
		}
		return lr
	}
}

// TestLeaseLostRequeues is the worker-crash path: a lease that never
// completes expires and the job is handed to a live worker, invisibly to
// the sweep.
func TestLeaseLostRequeues(t *testing.T) {
	jobs := smallJobs(t, "exchange2")[:1]

	server, srv, re := startGrid(t, ServerOptions{Lease: Options{LeaseTTL: 50 * time.Millisecond}})

	done := make(chan []sweep.Result, 1)
	go func() {
		results, err := sweep.Run(context.Background(), jobs, sweep.Options{Executor: re})
		if err != nil {
			t.Error(err)
		}
		done <- results
	}()

	// The crasher steals the job, then a healthy worker joins: it must get
	// the job after the TTL and finish the sweep.
	lease := leaseOne(t, srv.URL)
	if lease.Job.Bench != "exchange2" {
		t.Fatalf("unexpected job %v", lease.Job)
	}
	stop := startWorkers(t, srv.URL, 1)
	defer stop()

	select {
	case results := <-done:
		if results[0].Err != nil {
			t.Fatalf("job failed after requeue: %v", results[0].Err)
		}
		if results[0].Res == nil || results[0].Res.Committed == 0 {
			t.Fatal("no simulation result after requeue")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("requeued job never completed")
	}
	if s := server.Stats(); s.Requeued == 0 {
		t.Errorf("lease loss not accounted: %+v", s)
	}
	// The crasher's stale lease must be rejected if it reports now (with a
	// well-formed payload, so the lease check — not validation — rejects it).
	body, _ := json.Marshal(ResultRequest{LeaseID: lease.LeaseID,
		Result: sweep.Result{Index: 0, Job: lease.Job, Err: errors.New("late crasher")}})
	resp, err := http.Post(srv.URL+"/v1/result", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("stale lease accepted with status %d", resp.StatusCode)
	}
}

// TestLeaseExhaustionFailsJob bounds the retry loop: a job whose leases
// keep vanishing becomes an error result instead of stalling the sweep
// forever.
func TestLeaseExhaustionFailsJob(t *testing.T) {
	jobs := smallJobs(t, "exchange2")[:1]
	server, srv, re := startGrid(t, ServerOptions{Lease: Options{LeaseTTL: time.Millisecond, MaxAttempts: 2}})

	done := make(chan []sweep.Result, 1)
	go func() {
		results, err := sweep.Run(context.Background(), jobs, sweep.Options{Executor: re})
		if err != nil {
			t.Error(err)
		}
		done <- results
	}()

	// Keep stealing leases without ever reporting until the coordinator
	// gives up on the job.
	deadline := time.After(30 * time.Second)
	for {
		select {
		case results := <-done:
			if results[0].Err == nil || !strings.Contains(results[0].Err.Error(), "lease lost") {
				t.Fatalf("want lease-exhaustion error, got %v", results[0].Err)
			}
			if s := server.Stats(); s.Failed != 1 {
				t.Errorf("failure not accounted: %+v", s)
			}
			return
		case <-deadline:
			t.Fatal("exhaustion never reported")
		default:
		}
		body, _ := json.Marshal(LeaseRequest{Worker: "thief"})
		resp, err := http.Post(srv.URL+"/v1/lease", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		time.Sleep(2 * time.Millisecond)
	}
}

// TestExecuteCancellation checks that a cancelled sweep abandons its queued
// jobs: Execute returns the context error, closing the executor withdraws
// the job from the server, and a worker reporting the abandoned lease is
// turned away.
func TestExecuteCancellation(t *testing.T) {
	server, srv, re := startGrid(t, ServerOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	job := sweep.Job{Bench: "exchange2", Mode: "baseline", Config: core.Baseline()}
	if err := re.Submit(ctx, []sweep.Job{job}); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := re.Execute(ctx, 0, job)
		errc <- err
	}()
	lease := leaseOne(t, srv.URL)
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	if s := server.Stats(); s.Pending != 0 || s.Leased != 0 {
		t.Errorf("abandoned job still tracked: %+v", s)
	}
	status, err := doJSON(context.Background(), srv.Client(), http.MethodPost, srv.URL+"/v1/result", "",
		ResultRequest{LeaseID: lease.LeaseID, Result: sweep.Result{Index: 0, Job: lease.Job, Err: errors.New("late")}}, nil)
	if err != nil || status != http.StatusConflict {
		t.Errorf("abandoned lease report: status %d, err %v; want 409", status, err)
	}
}

// TestEmptyResultRejected guards the coordinator against a worker that
// reports neither a payload nor an error: accepting it would surface as a
// nil dereference in the sinks.
func TestEmptyResultRejected(t *testing.T) {
	jobs := smallJobs(t, "exchange2")[:1]
	server, srv, re := startGrid(t, ServerOptions{})

	done := make(chan []sweep.Result, 1)
	go func() {
		results, err := sweep.Run(context.Background(), jobs, sweep.Options{Executor: re})
		if err != nil {
			t.Error(err)
		}
		done <- results
	}()
	lease := leaseOne(t, srv.URL)
	body, _ := json.Marshal(ResultRequest{LeaseID: lease.LeaseID, Result: sweep.Result{Index: lease.Index, Job: lease.Job}})
	resp, err := http.Post(srv.URL+"/v1/result", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty result accepted with status %d", resp.StatusCode)
	}
	// The lease stays live; a healthy worker completes the job normally.
	stop := startWorkers(t, srv.URL, 1)
	defer stop()
	server.coord.mu.Lock()
	if t2, ok := server.coord.leases[lease.LeaseID]; ok {
		t2.deadline = time.Now() // hand it over immediately
	}
	server.coord.mu.Unlock()
	select {
	case results := <-done:
		if results[0].Err != nil || results[0].Res == nil {
			t.Fatalf("job did not recover: %+v", results[0])
		}
	case <-time.After(30 * time.Second):
		t.Fatal("job never completed after rejected empty result")
	}
}
