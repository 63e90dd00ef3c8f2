package grid

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"safespec/internal/chaos"
	"safespec/internal/core"
	"safespec/internal/pipeline"
	"safespec/internal/sweep"
)

// poisonSeed searches for an injector seed that assigns the panic fault to
// exactly one job in the matrix, and returns that seed and the poisoned
// job's index. The search is deterministic: the same matrix always picks
// the same seed.
func poisonSeed(t *testing.T, jobs []sweep.Job, cfg chaos.JobFaults) (int64, int) {
	t.Helper()
	for seed := int64(1); seed < 10_000; seed++ {
		cfg.Seed = seed
		ji := chaos.NewJobInjector(cfg)
		hit, count := -1, 0
		for i, j := range jobs {
			if ji.Classify(j) != chaos.JobFaultNone {
				hit = i
				count++
			}
		}
		if count == 1 {
			return seed, hit
		}
	}
	t.Fatal("no seed poisons exactly one job")
	return 0, 0
}

// localJSONL runs the jobs in-process and returns the JSONL lines — the
// byte-identity reference for the fleet runs below.
func localJSONL(t *testing.T, jobs []sweep.Job) []string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := sweep.Run(context.Background(), jobs, sweep.Options{
		Sinks: []sweep.Sink{sweep.NewJSONL(&buf)},
	}); err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
}

// runFleetSweep drives a sweep through a Server with the given workers and
// returns the results plus the remote JSONL lines.
func runFleetSweep(t *testing.T, srvURL string, jobs []sweep.Job) ([]sweep.Result, []string) {
	t.Helper()
	re := &RemoteExecutor{URL: srvURL, PollWait: 100 * time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var buf bytes.Buffer
	results, err := sweep.Run(ctx, jobs, sweep.Options{
		Workers:  len(jobs),
		Executor: re,
		Sinks:    []sweep.Sink{sweep.NewJSONL(&buf)},
	})
	if err != nil {
		t.Fatalf("fleet sweep: %v", err)
	}
	_ = re.Close()
	return results, strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
}

// faultyWorker starts one worker whose executor is wrapped by the given
// job-fault injector; stop cancels it and reports whether Run exited clean.
func faultyWorker(t *testing.T, url, id string, parallel int, exec sweep.Executor, tune func(*Worker)) (stop func()) {
	t.Helper()
	w := &Worker{
		Coordinator: url,
		ID:          id,
		Parallel:    parallel,
		Poll:        5 * time.Millisecond,
		Exec:        exec,
	}
	if tune != nil {
		tune(w)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	return func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("worker %s exited with error: %v", id, err)
		}
	}
}

// TestPoisonJobQuarantine is the self-healing acceptance property: a job
// that deterministically panics on every worker that leases it must not
// kill either worker in a two-worker fleet. The sweep completes, the
// poison job becomes exactly one quarantined error row, and every other
// row is byte-identical to a local run.
func TestPoisonJobQuarantine(t *testing.T) {
	if testing.Short() {
		t.Skip("poison e2e runs a full fleet sweep")
	}
	jobs := smallJobs(t)
	local := localJSONL(t, jobs)
	seed, poisonIdx := poisonSeed(t, jobs, chaos.JobFaults{Panic: 0.1})

	server := NewServer(ServerOptions{Lease: Options{
		LeaseTTL: 5 * time.Second, MaxAttempts: 10, QuarantineAfter: 2,
	}})
	srv := httptest.NewServer(server.Handler())
	defer srv.Close()

	// Both workers share the fault assignment (same seed): the poison job
	// panics wherever it lands — the shape of a real poison job.
	var stops []func()
	for _, id := range []string{"pa", "pb"} {
		ji := chaos.NewJobInjector(chaos.JobFaults{Seed: seed, Panic: 0.1})
		stops = append(stops, faultyWorker(t, srv.URL, id, 2, ji.WrapExecutor(sweep.LocalExecutor{}), nil))
	}
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()

	results, remote := runFleetSweep(t, srv.URL, jobs)
	if len(results) != len(jobs) {
		t.Fatalf("%d results for %d jobs", len(results), len(jobs))
	}
	seen := make(map[int]bool)
	for _, res := range results {
		if seen[res.Index] {
			t.Errorf("cell %d delivered twice", res.Index)
		}
		seen[res.Index] = true
		switch {
		case res.Index == poisonIdx:
			if res.Err == nil {
				t.Errorf("poison job %d completed without error", res.Index)
			} else if !strings.Contains(res.Err.Error(), "quarantined as poison") {
				t.Errorf("poison job error %q lacks quarantine marker", res.Err)
			}
		case res.Err != nil:
			t.Errorf("healthy cell %d errored: %v", res.Index, res.Err)
		}
	}

	if len(remote) != len(local) {
		t.Fatalf("%d remote lines vs %d local", len(remote), len(local))
	}
	for i := range local {
		if i == poisonIdx {
			if !strings.Contains(remote[i], "quarantined as poison") {
				t.Errorf("poison row %d = %q, want a quarantine error row", i, remote[i])
			}
			continue
		}
		if remote[i] != local[i] {
			t.Errorf("row %d diverged from local:\n%s\nvs\n%s", i, remote[i], local[i])
		}
	}

	snap := server.Stats()
	if snap.Quarantined != 1 {
		t.Errorf("quarantined = %d, want 1", snap.Quarantined)
	}
	if snap.Incidents < 2 {
		t.Errorf("incidents = %d, want >= 2 (distinct workers)", snap.Incidents)
	}
	if len(snap.Workers) != 2 {
		t.Errorf("worker registry has %d entries, want 2: %+v", len(snap.Workers), snap.Workers)
	}
}

// TestWorkerSlotContainment is the -parallel N survival bugfix: when one
// slot's job panics, the sibling slots (and the worker process) keep
// working. A single two-slot worker drains the whole matrix around the
// poison job, which quarantines on the first incident (QuarantineAfter 1
// — there is no second worker to corroborate).
func TestWorkerSlotContainment(t *testing.T) {
	if testing.Short() {
		t.Skip("containment e2e runs a full sweep")
	}
	jobs := smallJobs(t, "exchange2")
	local := localJSONL(t, jobs)
	seed, poisonIdx := poisonSeed(t, jobs, chaos.JobFaults{Panic: 0.2})

	server := NewServer(ServerOptions{Lease: Options{
		LeaseTTL: 5 * time.Second, MaxAttempts: 10, QuarantineAfter: 1,
	}})
	srv := httptest.NewServer(server.Handler())
	defer srv.Close()

	ji := chaos.NewJobInjector(chaos.JobFaults{Seed: seed, Panic: 0.2})
	stop := faultyWorker(t, srv.URL, "solo", 2, ji.WrapExecutor(sweep.LocalExecutor{}), nil)
	defer stop()

	results, remote := runFleetSweep(t, srv.URL, jobs)
	for _, res := range results {
		if res.Index != poisonIdx && res.Err != nil {
			t.Errorf("surviving cell %d errored: %v", res.Index, res.Err)
		}
	}
	for i := range local {
		if i != poisonIdx && remote[i] != local[i] {
			t.Errorf("row %d diverged from local", i)
		}
	}
	if st := ji.JobStats(); st.Panics == 0 {
		t.Error("injector never panicked — containment untested")
	}
	snap := server.Stats()
	if snap.Quarantined != 1 {
		t.Errorf("quarantined = %d, want 1", snap.Quarantined)
	}
	if len(snap.Workers) != 1 || snap.Workers[0].Incidents == 0 {
		t.Errorf("worker registry %+v, want one entry with incidents", snap.Workers)
	}
}

// TestHedgedTailLease: a worker that stalls on every job it leases holds
// the sweep's tail hostage until the coordinator hedges its lease to the
// healthy worker. The output must stay byte-identical to a local run —
// the loser's late report is suppressed by the stale-lease 409 path.
func TestHedgedTailLease(t *testing.T) {
	if testing.Short() {
		t.Skip("hedge e2e waits out injected stalls")
	}
	jobs := smallJobs(t, "exchange2")
	local := localJSONL(t, jobs)

	server := NewServer(ServerOptions{Lease: Options{
		LeaseTTL: 30 * time.Second, MaxAttempts: 10,
		HedgeAfter: 150 * time.Millisecond,
	}})
	srv := httptest.NewServer(server.Handler())
	defer srv.Close()

	// Worker "slow" stalls 5s before every job; worker "fast" is clean
	// and drains the queue, then hedges slow's stuck lease. The submission
	// and the slow worker start first, and fast joins only once slow holds
	// a lease — otherwise fast can drain the whole matrix before slow ever
	// polls and there is no tail to hedge.
	slowJI := chaos.NewJobInjector(chaos.JobFaults{Seed: 1, Stall: 1, StallFor: 5 * time.Second})
	stopSlow := faultyWorker(t, srv.URL, "slow", 1, slowJI.WrapExecutor(sweep.LocalExecutor{}), nil)
	defer stopSlow()

	type fleetOut struct {
		results []sweep.Result
		remote  []string
	}
	ch := make(chan fleetOut, 1)
	go func() {
		results, remote := runFleetSweep(t, srv.URL, jobs)
		ch <- fleetOut{results, remote}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for server.Stats().Leased == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow worker never leased a job")
		}
		time.Sleep(5 * time.Millisecond)
	}
	stopFast := faultyWorker(t, srv.URL, "fast", 2, sweep.LocalExecutor{}, nil)
	defer stopFast()

	out := <-ch
	results, remote := out.results, out.remote
	seen := make(map[int]bool)
	for _, res := range results {
		if res.Err != nil {
			t.Errorf("cell %d errored under hedging: %v", res.Index, res.Err)
		}
		if seen[res.Index] {
			t.Errorf("cell %d delivered twice", res.Index)
		}
		seen[res.Index] = true
	}
	if strings.Join(remote, "\n") != strings.Join(local, "\n") {
		t.Errorf("hedged run diverged from local:\n%s\nvs\n%s",
			strings.Join(remote, "\n"), strings.Join(local, "\n"))
	}
	snap := server.Stats()
	if snap.Hedged == 0 {
		t.Error("no lease was hedged — the tail drained through the stalled worker")
	}
	if st := slowJI.JobStats(); st.Stalls == 0 {
		t.Error("slow worker never stalled — hedge untested")
	}
}

// TestIncidentTimeoutWatchdog: a job stalling past the slot watchdog (90%
// of the lease TTL) is contained as a timeout incident and, with
// QuarantineAfter 1, quarantined into a deterministic error row naming
// the watchdog.
func TestIncidentTimeoutWatchdog(t *testing.T) {
	if testing.Short() {
		t.Skip("watchdog e2e waits out a stall")
	}
	jobs := smallJobs(t, "exchange2")[:1]
	server := NewServer(ServerOptions{Lease: Options{
		LeaseTTL: 500 * time.Millisecond, MaxAttempts: 5,
		QuarantineAfter: 1, HedgeAfter: -1,
	}})
	srv := httptest.NewServer(server.Handler())
	defer srv.Close()

	ji := chaos.NewJobInjector(chaos.JobFaults{Seed: 1, Stall: 1, StallFor: 2 * time.Second})
	stop := faultyWorker(t, srv.URL, "stuck", 1, ji.WrapExecutor(sweep.LocalExecutor{}), nil)
	defer stop()

	results, _ := runFleetSweep(t, srv.URL, jobs)
	if len(results) != 1 || results[0].Err == nil {
		t.Fatalf("want one error row, got %+v", results)
	}
	msg := results[0].Err.Error()
	if !strings.Contains(msg, "quarantined as poison after timeout") || !strings.Contains(msg, "slot watchdog") {
		t.Errorf("error %q does not describe the watchdog timeout", msg)
	}
}

// TestIncidentMemoryGuard: a job ballooning the heap past the worker's
// soft memory limit is contained as a memory incident; the quarantined
// row's message names the configured limit (never the observed heap, so
// the row is byte-stable).
func TestIncidentMemoryGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("memory-guard e2e allocates a large buffer")
	}
	jobs := smallJobs(t, "exchange2")[:1]
	server := NewServer(ServerOptions{Lease: Options{
		LeaseTTL: 10 * time.Second, MaxAttempts: 5,
		QuarantineAfter: 1, HedgeAfter: -1,
	}})
	srv := httptest.NewServer(server.Handler())
	defer srv.Close()

	const limit = 64 << 20
	ji := chaos.NewJobInjector(chaos.JobFaults{
		Seed: 1, Alloc: 1, AllocBytes: 192 << 20, AllocHold: 2 * time.Second,
	})
	stop := faultyWorker(t, srv.URL, "balloon", 1, ji.WrapExecutor(sweep.LocalExecutor{}),
		func(w *Worker) { w.MemLimit = limit })
	defer stop()

	results, _ := runFleetSweep(t, srv.URL, jobs)
	if len(results) != 1 || results[0].Err == nil {
		t.Fatalf("want one error row, got %+v", results)
	}
	msg := results[0].Err.Error()
	if !strings.Contains(msg, "quarantined as poison after memory") ||
		!strings.Contains(msg, fmt.Sprintf("soft memory limit (%d bytes)", limit)) {
		t.Errorf("error %q does not describe the memory guard", msg)
	}
}

// TestWorkerHealthGating drives the health registry with a fake clock: a
// worker accumulating checksum failures is refused leases while a healthy
// worker is live, regains eligibility as its penalty decays, and a
// degraded fleet (no healthy worker in contact) falls back to
// grant-to-anyone rather than stalling the queue.
func TestWorkerHealthGating(t *testing.T) {
	now := time.Unix(1_000_000, 0)
	c := newCoordinator(Options{
		LeaseTTL: time.Hour, MaxAttempts: 5,
		now: func() time.Time { return now },
	})
	enqueue := func() {
		c.enqueue(0, sweep.Job{Bench: "exchange2", Mode: "baseline"}, "", func(outcome) {})
	}

	// Register a healthy worker b, then push a over the penalty threshold
	// (4 checksum failures at 1.0 each, unhealthyAfter 4).
	if _, ok := c.lease("b", "b"); ok {
		t.Fatal("empty queue granted a lease")
	}
	for i := 0; i < 4; i++ {
		c.noteChecksumFailure("a")
	}

	enqueue()
	if _, ok := c.lease("a", "a"); ok {
		t.Fatal("unhealthy worker granted a lease while b is live")
	}
	if _, ok := c.lease("b", "b"); !ok {
		t.Fatal("healthy worker refused the job")
	}

	// Two minutes later a's penalty has decayed below the threshold
	// (half-life 5m: 4 * 2^(-2/5) ≈ 3.0); it leases again.
	now = now.Add(2 * time.Minute)
	c.heartbeat(HeartbeatRequest{Worker: "b"})
	enqueue()
	if _, ok := c.lease("a", "a"); !ok {
		t.Fatal("decayed worker still refused")
	}

	// Degraded fleet: a is pushed unhealthy again, and b has not been
	// heard from within the liveness window — refusing a would stall the
	// queue, so the gate falls back to granting.
	now = now.Add(5 * time.Minute)
	for i := 0; i < 6; i++ {
		c.noteChecksumFailure("a")
	}
	enqueue()
	if _, ok := c.lease("a", "a"); !ok {
		t.Fatal("degraded fleet refused its only worker")
	}

	snap := c.Stats()
	if len(snap.Workers) != 2 {
		t.Fatalf("registry %+v, want a and b", snap.Workers)
	}
	for _, ws := range snap.Workers {
		if ws.ID == "a" && ws.ChecksumFails != 10 {
			t.Errorf("a recorded %d checksum failures, want 10", ws.ChecksumFails)
		}
	}
}

// TestIncidentAndHeartbeatEndpoints covers the new wire surface directly:
// heartbeats register in the health registry, malformed incident reports
// are rejected, and an incident for an unknown lease answers 409.
func TestIncidentAndHeartbeatEndpoints(t *testing.T) {
	server := NewServer(ServerOptions{})
	srv := httptest.NewServer(server.Handler())
	defer srv.Close()
	ctx := context.Background()

	post := func(path string, in any) int {
		status, err := doJSON(ctx, srv.Client(), http.MethodPost, srv.URL+path, "", in, nil)
		if err != nil && status == 0 {
			t.Fatalf("POST %s: %v", path, err)
		}
		return status
	}

	if got := post("/v1/heartbeat", HeartbeatRequest{Worker: "hb1", Busy: 3, HeapBytes: 123}); got != http.StatusOK {
		t.Fatalf("heartbeat status %d", got)
	}
	if got := post("/v1/heartbeat", HeartbeatRequest{}); got != http.StatusBadRequest {
		t.Fatalf("anonymous heartbeat status %d, want 400", got)
	}
	snap := server.Stats()
	if len(snap.Workers) != 1 || snap.Workers[0].ID != "hb1" || snap.Workers[0].Busy != 3 {
		t.Fatalf("registry after heartbeat: %+v", snap.Workers)
	}

	if got := post("/v1/incident", IncidentRequest{LeaseID: "nope", Worker: "hb1", Kind: "weird", Message: "m"}); got != http.StatusBadRequest {
		t.Fatalf("bad incident kind status %d, want 400", got)
	}
	if got := post("/v1/incident", IncidentRequest{LeaseID: "nope", Kind: IncidentPanic, Message: "m"}); got != http.StatusBadRequest {
		t.Fatalf("anonymous incident status %d, want 400", got)
	}
	if got := post("/v1/incident", IncidentRequest{LeaseID: "nope", Worker: "hb1", Kind: IncidentPanic, Message: "m"}); got != http.StatusConflict {
		t.Fatalf("unknown lease incident status %d, want 409", got)
	}
}

// TestIncidentReport429Retried: a paced worker's incident must survive a
// 429. Dropping it would leave the job waiting out the full lease TTL
// instead of being requeued at once, and its quarantine count would never
// grow; instead the incident is posted again after Retry-After.
func TestIncidentReport429Retried(t *testing.T) {
	var posts atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/v1/incident" {
			http.NotFound(w, req)
			return
		}
		if posts.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "slow down", http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	var pauses []time.Duration
	w := &Worker{Coordinator: srv.URL, ID: "paced",
		sleepFn: func(ctx context.Context, d time.Duration) bool {
			pauses = append(pauses, d)
			return true
		}}
	w.reportIncident(context.Background(), srv.Client(),
		IncidentRequest{LeaseID: "lease-1", Worker: "paced", Kind: IncidentPanic, Message: "boom"})
	if got := posts.Load(); got != 2 {
		t.Fatalf("%d incident posts, want 2 (429, then the retry)", got)
	}
	if len(pauses) != 1 || pauses[0] != time.Second {
		t.Errorf("incident pauses %v, want [1s] (Retry-After)", pauses)
	}
}

// TestReadyzProbes: the coordinator ops surface answers its liveness and
// readiness probes, and readiness flips to 503 once draining.
func TestReadyzProbes(t *testing.T) {
	server := NewServer(ServerOptions{})
	ops := httptest.NewServer(server.OpsHandler())
	defer ops.Close()

	get := func(path string) int {
		resp, err := http.Get(ops.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("healthz %d", got)
	}
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("readyz %d", got)
	}
	server.Drain()
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("healthz while draining %d, want 200", got)
	}
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining %d, want 503", got)
	}
}

// TestQuarantineHistorySurvivesRestart: an incident recorded against a job
// before a graceful restart still counts toward quarantine after it — the
// history rides the journal and the shutdown snapshot, so a poison job
// cannot reset its record by outliving a coordinator.
func TestQuarantineHistorySurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	jobs := smallJobs(t, "exchange2")
	opts := ServerOptions{Lease: Options{
		LeaseTTL: time.Minute, MaxAttempts: 10, QuarantineAfter: 2, HedgeAfter: -1,
	}}

	first := NewServer(opts)
	if err := first.OpenState(dir); err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(first.Handler())
	var resp SubmitResponse
	if _, err := doJSON(ctx, srv1.Client(), http.MethodPost, srv1.URL+"/v1/sweeps", "",
		SubmitRequest{Jobs: jobs, Nonce: "n-poison"}, &resp); err != nil {
		t.Fatal(err)
	}
	lease := leaseOne(t, srv1.URL)
	if _, err := doJSON(ctx, srv1.Client(), http.MethodPost, srv1.URL+"/v1/incident", "",
		IncidentRequest{LeaseID: lease.LeaseID, Worker: "a", Kind: IncidentPanic, Message: "boom"}, nil); err != nil {
		t.Fatal(err)
	}
	poisonIdx := lease.Index
	srv1.Close()
	if err := first.CloseState(); err != nil {
		t.Fatal(err)
	}

	second := NewServer(opts)
	if err := second.OpenState(dir); err != nil {
		t.Fatal(err)
	}
	defer second.CloseState()
	srv2 := httptest.NewServer(second.Handler())
	defer srv2.Close()

	// Drain leases until the poisoned job comes around, then report a
	// second incident from a different worker: with the recovered history
	// it must cross QuarantineAfter=2 immediately.
	found := false
	for i := 0; i < len(jobs)+2 && !found; i++ {
		lr := leaseOne(t, srv2.URL)
		if lr.Index == poisonIdx {
			if _, err := doJSON(ctx, srv2.Client(), http.MethodPost, srv2.URL+"/v1/incident", "",
				IncidentRequest{LeaseID: lr.LeaseID, Worker: "b", Kind: IncidentPanic, Message: "boom"}, nil); err != nil {
				t.Fatal(err)
			}
			found = true
			continue
		}
		if _, err := doJSON(ctx, srv2.Client(), http.MethodPost, srv2.URL+"/v1/result", "",
			ResultRequest{LeaseID: lr.LeaseID, Result: sweep.Result{
				Index: lr.Index, Job: lr.Job,
				Res: &core.Results{Stats: &pipeline.Stats{Committed: uint64(lr.Index + 1)}},
			}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if !found {
		t.Fatal("poisoned job never re-leased after restart")
	}
	snap := second.Stats()
	if snap.Quarantined != 1 {
		t.Errorf("quarantined = %d after one post-restart incident, want 1 (history lost?)", snap.Quarantined)
	}
}
