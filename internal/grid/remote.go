package grid

import (
	"context"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"safespec/internal/backoff"
	"safespec/internal/core"
	"safespec/internal/sweep"
)

// RemoteExecutor runs a sweep on a persistent external coordinator
// (cmd/safespec-coordinator, or the in-process `safespec-bench -serve`
// degenerate case). It implements sweep.Executor — sinks, in-order
// delivery and byte-identical output are untouched — plus the required
// sweep.Submitter extension: Submit enqueues the whole announced matrix in
// one POST /v1/sweeps (a wrapping result cache announces only its misses),
// and Execute serves only indexes that announcement carried.
//
// Results arrive as a stream of batches: one background goroutine per
// sweep long-polls GET /v1/sweeps/{id}/results?after=N&wait=D, and each
// response carries every result completed since cursor N. Execute calls
// wait on that shared stream instead of polling their own index, so a
// sweep costs O(result batches) HTTP round trips — not O(cells) — however
// wide the matrix. Close releases the sweep's server-side state (and stops
// the stream); an unclosed sweep (crashed client) is abandoned by the
// server after its SweepTTL.
type RemoteExecutor struct {
	// URL is the coordinator base URL ("http://host:port" or, for a TLS
	// coordinator, "https://host:port" — pair it with a Client from
	// NewHTTPClient when the certificate is not signed by a system root).
	URL string
	// Token authenticates every request ("" sends no Authorization header).
	Token string
	// Client is the HTTP client; nil selects one whose timeout comfortably
	// exceeds the long-poll window.
	Client *http.Client
	// PollWait is the long-poll duration requested per result-batch poll
	// (default 25s; the server caps it at one minute).
	PollWait time.Duration
	// Log receives structured progress records (nil discards them).
	Log *slog.Logger

	mu        sync.Mutex
	sweepID   string
	nonce     string                    // stable submission nonce: the recovery key across coordinator restarts
	jobs      []sweep.Job               // the announced matrix, re-submitted after a restart
	received  map[int]bool              // indexes already dispatched (dedupes re-streamed results)
	waiters   map[int]chan sweep.Result // Execute calls parked on an index
	arrived   map[int]sweep.Result      // streamed results nobody asked for yet
	streamCtx context.CancelFunc        // non-nil while the streamer runs
	streamEnd chan struct{}             // closed when the streamer exits
	streamErr error                     // terminal stream failure, set before streamEnd closes

	// recMu serializes restart recovery: one goroutine re-resolves the
	// sweep by nonce while the rest observe the already-updated sweep id.
	recMu sync.Mutex
	// recoveries counts restart recoveries since the last result batch
	// (see recoverSweep).
	recoveries atomic.Int32
}

// defaultPollWait balances held-open connections against poll chatter; it
// must stay well under the client timeout below.
const defaultPollWait = 25 * time.Second

// wire returns the executor's grid client.
func (r *RemoteExecutor) wire() client {
	hc := r.Client
	if hc == nil {
		hc = defaultRemoteClient
	}
	return client{base: r.URL, token: r.Token, http: hc, log: r.log(), sleep: sleep}
}

// remoteRetry is the executor's backoff schedule, run for 8 attempts.
var remoteRetry = backoff.Policy{Base: 250 * time.Millisecond, Cap: 5 * time.Second}

// call sends one request on the executor's retry schedule: transport
// faults and 5xx (a coordinator or fronting proxy mid-restart) and 429 (a
// tenant merely being paced) must not fail a sweep.
func (r *RemoteExecutor) call(ctx context.Context, method, path string, in, out any) (int, error) {
	return r.wire().call(ctx, remoteRetry, 8, method, path, in, out)
}

// wantOK turns a final status other than 200 into its error.
func wantOK(status int, err error) error {
	if err == nil && status != http.StatusOK {
		err = statusErr(status)
	}
	return err
}

var defaultRemoteClient = &http.Client{Timeout: 90 * time.Second}

// NewHTTPClient builds an HTTP client for coordinator URLs. A non-empty
// caFile names a PEM certificate bundle trusted in place of the system
// roots — the self-signed or private-CA fleet deployment (the coordinator's
// own -tls-cert file works directly as the bundle). timeout <= 0 selects
// the long-poll-safe default used by RemoteExecutor.
func NewHTTPClient(caFile string, timeout time.Duration) (*http.Client, error) {
	if timeout <= 0 {
		timeout = defaultRemoteClient.Timeout
	}
	client := &http.Client{Timeout: timeout}
	if caFile != "" {
		pem, err := os.ReadFile(caFile)
		if err != nil {
			return nil, fmt.Errorf("tls ca: %w", err)
		}
		pool := x509.NewCertPool()
		if !pool.AppendCertsFromPEM(pem) {
			return nil, fmt.Errorf("tls ca: no PEM certificates in %s", caFile)
		}
		client.Transport = &http.Transport{
			TLSClientConfig: &tls.Config{RootCAs: pool},
			// Mirror the relevant DefaultTransport tuning; long-poll
			// connections are reused heavily.
			MaxIdleConns:        100,
			IdleConnTimeout:     90 * time.Second,
			TLSHandshakeTimeout: 10 * time.Second,
		}
	}
	return client, nil
}

func (r *RemoteExecutor) log() *slog.Logger {
	if r.Log != nil {
		return r.Log
	}
	return discardLog
}

// Submit implements sweep.Submitter: it opens a sweep on the coordinator
// carrying the whole job matrix, so the fleet starts draining it before the
// first Execute call even polls. Transport errors are retried briefly — a
// coordinator mid-restart should not fail the sweep.
func (r *RemoteExecutor) Submit(ctx context.Context, jobs []sweep.Job) error {
	r.mu.Lock()
	nonce := r.nonceLocked()
	r.mu.Unlock()
	resp, err := r.openSweep(ctx, jobs, nonce)
	if err != nil {
		return fmt.Errorf("grid: submit sweep to %s: %w", r.URL, err)
	}
	r.mu.Lock()
	r.sweepID, r.jobs = resp.SweepID, jobs
	r.mu.Unlock()
	r.log().Info("sweep submitted", "sweep", resp.SweepID, "coordinator", r.URL, "jobs", len(jobs))
	return nil
}

// nonceLocked returns the executor's stable submission nonce, minting it
// on first use. One nonce spans the whole sweep's lifetime (Close resets
// it): it makes the creation POST idempotent against lost responses AND
// serves as the recovery key a restarted coordinator resolves the sweep
// by. Caller holds r.mu.
func (r *RemoteExecutor) nonceLocked() string {
	if r.nonce == "" {
		r.nonce = newNonce()
	}
	return r.nonce
}

// openSweep POSTs a sweep-creation request carrying jobs. The nonce makes
// the retried POST idempotent: if an attempt landed but its response was
// lost, the coordinator hands back the existing sweep instead of
// double-running it.
func (r *RemoteExecutor) openSweep(ctx context.Context, jobs []sweep.Job, nonce string) (SubmitResponse, error) {
	var resp SubmitResponse
	err := wantOK(r.call(ctx, http.MethodPost, "/v1/sweeps", SubmitRequest{Jobs: jobs, Nonce: nonce}, &resp))
	return resp, err
}

// Execute waits for the shared result stream to deliver the index. An index
// that Submit did not announce fails at once, without a request.
func (r *RemoteExecutor) Execute(ctx context.Context, index int, j sweep.Job) (*core.Results, error) {
	res, _, err := r.ExecuteTimed(ctx, index, j)
	return res, err
}

// ExecuteTimed is Execute returning the streamed result's span breakdown
// (stamped by the coordinator and the reporting worker; nil when the
// worker's executor is not a sweep.TimedExecutor), so sweep.Run records
// Timing for remote sweeps.
func (r *RemoteExecutor) ExecuteTimed(ctx context.Context, index int, j sweep.Job) (*core.Results, *sweep.Timing, error) {
	r.mu.Lock()
	id := r.sweepID
	if id == "" || index < 0 || index >= len(r.jobs) {
		r.mu.Unlock()
		return nil, nil, fmt.Errorf("grid: job %d was not announced by Submit", index)
	}
	if res, ok := r.arrived[index]; ok {
		delete(r.arrived, index)
		r.mu.Unlock()
		return res.Res, res.Timing, res.Err
	}
	ch := make(chan sweep.Result, 1)
	if r.waiters == nil {
		r.waiters = make(map[int]chan sweep.Result)
	}
	r.waiters[index] = ch
	r.startStreamLocked(id)
	end := r.streamEnd
	r.mu.Unlock()

	select {
	case res := <-ch:
		return res.Res, res.Timing, res.Err
	case <-end:
		r.mu.Lock()
		err := r.streamErr
		delete(r.waiters, index)
		r.mu.Unlock()
		return nil, nil, fmt.Errorf("grid: sweep %s job %d: %w", id, index, err)
	case <-ctx.Done():
		r.mu.Lock()
		delete(r.waiters, index)
		r.mu.Unlock()
		// A delivery may have raced the cancellation; prefer it.
		select {
		case res := <-ch:
			return res.Res, res.Timing, res.Err
		default:
			return nil, nil, ctx.Err()
		}
	}
}

// startStreamLocked launches the batch-streaming goroutine for the sweep if
// it is not already running. Caller holds r.mu. The stream's lifetime is
// the executor's, not any one Execute call's: it is stopped by Close (or by
// a terminal coordinator answer such as 404 after a restart).
func (r *RemoteExecutor) startStreamLocked(id string) {
	if r.streamCtx != nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	r.streamCtx = cancel
	r.streamEnd = make(chan struct{})
	r.streamErr = nil
	go r.stream(ctx, id, r.streamEnd)
}

// maxStreamRecoveries bounds consecutive restart recoveries before the
// executor gives up: a coordinator that loses the sweep again and again
// without ever delivering a batch is misconfigured, not mid-restart.
const maxStreamRecoveries = 5

// stream long-polls the sweep's result batches and dispatches each result
// to the Execute call waiting on its index (or parks it for an Execute yet
// to ask). It exits on Close's cancellation or a terminal coordinator
// answer; transport faults, 5xx and 429 are ridden out by call, and a
// coordinator restart (404 for the sweep id, or a connection that stays
// refused past the retry budget) is ridden out by recoverSweep and
// resuming the batch cursor.
func (r *RemoteExecutor) stream(ctx context.Context, id string, end chan struct{}) {
	defer close(end)
	wait := r.PollWait
	if wait <= 0 {
		wait = defaultPollWait
	}
	after := 0
	for {
		var batch ResultBatch
		status, err := r.call(ctx, http.MethodGet,
			fmt.Sprintf("/v1/sweeps/%s/results?after=%d&wait=%s", id, after, wait), nil, &batch)
		// cause names the recovery attempted below; fail is the stream's
		// error if that recovery fails.
		var cause string
		var fail error
		switch {
		case ctx.Err() != nil:
			r.setStreamErr(fmt.Errorf("stream stopped: %w", ctx.Err()))
			return
		case err != nil && !errors.Is(err, errUnauthorized):
			// The retry budget is exhausted — the shape of a coordinator
			// down for longer than a blip. Recovery retries the connection
			// again and re-establishes the sweep if the process that
			// answers is a fresh one.
			cause = "unreachable: " + err.Error()
			fail = fmt.Errorf("grid: stream %s: %w", id, err)
		case status == http.StatusOK:
			r.recoveries.Store(0)
			for _, res := range batch.Results {
				r.dispatch(res)
			}
			after = batch.Next
			continue
		case status == http.StatusNotFound:
			// The coordinator restarted (or abandoned the sweep past its
			// TTL). The sweep id is random so it can never collide with
			// another client's; the nonce re-resolves our own sweep — on a
			// durable coordinator the very same one, cursor intact.
			cause = "sweep id lost (coordinator restart)"
			fail = fmt.Errorf("grid: sweep %s expired on coordinator %s (restart without -state-dir, or client idle past the sweep TTL?)", id, r.URL)
		case status == http.StatusBadRequest && after > 0:
			// A stale cursor (recovered log shorter than our position, which
			// a lost unsynced journal tail can produce): restart the stream
			// from zero and let the received-set drop the duplicates.
			cause = "stale cursor"
			fail = fmt.Errorf("grid: stream %s: %w", id, statusErr(status))
			after = 0
		default:
			r.setStreamErr(fmt.Errorf("grid: stream %s: %w", id, statusErr(status)))
			return
		}
		newID, rerr := r.recoverSweep(ctx, id, cause)
		if rerr != nil {
			r.setStreamErr(fail)
			return
		}
		if newID != id {
			// A coordinator without durable state opened a fresh sweep: its
			// log starts empty, so the cursor restarts and the received-set
			// dedupe swallows any cells streamed twice.
			id, after = newID, 0
		}
	}
}

// recoverSweep is the executor's one restart-recovery path, taken by the
// stream when the coordinator no longer serves lostID. It re-posts the
// announced matrix under the executor's stable nonce in one POST
// /v1/sweeps: a coordinator with durable state answers with the surviving
// sweep (enqueueing any index its journal lost), a stateless one opens a
// fresh sweep with every job. Returns the current sweep id. Concurrent
// callers serialize on recMu; late ones observe the already-updated id and
// return immediately. More than maxStreamRecoveries recoveries with no
// result batch in between fail.
func (r *RemoteExecutor) recoverSweep(ctx context.Context, lostID, cause string) (id string, err error) {
	r.recMu.Lock()
	defer r.recMu.Unlock()
	r.mu.Lock()
	if r.sweepID != lostID && r.sweepID != "" {
		id := r.sweepID
		r.mu.Unlock()
		return id, nil
	}
	nonce, jobs := r.nonce, r.jobs
	r.mu.Unlock()
	defer func() {
		if err != nil {
			r.log().Warn("sweep recovery failed", "sweep", lostID, "cause", cause, "err", err.Error())
		}
	}()
	if r.recoveries.Add(1) > maxStreamRecoveries {
		return "", fmt.Errorf("gave up after %d recoveries without a result batch", maxStreamRecoveries)
	}
	if nonce == "" {
		return "", fmt.Errorf("sweep %s has no submission nonce to recover by", lostID)
	}
	resp, err := r.openSweep(ctx, jobs, nonce)
	if err != nil {
		return "", fmt.Errorf("re-submit by nonce: %w", err)
	}
	r.mu.Lock()
	r.sweepID = resp.SweepID
	r.mu.Unlock()
	r.log().Info("sweep recovered after coordinator restart", "cause", cause,
		"lost", lostID, "sweep", resp.SweepID, "jobs_resubmitted", len(jobs), "resumed", resp.SweepID == lostID)
	return resp.SweepID, nil
}

func (r *RemoteExecutor) setStreamErr(err error) {
	r.mu.Lock()
	r.streamErr = err
	r.mu.Unlock()
}

// dispatch hands one streamed result to the Execute call parked on its
// index, or stores it until that call arrives (batches deliver results in
// completion order, which need not match the order Execute calls ask). An
// index already dispatched is dropped: restart recovery can replay the
// stream from an earlier cursor, and each cell must reach sweep.Run
// exactly once.
func (r *RemoteExecutor) dispatch(res sweep.Result) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.received[res.Index] {
		return
	}
	if r.received == nil {
		r.received = make(map[int]bool)
	}
	r.received[res.Index] = true
	if ch, ok := r.waiters[res.Index]; ok {
		delete(r.waiters, res.Index)
		ch <- res
		return
	}
	if r.arrived == nil {
		r.arrived = make(map[int]sweep.Result)
	}
	r.arrived[res.Index] = res
}

// Close stops the result stream and releases the sweep's state on the
// coordinator (idempotent; a sweep the server already dropped counts as
// released). The executor can be reused afterwards: the next Submit opens
// a fresh sweep with a fresh stream.
func (r *RemoteExecutor) Close() error {
	r.mu.Lock()
	id := r.sweepID
	cancel, end := r.streamCtx, r.streamEnd
	r.sweepID = ""
	r.nonce, r.jobs, r.received = "", nil, nil
	r.waiters, r.arrived = nil, nil
	r.streamCtx, r.streamEnd = nil, nil
	r.recoveries.Store(0)
	r.mu.Unlock()
	if cancel != nil {
		cancel()
		<-end
	}
	if id == "" {
		return nil
	}
	ctx, cancelReq := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelReq()
	status, err := r.wire().do(ctx, http.MethodDelete, "/v1/sweeps/"+id, nil, nil)
	if err != nil {
		return fmt.Errorf("grid: close sweep %s: %w", id, err)
	}
	if status != http.StatusOK && status != http.StatusNotFound {
		return fmt.Errorf("grid: close sweep %s: unexpected status %d", id, status)
	}
	return nil
}

// Stats fetches the coordinator's accounting snapshot.
func (r *RemoteExecutor) Stats(ctx context.Context) (ServerSnapshot, error) {
	var snap ServerSnapshot
	status, err := r.wire().do(ctx, http.MethodGet, "/v1/stats", nil, &snap)
	if err != nil {
		return snap, err
	}
	if status != http.StatusOK {
		return snap, fmt.Errorf("grid: stats: unexpected status %d", status)
	}
	return snap, nil
}

// newNonce returns a random submission id for sweep-creation idempotency.
func newNonce() string {
	var b [16]byte
	rand.Read(b[:])
	return hex.EncodeToString(b[:])
}
