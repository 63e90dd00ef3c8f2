package grid

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"safespec/internal/backoff"
)

// client is the grid's one wire client, shared by Worker and
// RemoteExecutor: do builds, sends and classifies every request, and call
// is the one bounded retry loop around it.
type client struct {
	base   string // coordinator base URL; request paths are appended to it
	token  string // bearer secret ("" sends no Authorization header)
	worker string // X-Safespec-Worker identity ("" omits the header)
	http   *http.Client
	log    *slog.Logger
	sleep  func(ctx context.Context, d time.Duration) bool
	on429  func() // counts rate-limit answers (nil ignores them)
}

// discardLog stands in for a nil Log on workers and remote executors.
var discardLog = slog.New(slog.DiscardHandler)

// retryable is do's verdict on an answer worth sending again: a transport
// fault, a damaged or unreadable 200 body, a 5xx, or a 429.
type retryable struct {
	err   error
	after time.Duration // 429 only: the coordinator's Retry-After, else rateLimitPause
}

func (e *retryable) Error() string { return e.err.Error() }
func (e *retryable) Unwrap() error { return e.err }

// rateLimitPause is the wait after a 429 without Retry-After: the
// coordinator's own minimum Retry-After (see authTenants).
const rateLimitPause = time.Second

// errUnauthorized marks a coordinator 401 — a configuration error, not a
// transient fault — so the worker exits (and the remote executor stops
// retrying) instead of hammering the coordinator's auth log.
var errUnauthorized = errors.New("coordinator rejected the bearer token (status 401); check -token/SAFESPEC_TOKEN")

// errRateLimited marks a coordinator 429: this tenant is over its request
// rate. Unlike other 4xx it is transient by definition — the rate limiter
// is asking for exactly a backoff — so every caller retries it.
var errRateLimited = errors.New("coordinator rate limit (status 429); raise rate_per_sec in the token file or slow the client")

// do sends one JSON request to base+path and decodes a 200 response body
// into out (when non-nil). Requests carry a body checksum, and a 200 body
// carrying one is verified before decoding: a byte damaged in transit that
// still parses as JSON must not become a result. The status is returned
// for the caller to interpret, but do classifies the answers no caller may
// interpret differently: 401 is errUnauthorized, while transport faults,
// damaged 200 bodies, 5xx and 429 are *retryable.
func (c client) do(ctx context.Context, method, path string, in, out any) (int, error) {
	var body io.Reader
	var sum string
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		body, sum = bytes.NewReader(b), bodySum(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return 0, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(sumHeader, sum)
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	if c.worker != "" {
		// The health registry attributes even a request whose body arrives
		// damaged.
		req.Header.Set(workerHeader, c.worker)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, &retryable{err: err}
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxBody))
		resp.Body.Close()
	}()
	switch status := resp.StatusCode; {
	case status == http.StatusUnauthorized:
		return status, errUnauthorized
	case status == http.StatusTooManyRequests:
		if c.on429 != nil {
			c.on429()
		}
		return status, &retryable{err: errRateLimited, after: cmp.Or(retryAfter(resp.Header), rateLimitPause)}
	case status >= 500:
		return status, &retryable{err: statusErr(status)}
	case status == http.StatusOK && out != nil:
		b, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
		if want := resp.Header.Get(sumHeader); err == nil && want != "" && want != bodySum(b) {
			err = errors.New("response body checksum mismatch (damaged in transit)")
		}
		if err == nil {
			err = json.Unmarshal(b, out)
		}
		if err != nil {
			return status, &retryable{err: err}
		}
	}
	return resp.StatusCode, nil
}

// call sends one request through do up to attempts times, pausing on the
// policy's schedule between retryable answers (a 429's pause wins), and
// returns the final status for the caller to interpret. A retryable answer
// that outlasts the attempts comes back as the error.
func (c client) call(ctx context.Context, p backoff.Policy, attempts int, method, path string, in, out any) (int, error) {
	var status int
	var err error
	var hint time.Duration
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 && !c.sleep(ctx, p.PauseHint(attempt-1, hint)) {
			return 0, ctx.Err()
		}
		status, err = c.do(ctx, method, path, in, out)
		var re *retryable
		if !errors.As(err, &re) {
			return status, err
		}
		if ctx.Err() != nil {
			return 0, ctx.Err()
		}
		hint = re.after
		c.log.Warn("coordinator request failed, backing off", "coordinator", c.base, "path", path,
			"status", status, "err", err.Error(), "pause", p.PauseHint(attempt, hint).String())
	}
	return status, err
}

// statusErr renders a terminal HTTP status as an error, spelling out the
// misconfigurations users actually hit.
func statusErr(status int) error {
	switch status {
	case http.StatusUnauthorized:
		return errUnauthorized
	case http.StatusForbidden:
		return fmt.Errorf("coordinator refused (status 403): tenant sweep quota exceeded; close an open sweep or raise max_sweeps in the token file")
	}
	return fmt.Errorf("unexpected status %d", status)
}

// retryAfter parses a Retry-After header's delay-seconds form (the form
// the coordinator sends). The HTTP-date form and garbage both come back 0:
// the caller falls back to its own pause.
func retryAfter(h http.Header) time.Duration {
	v := strings.TrimSpace(h.Get("Retry-After"))
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// sleep waits d or until ctx is done, reporting whether the full wait
// elapsed.
func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
