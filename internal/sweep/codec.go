package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"time"

	"safespec/internal/core"
)

// jobHashDomain versions the canonical encoding that Job.Hash covers. Bump
// it whenever the meaning of an existing config field changes, so stale
// result-cache entries and mixed-version grid workers can never alias.
const jobHashDomain = "safespec/sweep.Job/v1\n"

// Canonical returns the canonical JSON encoding of the job: the pipeline
// configuration is normalized first, so two jobs that run identically —
// e.g. a zero config and one with the Table I defaults spelled out — encode
// to identical bytes. Every field of core.Config is a plain exported scalar
// or struct (no maps), so the encoding is deterministic.
func (j Job) Canonical() ([]byte, error) {
	j.Config.Pipeline = j.Config.Pipeline.Normalize()
	return json.Marshal(j)
}

// Hash returns the job's content address: a hex SHA-256 over the versioned
// canonical encoding. It is the key of internal/resultcache and the
// identity of a job on the grid wire protocol.
func (j Job) Hash() (string, error) {
	b, err := j.Canonical()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write([]byte(jobHashDomain))
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// resultJSON is the wire form of a Result. Err travels as a string — an
// error value does not survive a JSON round trip — so failure causes are
// preserved across processes (the grid protocol) and restarts (JSONL
// replay). All numeric fields are integers, so the round trip is exact and
// sink output computed from a decoded Result is byte-identical to the
// original.
type resultJSON struct {
	Index  int           `json:"index"`
	Job    Job           `json:"job"`
	Res    *core.Results `json:"res,omitempty"`
	Err    string        `json:"err,omitempty"`
	WallNS int64         `json:"wall_ns,omitempty"`
	// Timing is optional on the wire: a worker whose executor is not a
	// TimedExecutor omits the field.
	Timing *Timing `json:"timing,omitempty"`
}

// MarshalJSON encodes the result for the grid wire protocol.
func (r Result) MarshalJSON() ([]byte, error) {
	w := resultJSON{Index: r.Index, Job: r.Job, Res: r.Res, WallNS: int64(r.Wall), Timing: r.Timing}
	if r.Err != nil {
		w.Err = r.Err.Error()
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes a result. The error cause is reconstructed with the
// original message (the concrete error type does not cross the wire).
func (r *Result) UnmarshalJSON(b []byte) error {
	var w resultJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*r = Result{Index: w.Index, Job: w.Job, Res: w.Res, Wall: time.Duration(w.WallNS), Timing: w.Timing}
	if w.Err != "" {
		r.Err = errors.New(w.Err)
	}
	return nil
}

// Executor runs one job and returns its simulator results. It is the seam
// that lets Run be backed by in-process simulation (LocalExecutor), a
// content-addressed result cache (resultcache.Executor), or a fleet of
// worker processes (grid.RemoteExecutor) — sinks, ordering and the figures
// layer are identical for all of them. Execute is called concurrently from
// Run's worker pool and must be safe for concurrent use.
type Executor interface {
	Execute(ctx context.Context, index int, j Job) (*core.Results, error)
}

// Submitter is an optional Executor extension: when the executor of a Run
// implements it, Run announces the complete job matrix once, before any
// Execute call. A remote backend uses the announcement to enqueue the whole
// sweep in a single request and start the fleet draining it immediately.
// An executor wrapping another one forwards to an inner Submitter only the
// jobs that will reach it: the result cache announces its misses,
// renumbered densely, and runs each at its dense index.
type Submitter interface {
	Submit(ctx context.Context, jobs []Job) error
}

// LocalExecutor simulates jobs in-process. It is the default executor of
// Run and the terminal executor of a grid worker.
type LocalExecutor struct{}

// Execute builds and runs the job's program, recovering panics into errors.
func (LocalExecutor) Execute(ctx context.Context, index int, j Job) (*core.Results, error) {
	return executeJob(ctx, index, j)
}
