package grid

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Fleet self-healing: the coordinator side of job containment.
//
// Workers contain failing jobs (panic recovery, a lease-TTL watchdog, a
// soft memory guard) and report them as structured incidents instead of
// dying. The coordinator folds those incidents into two defenses:
//
//   - Poison-job quarantine: a job that draws incidents from QuarantineAfter
//     distinct workers is completed immediately with a deterministic error
//     row, instead of marching through every worker until MaxAttempts burns
//     out fleet-wide.
//
//   - Worker health scoring: every worker contact (lease poll, heartbeat,
//     result) refreshes a registry entry; lease expiries, incidents and
//     checksum failures add penalty points that decay with a half-life.
//     A worker whose decayed penalty crosses unhealthyAfter is refused
//     leases while at least one healthy worker is live — and granted
//     anyway when none is, so a degraded fleet never deadlocks.
//
// Hedged tail leases (see maybeHedgeLocked in grid.go) reuse the same
// registry: only a healthy poller can trigger a hedge, so the duplicate
// lease lands on a worker likely to finish it.

// Incident kinds a worker reports. The taxonomy is closed: the coordinator
// rejects other kinds so a typo'd client cannot grow unbounded label sets.
const (
	// IncidentPanic: the job (or its executor wrapper chain) panicked; the
	// worker recovered in the slot and kept running.
	IncidentPanic = "panic"
	// IncidentTimeout: the job outlived the worker's watchdog (90% of the
	// lease TTL); the worker abandoned the wait before the coordinator's
	// TTL fired, so the incident beats the silent requeue.
	IncidentTimeout = "timeout"
	// IncidentMemory: the process heap crossed the worker's soft memory
	// limit while the job ran.
	IncidentMemory = "memory"
)

// validIncidentKind reports whether k is one of the closed incident kinds.
func validIncidentKind(k string) bool {
	return k == IncidentPanic || k == IncidentTimeout || k == IncidentMemory
}

// workerHeader carries the worker's base id (Worker.ID, without the lease
// loop suffix) on every request. It exists so the coordinator can attribute
// a checksum-failed request — whose body is unreadable by definition — to
// the sending worker's health record.
const workerHeader = "X-Safespec-Worker"

// IncidentRequest reports one contained job failure (POST /v1/incident).
// The lease is released server-side: the job requeues, or quarantines once
// enough distinct workers have reported against it.
type IncidentRequest struct {
	LeaseID string `json:"lease_id"`
	// Worker is the reporting worker's base id (matches workerHeader).
	Worker string `json:"worker"`
	// Kind is one of IncidentPanic, IncidentTimeout, IncidentMemory.
	Kind string `json:"kind"`
	// Message describes the failure. Workers keep it deterministic (no
	// timestamps, no addresses) so a quarantined job's error row is
	// byte-stable across runs when the underlying fault is.
	Message string `json:"message"`
}

// HeartbeatRequest is a worker's liveness beacon (POST /v1/heartbeat),
// complementing the implicit heartbeat every lease poll provides: a worker
// saturated with long jobs stops polling but keeps beating.
type HeartbeatRequest struct {
	Worker string `json:"worker"`
	// Busy counts lease slots currently executing a job.
	Busy int `json:"busy"`
	// HeapBytes is the process's live heap at beat time (0 when unknown).
	HeapBytes uint64 `json:"heap_bytes,omitempty"`
}

// taskIncident is one incident recorded against a job, the unit of the
// quarantine decision (distinct Worker values are counted against
// Options.QuarantineAfter).
type taskIncident struct {
	Worker, Kind, Message string
}

// Health scoring constants. Penalties are points added to a worker's
// decaying score; unhealthyAfter is the refusal threshold, so e.g. two
// lease expiries inside one half-life sideline a worker while a single
// contained incident does not.
const (
	unhealthyAfter  = 4               // two lease expiries or two incidents inside one half-life
	healthHalfLife  = 5 * time.Minute // penalty decay half-life
	expiryPenalty   = 2.0             // a lease lost to TTL: crash, wedge or partition
	incidentPenalty = 2.0             // a contained job failure reported by the worker
	checksumPenalty = 1.0             // a request body damaged in transit from the worker
	// workerLiveWindow bounds how stale a "healthy" worker's last contact
	// may be when deciding whether an unhealthy poller can be refused: a
	// worker nobody has heard from cannot take the refused job.
	workerLiveWindow = time.Minute
	// workerForget drops registry entries idle this long, so a persistent
	// coordinator's health map holds steady across fleet churn.
	workerForget = time.Hour
)

// workerHealth is one worker's registry entry, guarded by coordinator.mu.
type workerHealth struct {
	firstSeen time.Time
	lastSeen  time.Time // any contact: lease poll, heartbeat, result, incident
	lastBeat  time.Time // explicit /v1/heartbeat only
	busy      int       // slots executing, from the last heartbeat
	heap      uint64    // heap bytes, from the last heartbeat

	leased, completed             uint64
	expiries, incidents, sumFails uint64

	// penalty is the health score at penaltyAt; read it through
	// penaltyNow so the half-life decay is always applied.
	penalty   float64
	penaltyAt time.Time
}

// penaltyNow returns the penalty decayed to now: each healthHalfLife
// elapsed since the last update halves it, so old sins wash out and a
// recovered worker rejoins the lease rotation without operator action.
func (wh *workerHealth) penaltyNow(now time.Time) float64 {
	if wh.penalty == 0 {
		return wh.penalty
	}
	dt := now.Sub(wh.penaltyAt)
	if dt <= 0 {
		return wh.penalty
	}
	return wh.penalty * math.Exp2(-float64(dt)/float64(healthHalfLife))
}

// WorkerHealthSnapshot is one registry entry in a Snapshot, served on
// /v1/stats and rendered on /status and /metrics.
type WorkerHealthSnapshot struct {
	ID string `json:"id"`
	// Healthy is the lease-grant gate: decayed penalty under the
	// unhealthyAfter threshold.
	Healthy bool    `json:"healthy"`
	Penalty float64 `json:"penalty"`
	Busy    int     `json:"busy"`
	// LastSeenMS is milliseconds since the worker's last contact.
	LastSeenMS    int64  `json:"last_seen_ms"`
	Leased        uint64 `json:"leased"`
	Completed     uint64 `json:"completed"`
	Expiries      uint64 `json:"expiries"`
	Incidents     uint64 `json:"incidents"`
	ChecksumFails uint64 `json:"checksum_fails"`
	HeapBytes     uint64 `json:"heap_bytes,omitempty"`
}

// touchWorkerLocked returns the registry entry for a worker id, creating
// it on first contact and refreshing its liveness clock. Caller holds c.mu;
// an empty id (a client that sent neither the worker header nor a worker
// label) is not tracked.
func (c *coordinator) touchWorkerLocked(id string, now time.Time) *workerHealth {
	if id == "" {
		return nil
	}
	wh := c.workers[id]
	if wh == nil {
		wh = &workerHealth{firstSeen: now, penaltyAt: now}
		c.workers[id] = wh
	}
	wh.lastSeen = now
	c.pruneWorkersLocked(now)
	return wh
}

// penalizeLocked adds points to a worker's decaying score. Caller holds
// c.mu; a nil entry (untracked worker) is a no-op.
func (c *coordinator) penalizeLocked(wh *workerHealth, points float64, now time.Time) {
	if wh == nil {
		return
	}
	wh.penalty = wh.penaltyNow(now) + points
	wh.penaltyAt = now
}

// healthyLocked is the lease-grant gate for one worker.
func (c *coordinator) healthyLocked(wh *workerHealth, now time.Time) bool {
	if wh == nil {
		return true // untracked pollers are not refused
	}
	return wh.penaltyNow(now) < unhealthyAfter
}

// anyOtherHealthyLocked reports whether a worker other than `except` is
// both healthy and recently in contact. It gates every refusal decision:
// deprioritizing a sick worker only makes sense while someone else can
// take the work, otherwise the queue would stall on a degraded fleet.
func (c *coordinator) anyOtherHealthyLocked(except string, now time.Time) bool {
	for id, wh := range c.workers {
		if id == except {
			continue
		}
		if now.Sub(wh.lastSeen) <= workerLiveWindow && c.healthyLocked(wh, now) {
			return true
		}
	}
	return false
}

// noteChecksumFailure attributes one damaged-in-transit request body to a
// worker's health record. The body is unparseable by definition, so the
// attribution rides the workerHeader alone; requests without it (sweep
// clients, raw HTTP tools) go unattributed.
func (c *coordinator) noteChecksumFailure(id string) {
	if id == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.opts.now()
	wh := c.touchWorkerLocked(id, now)
	wh.sumFails++
	c.penalizeLocked(wh, checksumPenalty, now)
}

// pruneWorkersLocked forgets registry entries idle past workerForget, at
// most once a minute. Caller holds c.mu.
func (c *coordinator) pruneWorkersLocked(now time.Time) {
	if now.Sub(c.lastPrune) < time.Minute {
		return
	}
	c.lastPrune = now
	for id, wh := range c.workers {
		if now.Sub(wh.lastSeen) > workerForget {
			delete(c.workers, id)
		}
	}
}

// workerSnapshotsLocked renders the registry for Stats, sorted by id.
// Caller holds c.mu.
func (c *coordinator) workerSnapshotsLocked(now time.Time) []WorkerHealthSnapshot {
	if len(c.workers) == 0 {
		return nil
	}
	out := make([]WorkerHealthSnapshot, 0, len(c.workers))
	for id, wh := range c.workers {
		out = append(out, WorkerHealthSnapshot{
			ID:            id,
			Healthy:       c.healthyLocked(wh, now),
			Penalty:       math.Round(wh.penaltyNow(now)*100) / 100,
			Busy:          wh.busy,
			LastSeenMS:    now.Sub(wh.lastSeen).Milliseconds(),
			Leased:        wh.leased,
			Completed:     wh.completed,
			Expiries:      wh.expiries,
			Incidents:     wh.incidents,
			ChecksumFails: wh.sumFails,
			HeapBytes:     wh.heap,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// distinctIncidentWorkersLocked counts how many distinct workers have
// reported an incident against t — the quarantine measure. Duplicate
// reports from one worker (or a replayed journal) cannot inflate it.
func distinctIncidentWorkersLocked(t *task) int {
	seen := make(map[string]struct{}, len(t.incidents))
	for _, inc := range t.incidents {
		seen[inc.Worker] = struct{}{}
	}
	return len(seen)
}

// quarantineError builds the deterministic error row for a quarantined
// job: job label, the final incident's kind and message, and the distinct
// worker count — never wall-clock times, worker ids, or attempt counters,
// so the row is byte-stable across runs whenever the underlying fault is
// deterministic.
func quarantineError(t *task, distinct int) error {
	last := t.incidents[len(t.incidents)-1]
	return fmt.Errorf("grid: %s: quarantined as poison after %s incidents on %d workers: %s",
		t.job, last.Kind, distinct, last.Message)
}
