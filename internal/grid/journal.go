package grid

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"safespec/internal/sweep"
)

// The coordinator's durable state lives under one directory (-state-dir):
//
//	<dir>/VERSION       format version, one decimal line
//	<dir>/snapshot.wal  the state at the last compaction (atomic rename)
//	<dir>/journal.wal   mutations appended since the snapshot
//
// Both .wal files are sequences of the same framed records:
//
//	[4B big-endian payload length][4B big-endian CRC32-IEEE][JSON payload]
//
// Every sweep mutation — creation, job enqueue, result delivery, incident,
// release — is appended to the journal as one record. A snapshot is the
// compacted form of the same records (see compact): per live sweep its
// open, its jobs, its completion log and the incidents of its unfinished
// jobs, nothing else.
//
// A restart reads the snapshot, then the journal, and replays both through
// one record loop. A torn or corrupt journal tail (the frame a kill -9
// interrupted) is discarded cleanly, losing at most the final
// un-acknowledged append. Replay is idempotent, so duplicate records — a
// crash between snapshot rename and journal truncation replays both copies
// — coalesce instead of corrupting state. After replay the store compacts:
// the merged state becomes the new snapshot and the journal restarts empty.
//
// Appends are NOT fsynced: surviving kill -9 needs the bytes in the kernel
// page cache, not on the platter, and a per-result fsync would gate sweep
// throughput on disk latency. Snapshots are synced before rename, so the
// compacted baseline survives power loss too; journal appends since the
// last snapshot trade that durability for throughput deliberately.

// stateFormatVersion is the on-disk format version of both files. Bump it
// when the record encoding or the file layout changes incompatibly.
const stateFormatVersion = 2

// Journal record operations.
const (
	opOpen   = "open"   // sweep created (id, nonce, tenant name)
	opJob    = "job"    // job enqueued into a sweep
	opResult = "result" // terminal result appended to a sweep's completion log
	opClose  = "close"  // sweep released (client close or TTL abandonment)
	// opIncident records one contained worker failure against a job, so
	// quarantine history survives a restart (a poison job must not get a
	// fresh set of K workers to burn after every coordinator crash).
	opIncident = "incident"
)

// journalRecord is one journal frame's payload. Exactly the fields for its
// Op are set; the rest stay at their zero values and are omitted.
type journalRecord struct {
	Op     string        `json:"op"`
	Sweep  string        `json:"sweep"`
	Nonce  string        `json:"nonce,omitempty"`
	Tenant string        `json:"tenant,omitempty"`
	Index  int           `json:"index,omitempty"`
	Job    *sweep.Job    `json:"job,omitempty"`
	Result *sweep.Result `json:"result,omitempty"`
	// Worker, Kind and Message carry an opIncident's taskIncident.
	Worker  string `json:"worker,omitempty"`
	Kind    string `json:"kind,omitempty"`
	Message string `json:"message,omitempty"`
}

// recoveredSweep is one sweep's durable state: built by replay for the
// Server to adopt directly, and by Server.CloseState from live state for
// compact.
type recoveredSweep struct {
	ID, Nonce, Tenant string
	Jobs              map[int]sweep.Job
	Log               []sweep.Result
	Incidents         map[int][]taskIncident
	logged            map[int]bool // indexes already in Log (replay dedupe)
}

// stateStore journals sweep mutations under a state directory. Its mutex
// is the innermost lock in the server: appends happen while holding
// Server.mu and/or sweepState.mu, never the other way around — in
// particular a result is journaled inside the same sweepState.mu critical
// section that appends it to the in-memory completion log, so journal
// order always equals log order and recovered cursors stay valid.
type stateStore struct {
	dir string

	mu     sync.Mutex
	f      *os.File // journal.wal, open for append
	closed bool
}

// openState opens (or creates) a state directory, replays its snapshot and
// journal, compacts the merged state into a fresh snapshot, and returns
// the store ready for appends plus the recovered sweeps (in original
// creation order) and the count of torn tail bytes discarded.
func openState(dir string) (*stateStore, []recoveredSweep, int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, 0, fmt.Errorf("grid: state dir: %w", err)
	}
	vpath := filepath.Join(dir, "VERSION")
	if b, err := os.ReadFile(vpath); err == nil {
		v, perr := strconv.Atoi(strings.TrimSpace(string(b)))
		if perr != nil || v != stateFormatVersion {
			return nil, nil, 0, fmt.Errorf("grid: state dir %s holds format %q, this binary writes format %d",
				dir, strings.TrimSpace(string(b)), stateFormatVersion)
		}
	} else if os.IsNotExist(err) {
		if werr := os.WriteFile(vpath, []byte(strconv.Itoa(stateFormatVersion)+"\n"), 0o644); werr != nil {
			return nil, nil, 0, fmt.Errorf("grid: state dir: %w", werr)
		}
	} else {
		return nil, nil, 0, fmt.Errorf("grid: state dir: %w", err)
	}

	// Recover: the snapshot's records, then the journal's, through one
	// replay loop.
	var records []journalRecord
	torn := 0
	for _, name := range []string{"snapshot.wal", "journal.wal"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil && !os.IsNotExist(err) {
			return nil, nil, 0, fmt.Errorf("grid: state dir: %w", err)
		}
		var recs []journalRecord
		recs, torn = readJournal(b)
		if torn > 0 && name == "snapshot.wal" {
			// The snapshot is only ever published by atomic rename, so an
			// unreadable frame means external damage — refuse rather than
			// silently forget every sweep after it.
			return nil, nil, 0, fmt.Errorf("grid: corrupt snapshot %s: %d unreadable bytes", filepath.Join(dir, name), torn)
		}
		records = append(records, recs...)
	}
	recovered := replayState(records)

	st := &stateStore{dir: dir}
	// Compact: the merged state becomes the new baseline snapshot, and the
	// journal restarts empty (also clipping any torn tail off disk).
	if err := st.writeSnapshot(compact(recovered)); err != nil {
		return nil, nil, 0, err
	}
	f, err := os.OpenFile(filepath.Join(dir, "journal.wal"), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("grid: state dir: %w", err)
	}
	st.f = f
	return st, recovered, torn, nil
}

// readJournal parses the longest prefix of b made of intact frames and
// returns its records plus the count of bytes after that prefix: a torn
// final frame, or a corrupt one and everything after it, which is suspect
// too.
func readJournal(b []byte) ([]journalRecord, int) {
	var records []journalRecord
	off := 0
	for len(b)-off >= 8 {
		n := binary.BigEndian.Uint32(b[off:])
		sum := binary.BigEndian.Uint32(b[off+4:])
		if uint64(n) > uint64(len(b)-off-8) {
			break // torn final frame
		}
		payload := b[off+8 : off+8+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			break
		}
		var rec journalRecord
		if json.Unmarshal(payload, &rec) != nil {
			break
		}
		records = append(records, rec)
		off += 8 + int(n)
	}
	return records, len(b) - off
}

// appendFrame appends rec to b as one frame. It is the only encoder of
// durable state: journal appends and snapshots both go through it.
func appendFrame(b []byte, rec journalRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return b, fmt.Errorf("grid: journal encode: %w", err)
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...), nil
}

// replayState applies records in order, idempotently: duplicate opens, job
// re-adds and result re-deliveries (the crash window between snapshot
// rename and journal truncation replays records the snapshot already
// holds) coalesce to one copy, in original order.
func replayState(records []journalRecord) []recoveredSweep {
	byID := make(map[string]*recoveredSweep)
	var order []string
	for _, rec := range records {
		switch rec.Op {
		case opOpen:
			if _, ok := byID[rec.Sweep]; !ok {
				byID[rec.Sweep] = &recoveredSweep{ID: rec.Sweep, Nonce: rec.Nonce, Tenant: rec.Tenant,
					Jobs: make(map[int]sweep.Job), Incidents: make(map[int][]taskIncident),
					logged: make(map[int]bool)}
				order = append(order, rec.Sweep)
			}
		case opJob:
			if rs, ok := byID[rec.Sweep]; ok && rec.Job != nil {
				if _, dup := rs.Jobs[rec.Index]; !dup {
					rs.Jobs[rec.Index] = *rec.Job
				}
			}
		case opResult:
			if rs, ok := byID[rec.Sweep]; ok && rec.Result != nil {
				if !rs.logged[rec.Result.Index] {
					rs.logged[rec.Result.Index] = true
					rs.Log = append(rs.Log, *rec.Result)
				}
			}
		case opIncident:
			// Quarantine counts DISTINCT workers, so the duplicate entries a
			// snapshot-overlap replay produces cannot tip a job over the
			// threshold; no dedupe needed.
			if rs, ok := byID[rec.Sweep]; ok && rec.Worker != "" {
				rs.Incidents[rec.Index] = append(rs.Incidents[rec.Index],
					taskIncident{Worker: rec.Worker, Kind: rec.Kind, Message: rec.Message})
			}
		case opClose:
			delete(byID, rec.Sweep)
		}
	}
	out := make([]recoveredSweep, 0, len(byID))
	for _, id := range order {
		if rs, ok := byID[id]; ok {
			out = append(out, *rs)
		}
	}
	return out
}

// compact renders sweeps as the shortest record sequence that replays to
// them. Per sweep, in the given order: its opOpen; its opJobs in index
// order; its opResults in completion-log order, so client cursors index
// the same log after a restart; and opIncidents for the jobs with no result
// yet, sorted by (index, worker), so compaction is deterministic. History
// of completed jobs is dropped: it can no longer quarantine anything.
func compact(sweeps []recoveredSweep) []journalRecord {
	var recs []journalRecord
	for _, rs := range sweeps {
		recs = append(recs, journalRecord{Op: opOpen, Sweep: rs.ID, Nonce: rs.Nonce, Tenant: rs.Tenant})
		indexes := make([]int, 0, len(rs.Jobs))
		for idx := range rs.Jobs {
			indexes = append(indexes, idx)
		}
		sort.Ints(indexes)
		for _, idx := range indexes {
			j := rs.Jobs[idx]
			recs = append(recs, journalRecord{Op: opJob, Sweep: rs.ID, Index: idx, Job: &j})
		}
		done := make(map[int]bool, len(rs.Log))
		for i := range rs.Log {
			done[rs.Log[i].Index] = true
			recs = append(recs, journalRecord{Op: opResult, Sweep: rs.ID, Result: &rs.Log[i]})
		}
		var incidents []journalRecord
		for idx, hist := range rs.Incidents {
			if done[idx] {
				continue
			}
			for _, ti := range hist {
				incidents = append(incidents, journalRecord{Op: opIncident, Sweep: rs.ID, Index: idx,
					Worker: ti.Worker, Kind: ti.Kind, Message: ti.Message})
			}
		}
		sort.SliceStable(incidents, func(i, j int) bool {
			a, b := incidents[i], incidents[j]
			if a.Index != b.Index {
				return a.Index < b.Index
			}
			return a.Worker < b.Worker
		})
		recs = append(recs, incidents...)
	}
	return recs
}

// append journals one mutation. Failures are returned for the caller to
// log; the in-memory state is already authoritative, so a failed append
// degrades durability, not correctness of the running process.
func (st *stateStore) append(rec journalRecord) error {
	frame, err := appendFrame(nil, rec)
	if err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return fmt.Errorf("grid: journal closed")
	}
	// One Write call per frame: short writes on a local file are I/O
	// errors, not partial successes, and the whole frame going down
	// together keeps a concurrent append from interleaving mid-frame.
	if _, err := st.f.Write(frame); err != nil {
		return fmt.Errorf("grid: journal append: %w", err)
	}
	return nil
}

// writeSnapshot publishes records as snapshot.wal via temp+fsync+rename,
// so a crash at any point leaves either the old or the new snapshot intact.
func (st *stateStore) writeSnapshot(records []journalRecord) error {
	var b []byte
	for _, rec := range records {
		var err error
		if b, err = appendFrame(b, rec); err != nil {
			return err
		}
	}
	tmp, err := os.CreateTemp(st.dir, "snapshot-*.tmp")
	if err != nil {
		return fmt.Errorf("grid: snapshot: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		return fmt.Errorf("grid: snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("grid: snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("grid: snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(st.dir, "snapshot.wal")); err != nil {
		return fmt.Errorf("grid: snapshot: %w", err)
	}
	return nil
}

// close writes records as the final snapshot, truncates the journal (its
// contents are folded into the snapshot) and closes the file. Part of
// graceful shutdown; a kill -9 skips it and recovers from the journal.
func (st *stateStore) close(records []journalRecord) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil
	}
	st.closed = true
	err := st.writeSnapshot(records)
	if terr := st.f.Truncate(0); err == nil && terr != nil {
		err = fmt.Errorf("grid: journal truncate: %w", terr)
	}
	if cerr := st.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("grid: journal close: %w", cerr)
	}
	return err
}
