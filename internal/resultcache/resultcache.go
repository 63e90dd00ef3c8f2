// Package resultcache is a disk-backed content-addressed store for sweep
// results. Entries are keyed on sweep.Job.Hash — a stable SHA-256 over the
// job's canonical encoding (bench, mode, seed and the fully-normalized
// simulator configuration) — so an identical cell is never simulated twice
// across figure regenerations, seed-fan extensions or grid workers. All
// numeric result fields are integers, so a cached result reproduces sink
// output byte-identically to a fresh simulation.
//
// On-disk layout (versioned; Open refuses a directory written by a
// different format version):
//
//	<dir>/VERSION        # format version, one decimal line
//	<dir>/<kk>/<key>.json  # envelope{version, key, res}; kk = key[:2]
//
// Writes are atomic: entries are staged in a temp file in <dir> and
// renamed into place, so a crashed or concurrent writer can never publish
// a torn entry (concurrent Put of the same key is idempotent — both write
// identical bytes).
package resultcache

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"safespec/internal/core"
	"safespec/internal/sweep"
)

// FormatVersion is the on-disk format version. Bump it when the envelope or
// the result encoding changes incompatibly.
const FormatVersion = 1

// Cache is a content-addressed result store rooted at one directory. It is
// safe for concurrent use by multiple goroutines and multiple processes
// sharing the directory.
type Cache struct {
	dir string

	// readFault, when non-nil, transforms raw entry bytes right after they
	// are read from disk — a test seam for fault injection (see
	// internal/chaos), so corruption-tolerance tests exercise the same
	// verification path a flipped disk bit would.
	readFault func([]byte) []byte

	// hits/misses/puts/errs count Get/Put outcomes (errs counts corrupt or
	// unreadable entries and failed writes, which degrade to misses rather
	// than failing the sweep).
	hits, misses, puts, errs atomic.Uint64
}

// SetReadFault installs f as a read-time corruption hook (test seam; nil
// clears it). Set before concurrent use.
func (c *Cache) SetReadFault(f func([]byte) []byte) { c.readFault = f }

// Stats is a snapshot of the cache counters.
type Stats struct {
	Hits, Misses, Puts, Errors uint64
}

// envelope is the on-disk entry format. Sum is a CRC32-IEEE checksum
// (lowercase hex) over the result's canonical JSON encoding: a flipped bit
// inside a numeric field still parses as valid JSON, and without the
// checksum it would silently poison every sweep that hits the entry. An
// entry without a Sum is corrupt like any other checksum failure.
type envelope struct {
	Version int           `json:"version"`
	Key     string        `json:"key"`
	Sum     string        `json:"sum,omitempty"`
	Res     *core.Results `json:"res"`
}

// resSum is the checksum stored in envelope.Sum: CRC32-IEEE over the
// result's own JSON encoding (deterministic — all fields are ordered
// struct members). Verification re-encodes the parsed result, so any
// in-band damage that survived the JSON parse changes the digest.
func resSum(res *core.Results) (string, error) {
	b, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	return strconv.FormatUint(uint64(crc32.ChecksumIEEE(b)), 16), nil
}

// Open creates (or reuses) a cache directory, enforcing the format version.
func Open(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	vpath := filepath.Join(dir, "VERSION")
	b, err := os.ReadFile(vpath)
	switch {
	case err == nil:
		v, perr := strconv.Atoi(strings.TrimSpace(string(b)))
		if perr != nil || v != FormatVersion {
			return nil, fmt.Errorf("resultcache: %s holds format %q, this binary writes format %d",
				dir, strings.TrimSpace(string(b)), FormatVersion)
		}
	case os.IsNotExist(err):
		if werr := writeAtomic(dir, vpath, []byte(strconv.Itoa(FormatVersion)+"\n")); werr != nil {
			return nil, fmt.Errorf("resultcache: %w", werr)
		}
	default:
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache root.
func (c *Cache) Dir() string { return c.dir }

// path maps a key to its entry file, sharded on the first two hex digits so
// a full standard sweep never piles thousands of files into one directory.
func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key[:2], key+".json")
}

// Get returns the cached result for key, reporting whether it was present.
// A corrupt or mismatched entry is surfaced as an error; callers typically
// treat that as a miss and re-simulate.
func (c *Cache) Get(key string) (*core.Results, bool, error) {
	if len(key) < 2 {
		return nil, false, fmt.Errorf("resultcache: malformed key %q", key)
	}
	b, err := os.ReadFile(c.path(key))
	if os.IsNotExist(err) {
		c.misses.Add(1)
		return nil, false, nil
	}
	if err != nil {
		c.errs.Add(1)
		return nil, false, fmt.Errorf("resultcache: %w", err)
	}
	if c.readFault != nil {
		b = c.readFault(b)
	}
	var e envelope
	if err := json.Unmarshal(b, &e); err != nil {
		c.errs.Add(1)
		return nil, false, fmt.Errorf("resultcache: corrupt entry %s: %w", key, err)
	}
	if e.Version != FormatVersion || e.Key != key || e.Res == nil {
		c.errs.Add(1)
		return nil, false, fmt.Errorf("resultcache: entry %s does not match its address (version %d, key %q)",
			key, e.Version, e.Key)
	}
	if sum, serr := resSum(e.Res); serr != nil || sum != e.Sum {
		c.errs.Add(1)
		return nil, false, fmt.Errorf("resultcache: entry %s failed its checksum (bit rot or damaged write)", key)
	}
	c.hits.Add(1)
	return e.Res, true, nil
}

// Put stores res under key atomically. Only successful results are worth
// storing; callers must not cache errors (a failure is not content).
func (c *Cache) Put(key string, res *core.Results) error {
	if len(key) < 2 {
		return fmt.Errorf("resultcache: malformed key %q", key)
	}
	if res == nil {
		return fmt.Errorf("resultcache: refusing to store nil result under %s", key)
	}
	sum, err := resSum(res)
	if err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(envelope{Version: FormatVersion, Key: key, Sum: sum, Res: res}); err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	dst := c.path(key)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	if err := writeAtomic(c.dir, dst, buf.Bytes()); err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	c.puts.Add(1)
	return nil
}

// writeAtomic publishes data at dst via a temp file in dir and a rename
// (atomic within one filesystem).
func writeAtomic(dir, dst string, data []byte) error {
	tmp, err := os.CreateTemp(dir, "tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), dst)
}

// PruneStats reports one Prune pass.
type PruneStats struct {
	// Kept / KeptBytes count the entries surviving the pass.
	Kept      int
	KeptBytes int64
	// Evicted / EvictedBytes count the entries removed.
	Evicted      int
	EvictedBytes int64
}

// pruneEntry is one cache file considered for eviction.
type pruneEntry struct {
	path  string
	size  int64
	mtime time.Time
}

// Prune evicts entries oldest-first (by modification time; a cache hit does
// not refresh it, so age means "time since simulated") until the entries'
// total size fits maxBytes. The VERSION marker is never removed. Concurrent
// readers are safe: eviction is a plain unlink, and a reader that loses the
// race simply misses and re-simulates. It is the size-based GC behind
// `safespec-bench -cache-gc`.
func (c *Cache) Prune(maxBytes int64) (PruneStats, error) {
	var st PruneStats
	var entries []pruneEntry
	shards, err := os.ReadDir(c.dir)
	if err != nil {
		return st, fmt.Errorf("resultcache: %w", err)
	}
	for _, sh := range shards {
		if !sh.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(c.dir, sh.Name()))
		if err != nil {
			continue // shard vanished under us: nothing to evict there
		}
		for _, f := range files {
			if f.IsDir() || !strings.HasSuffix(f.Name(), ".json") {
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue
			}
			entries = append(entries, pruneEntry{
				path:  filepath.Join(c.dir, sh.Name(), f.Name()),
				size:  info.Size(),
				mtime: info.ModTime(),
			})
		}
	}
	// Oldest first; ties break on path so a pass is deterministic.
	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].mtime.Equal(entries[j].mtime) {
			return entries[i].mtime.Before(entries[j].mtime)
		}
		return entries[i].path < entries[j].path
	})
	var total int64
	for _, e := range entries {
		total += e.size
	}
	for _, e := range entries {
		if total <= maxBytes {
			st.Kept++
			st.KeptBytes += e.size
			continue
		}
		if err := os.Remove(e.path); err != nil && !os.IsNotExist(err) {
			return st, fmt.Errorf("resultcache: prune %s: %w", e.path, err)
		}
		total -= e.size
		st.Evicted++
		st.EvictedBytes += e.size
	}
	return st, nil
}

// CacheStats snapshots the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:   c.hits.Load(),
		Misses: c.misses.Load(),
		Puts:   c.puts.Load(),
		Errors: c.errs.Load(),
	}
}

// String renders the counters for the safespec-bench progress line; a warm
// run shows misses=0 (no cell was simulated).
func (c *Cache) String() string {
	s := c.Stats()
	return fmt.Sprintf("cache %s: hits=%d misses=%d stored=%d errors=%d",
		c.dir, s.Hits, s.Misses, s.Puts, s.Errors)
}

// Executor serves jobs from the cache and delegates misses to an inner
// executor (local simulation or the grid coordinator), storing fresh
// successful results on the way back. It implements sweep.Executor, so a
// cached sweep plugs into sweep.Run without any consumer changes, and
// sweep.Submitter, so a matrix announcement reaches an inner Submitter
// (the grid) carrying exactly the cache misses.
type Executor struct {
	cache *Cache
	inner sweep.Executor

	// announced holds one probe per index of the last announced matrix
	// (nil until Submit forwards an announcement).
	announced atomic.Pointer[[]probe]
}

// probe is one job's cache lookup: the hit it found, or the key to store a
// miss under and the miss's index in the matrix handed to the inner
// executor.
type probe struct {
	res      *core.Results // the hit; nil for a miss
	key      string        // "" when the job could not be hashed
	dense    int           // a miss's index among the forwarded misses
	lookupNS int64
}

// NewExecutor wraps inner (nil selects sweep.LocalExecutor) with the cache.
func NewExecutor(c *Cache, inner sweep.Executor) *Executor {
	if inner == nil {
		inner = sweep.LocalExecutor{}
	}
	return &Executor{cache: c, inner: inner}
}

// lookup hashes and looks up one job. An unhashable job counts as a cache
// error and a miss without a key.
func (e *Executor) lookup(j sweep.Job) probe {
	key, err := j.Hash()
	if err != nil {
		e.cache.errs.Add(1)
		return probe{}
	}
	start := time.Now()
	res, ok, _ := e.cache.Get(key)
	p := probe{key: key, lookupNS: int64(time.Since(start))}
	if ok {
		p.res = res
	}
	return p
}

// Submit implements sweep.Submitter. When the inner executor is a
// Submitter, it looks up every job once, keeps the hits, and announces the
// misses to the inner executor as one dense matrix (none at all when every
// job hits); Execute then serves each index from its probe. Otherwise it
// does nothing and Execute looks each job up as it comes.
func (e *Executor) Submit(ctx context.Context, jobs []sweep.Job) error {
	sub, ok := e.inner.(sweep.Submitter)
	if !ok {
		return nil
	}
	probes := make([]probe, len(jobs))
	var misses []sweep.Job
	for i, j := range jobs {
		probes[i] = e.lookup(j)
		if probes[i].res == nil {
			probes[i].dense = len(misses)
			misses = append(misses, j)
		}
	}
	if len(misses) > 0 {
		if err := sub.Submit(ctx, misses); err != nil {
			return err
		}
	}
	e.announced.Store(&probes)
	return nil
}

// Execute resolves one job: cache hit, or inner execution plus a store.
// Cache failures (unhashable job, corrupt entry, failed write) degrade to
// plain execution — a broken cache must never fail a sweep whose
// simulations succeed — and are visible in the Errors counter.
func (e *Executor) Execute(ctx context.Context, index int, j sweep.Job) (*core.Results, error) {
	res, _, err := e.ExecuteTimed(ctx, index, j)
	return res, err
}

// ExecuteTimed is Execute with a span breakdown: lookup and store time are
// attributed to the cache span, and a miss merges the inner executor's own
// spans (a hit has no simulate span at all). An announced index takes its
// probe and runs a miss at its dense index; any other index is looked up
// now and runs at its own index.
func (e *Executor) ExecuteTimed(ctx context.Context, index int, j sweep.Job) (*core.Results, *sweep.Timing, error) {
	var p probe
	at := index
	if ann := e.announced.Load(); ann != nil && index >= 0 && index < len(*ann) {
		p = (*ann)[index]
		at = p.dense
	} else {
		p = e.lookup(j)
	}
	t := &sweep.Timing{CacheNS: p.lookupNS}
	if p.res != nil {
		return p.res, t, nil
	}
	res, err := e.innerTimed(ctx, at, j, t)
	if err == nil && res != nil && p.key != "" {
		start := time.Now()
		perr := e.cache.Put(p.key, res)
		t.CacheNS += int64(time.Since(start))
		if perr != nil {
			e.cache.errs.Add(1)
		}
	}
	return res, t, err
}

// innerTimed delegates to the inner executor, merging its spans into t when
// it can attribute them (otherwise all inner time becomes the simulate
// span, which is what a bare LocalExecutor would report anyway).
func (e *Executor) innerTimed(ctx context.Context, index int, j sweep.Job, t *sweep.Timing) (*core.Results, error) {
	if timed, ok := e.inner.(sweep.TimedExecutor); ok {
		res, inner, err := timed.ExecuteTimed(ctx, index, j)
		if inner != nil {
			t.Add(*inner)
		}
		return res, err
	}
	start := time.Now()
	res, err := e.inner.Execute(ctx, index, j)
	t.SimulateNS += int64(time.Since(start))
	return res, err
}
