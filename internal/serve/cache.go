package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// CacheKey derives the content address of a canonicalized spec: the
// SHA-256 of a versioned canonical JSON rendering of every field that
// can change simulated results (scale, apps, sizes — the workloads
// carry their own fixed seeds; worker counts are wall-clock-only and
// excluded). Determinism of both engines makes this sound: identical
// keys imply byte-identical result payloads.
func CacheKey(spec JobSpec) string {
	canon := struct {
		V     int      `json:"v"`
		Scale string   `json:"scale"`
		Apps  []string `json:"apps"`
		Sizes []int    `json:"sizes"`
	}{V: 1, Scale: spec.Scale, Apps: spec.Apps, Sizes: spec.Sizes}
	b, err := json.Marshal(canon)
	if err != nil {
		// Marshalling a struct of strings and ints cannot fail.
		panic(fmt.Sprintf("serve: canonical spec marshal: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// cacheEntry is the on-disk envelope: the payload plus enough
// self-description to verify it. SHA256 is the hex digest of exactly
// the Payload bytes; Key repeats the content address so a renamed or
// cross-linked file is detected.
type cacheEntry struct {
	Key     string          `json:"key"`
	SHA256  string          `json:"sha256"`
	Payload json.RawMessage `json:"payload"`
}

// CacheStats are the cache's monotonic counters plus its current
// occupancy against the byte budget.
type CacheStats struct {
	Hits         uint64 `json:"hits"`
	Misses       uint64 `json:"misses"`
	Writes       uint64 `json:"writes"`
	Quarantined  uint64 `json:"quarantined"`
	Evictions    uint64 `json:"evictions"`
	EvictedBytes uint64 `json:"evicted_bytes"`
	Entries      int    `json:"entries"`
	Bytes        int64  `json:"bytes"`
	MaxBytes     int64  `json:"max_bytes,omitempty"`
}

// cacheMeta is the in-memory index entry backing LRU-by-bytes
// eviction. atime is mirrored to the entry file's mtime on every hit
// (best-effort), so recency survives a restart: OpenCache rebuilds the
// index from file sizes and mtimes.
type cacheMeta struct {
	bytes int64
	atime time.Time
}

// Cache is the crash-safe content-addressed run cache. Crash-safety
// invariants:
//
//   - an entry becomes visible only through write-to-temp + fsync +
//     atomic rename (+ directory fsync), so a crash — kill -9
//     included — at any instant leaves either no entry or a complete
//     one, never a readable torn write;
//   - every read re-verifies the embedded SHA-256 against the payload
//     and the key against the filename; anything that fails is
//     quarantined (moved aside for forensics), counted, and treated
//     as a miss — corrupt bytes are never trusted, and the
//     deterministic engines simply recompute;
//   - leftover temp files from crashed writers are swept on open.
//
// Disk use is bounded on both sides: objects/ is evicted LRU-by-bytes
// against maxBytes (recency persisted via mtime, so eviction order
// survives restart), and quarantine/ is trimmed oldest-first against
// quarMaxBytes so corrupt entries cannot fill the disk either.
type Cache struct {
	dir                               string
	maxBytes                          int64 // <= 0: unbounded
	quarMax                           int64 // <= 0: unbounded
	mu                                sync.Mutex
	index                             map[string]*cacheMeta
	total                             int64
	hits, misses, writes, quarantined atomic.Uint64
	evictions, evictedBytes           atomic.Uint64
}

// OpenCache opens (creating if needed) a cache rooted at dir, sweeps
// temp files abandoned by crashed writers, and rebuilds the LRU index
// from entry sizes and mtimes so the eviction order survives restarts.
// maxBytes <= 0 leaves objects/ unbounded; quarMaxBytes <= 0 leaves
// quarantine/ unbounded.
func OpenCache(dir string, maxBytes, quarMaxBytes int64) (*Cache, error) {
	for _, d := range []string{dir, filepath.Join(dir, "objects"), filepath.Join(dir, "quarantine")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("serve: cache dir: %w", err)
		}
	}
	c := &Cache{dir: dir, maxBytes: maxBytes, quarMax: quarMaxBytes, index: map[string]*cacheMeta{}}
	matches, _ := filepath.Glob(filepath.Join(dir, "objects", "*"))
	for _, m := range matches {
		base := filepath.Base(m)
		if strings.HasPrefix(base, tmpPrefix) {
			// Abandoned temp files are invisible to Get (never renamed
			// in); sweeping them keeps the directory from growing.
			os.Remove(m)
			continue
		}
		key, ok := strings.CutSuffix(base, ".json")
		if !ok {
			continue
		}
		st, err := os.Stat(m)
		if err != nil {
			continue
		}
		c.index[key] = &cacheMeta{bytes: st.Size(), atime: st.ModTime()}
		c.total += st.Size()
	}
	c.mu.Lock()
	c.evictLocked()
	c.mu.Unlock()
	return c, nil
}

const tmpPrefix = ".tmp-"

// path maps a key to its entry file.
func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, "objects", key+".json")
}

// Stats snapshots the counters and occupancy.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	entries, bytes := len(c.index), c.total
	c.mu.Unlock()
	return CacheStats{
		Hits:         c.hits.Load(),
		Misses:       c.misses.Load(),
		Writes:       c.writes.Load(),
		Quarantined:  c.quarantined.Load(),
		Evictions:    c.evictions.Load(),
		EvictedBytes: c.evictedBytes.Load(),
		Entries:      entries,
		Bytes:        bytes,
		MaxBytes:     c.maxBytes,
	}
}

// Get returns the verified payload for key, or ok=false on a miss.
// A present-but-corrupt entry (torn write that somehow became
// visible, bit rot, truncation, wrong key) is quarantined and
// reported as a miss. A hit refreshes the entry's recency, in memory
// and on disk (mtime), so LRU eviction tracks real access patterns
// across restarts.
func (c *Cache) Get(key string) (payload []byte, ok bool) {
	if c == nil {
		return nil, false
	}
	raw, err := os.ReadFile(c.path(key))
	if err != nil {
		c.misses.Add(1)
		return nil, false
	}
	var ent cacheEntry
	if err := json.Unmarshal(raw, &ent); err != nil {
		c.quarantine(key, "undecodable")
		return nil, false
	}
	sum := sha256.Sum256(ent.Payload)
	if ent.Key != key || ent.SHA256 != hex.EncodeToString(sum[:]) {
		c.quarantine(key, "checksum")
		return nil, false
	}
	c.hits.Add(1)
	now := time.Now()
	c.mu.Lock()
	if m, ok := c.index[key]; ok {
		m.atime = now
	} else {
		// Written by another process (or raced with open): adopt it.
		c.index[key] = &cacheMeta{bytes: int64(len(raw)), atime: now}
		c.total += int64(len(raw))
	}
	c.mu.Unlock()
	os.Chtimes(c.path(key), now, now) // best-effort persistent atime
	return ent.Payload, true
}

// quarantine moves a corrupt entry aside — never deletes it (it is
// evidence), never leaves it where a later Get would re-trust it —
// then trims quarantine/ against its own byte budget.
func (c *Cache) quarantine(key, why string) {
	c.quarantined.Add(1)
	c.misses.Add(1)
	dst := filepath.Join(c.dir, "quarantine",
		fmt.Sprintf("%s.%s.%d", key, why, time.Now().UnixNano()))
	if err := os.Rename(c.path(key), dst); err != nil {
		// Rename failed (e.g. raced with another quarantine): remove
		// so the corrupt bytes cannot be served.
		os.Remove(c.path(key))
	}
	c.dropIndex(key)
	c.trimQuarantine()
}

// dropIndex forgets key's index entry.
func (c *Cache) dropIndex(key string) {
	c.mu.Lock()
	if m, ok := c.index[key]; ok {
		c.total -= m.bytes
		delete(c.index, key)
	}
	c.mu.Unlock()
}

// trimQuarantine deletes the oldest quarantine files until the
// directory fits its byte budget. Quarantined entries are forensic
// evidence, not service state, so bounding them by deletion is safe.
func (c *Cache) trimQuarantine() {
	if c.quarMax <= 0 {
		return
	}
	matches, _ := filepath.Glob(filepath.Join(c.dir, "quarantine", "*"))
	type qf struct {
		path  string
		bytes int64
		mtime time.Time
	}
	var files []qf
	var total int64
	for _, m := range matches {
		st, err := os.Stat(m)
		if err != nil {
			continue
		}
		files = append(files, qf{m, st.Size(), st.ModTime()})
		total += st.Size()
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mtime.Before(files[j].mtime) })
	for _, f := range files {
		if total <= c.quarMax {
			break
		}
		if os.Remove(f.path) == nil {
			total -= f.bytes
		}
	}
}

// evictLocked removes least-recently-used entries until the cache fits
// its byte budget. Called with c.mu held.
func (c *Cache) evictLocked() {
	if c.maxBytes <= 0 {
		return
	}
	for c.total > c.maxBytes && len(c.index) > 0 {
		var victim string
		var oldest time.Time
		for key, m := range c.index {
			if victim == "" || m.atime.Before(oldest) || (m.atime.Equal(oldest) && key < victim) {
				victim, oldest = key, m.atime
			}
		}
		m := c.index[victim]
		os.Remove(c.path(victim))
		c.total -= m.bytes
		delete(c.index, victim)
		c.evictions.Add(1)
		c.evictedBytes.Add(uint64(m.bytes))
	}
}

// Put stores payload under key with the crash-safe protocol, then
// enforces the byte budget (the just-written entry is the most
// recent, so it is evicted only if it alone exceeds the budget).
//
// All file I/O — including the two fsyncs — runs outside c.mu, so a
// slow disk cannot stall Get/Stats/eviction behind a writer (lockheld
// flags fsync-under-lock for exactly this reason). That means two
// goroutines can race Put for the same key: both write temps and
// rename, which is fine — determinism means they wrote identical
// bytes, so whichever rename lands last changes nothing — and the
// index update below counts the entry once no matter how many writers
// raced.
func (c *Cache) Put(key string, payload []byte) error {
	if c == nil {
		return nil
	}
	if _, err := os.Stat(c.path(key)); err == nil {
		return nil // already present; identical by determinism
	}
	sum := sha256.Sum256(payload)
	ent := cacheEntry{Key: key, SHA256: hex.EncodeToString(sum[:]), Payload: payload}
	raw, err := json.Marshal(ent)
	if err != nil {
		return fmt.Errorf("serve: cache entry marshal: %w", err)
	}
	objects := filepath.Join(c.dir, "objects")
	tmp, err := os.CreateTemp(objects, tmpPrefix+key+"-*")
	if err != nil {
		return fmt.Errorf("serve: cache temp: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		return fmt.Errorf("serve: cache write: %w", err)
	}
	// fsync before rename: the entry's bytes must be durable before
	// the entry becomes visible, or a power cut could expose a name
	// pointing at unwritten data.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("serve: cache fsync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("serve: cache close: %w", err)
	}
	if err := os.Rename(tmpName, c.path(key)); err != nil {
		return fmt.Errorf("serve: cache rename: %w", err)
	}
	// fsync the directory so the rename itself survives a crash.
	if d, err := os.Open(objects); err == nil {
		d.Sync()
		d.Close()
	}
	c.writes.Add(1)
	c.mu.Lock()
	if old, ok := c.index[key]; ok {
		// Raced with another writer (or a Get that adopted the entry):
		// the file holds one copy of identical bytes, so replace the
		// old accounting rather than double-counting c.total.
		c.total -= old.bytes
	}
	c.index[key] = &cacheMeta{bytes: int64(len(raw)), atime: time.Now()}
	c.total += int64(len(raw))
	c.evictLocked()
	c.mu.Unlock()
	return nil
}

// Len counts committed entries (test and metrics helper).
func (c *Cache) Len() int {
	matches, _ := filepath.Glob(filepath.Join(c.dir, "objects", "*.json"))
	n := 0
	for _, m := range matches {
		if !strings.HasPrefix(filepath.Base(m), tmpPrefix) {
			n++
		}
	}
	return n
}
