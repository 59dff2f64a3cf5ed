// Persistent on-disk result cache: the cross-run half of the fleet's
// memoization.
//
// The in-memory Cache makes repeated structures within one run free;
// the DiskCache makes repeated *runs* free. Entries are content
// addressed — the file name is a hash of (format version, structural
// fingerprint, configuration key) — so invalidation is by key
// construction exactly like the memory cache: an edited circuit moves
// its fingerprint, a changed process model or lint setup moves the
// config key, and a new cache format version orphans every old entry.
// Stale entries are never looked up again and are reclaimed by the
// size-bounded LRU GC (`fcv cache gc`), not by any explicit
// invalidation step.
//
// Robustness contract: a cache directory is advisory state. Loads
// tolerate truncated, corrupt, mismatched or concurrently-rewritten
// entries by treating them as misses (and deleting the bad file);
// writes are atomic (temp + fsync + rename) so a reader never observes
// a partial entry; two processes sharing one directory race only on
// whole files, which rename makes safe.
package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netlist"
	"repro/internal/obs"
)

// DiskCacheVersion identifies the entry format AND the verification
// semantics that produced it. Bump it whenever the pipeline's outcomes
// can change for an unchanged (fingerprint, config) pair — a new check,
// a fixed delay model — and every stale entry becomes unreachable.
const DiskCacheVersion = "fcv-diskcache/v1"

// DiskCache is a persistent verification result cache rooted at one
// directory. Safe for concurrent use within a process and between
// processes sharing the directory. The zero value is not usable;
// construct with OpenDiskCache.
type DiskCache struct {
	dir string

	// Lifetime tallies (since open), surfaced by Stats and `fcv cache`.
	hits, misses, writes, evicts, corrupts atomic.Int64

	gcMu sync.Mutex // serializes GC scans within the process

	// keyLocks stripe per-entry serialization across load, store and GC
	// removal — the disk layer's analogue of the memory cache's per-key
	// once. Without it a long-lived daemon and a GC (`fcv cache gc`
	// logic running in-process) can interleave on one entry: GC's Remove
	// lands on a file a store just refreshed (evicting the *newest*
	// entry), or load's corrupt-eviction Remove deletes a valid entry a
	// concurrent store re-wrote after load read the stale bytes. Striped
	// by path hash; collisions only add serialization, never unsafety.
	keyLocks [64]sync.Mutex
}

// keyLock returns the stripe guarding one entry path.
func (d *DiskCache) keyLock(path string) *sync.Mutex {
	var h uint32 = 2166136261
	for i := 0; i < len(path); i++ {
		h = (h ^ uint32(path[i])) * 16777619
	}
	return &d.keyLocks[h%uint32(len(d.keyLocks))]
}

// OpenDiskCache opens (creating if needed) a cache directory.
func OpenDiskCache(dir string) (*DiskCache, error) {
	if dir == "" {
		return nil, errors.New("fleet: empty disk cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: open disk cache: %w", err)
	}
	return &DiskCache{dir: dir}, nil
}

// Dir returns the cache's root directory.
func (d *DiskCache) Dir() string { return d.dir }

// diskEntry is the serialized verification outcome: the memory cache's
// Record, under a header naming the key and format it belongs to.
type diskEntry struct {
	Version     string `json:"version"`
	Fingerprint string `json:"fingerprint"`
	ConfigKey   string `json:"config_key"`
	Record
}

// entryPath is the content address: sha256 over version, fingerprint
// and config key, fanned out over 256 subdirectories.
func (d *DiskCache) entryPath(fp netlist.Fingerprint, cfg string) string {
	h := sha256.New()
	h.Write([]byte(DiskCacheVersion))
	h.Write([]byte{0})
	h.Write(fp[:])
	h.Write([]byte{0})
	h.Write([]byte(cfg))
	name := hex.EncodeToString(h.Sum(nil))
	return filepath.Join(d.dir, name[:2], name[2:]+".json")
}

// diskOutcome classifies one load. The zero value means no disk layer
// was consulted (memory-only caching).
type diskOutcome int

const (
	diskNone diskOutcome = iota
	diskHit
	diskMiss
	// diskCorrupt is a miss caused by an unreadable, truncated or
	// mismatched entry; the bad file has been evicted.
	diskCorrupt
)

// load fetches the entry for (fp, cfg). A hit refreshes the entry's
// mtime so GC's LRU ordering tracks use, not just creation. The whole
// read-judge-evict sequence holds the entry's key lock so a concurrent
// store or GC on the same key cannot interleave (see keyLocks).
func (d *DiskCache) load(fp netlist.Fingerprint, cfg string) (*Record, diskOutcome) {
	path := d.entryPath(fp, cfg)
	mu := d.keyLock(path)
	mu.Lock()
	defer mu.Unlock()
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			d.misses.Add(1)
			return nil, diskMiss
		}
		d.corrupts.Add(1)
		os.Remove(path)
		return nil, diskCorrupt
	}
	var e diskEntry
	if err := json.Unmarshal(data, &e); err != nil ||
		e.Version != DiskCacheVersion ||
		e.Fingerprint != fp.String() ||
		e.ConfigKey != cfg {
		// Truncated write, foreign format, version skew, or a hash
		// collision across keys: all are treated as "this entry does
		// not exist" and the file is reclaimed.
		d.corrupts.Add(1)
		os.Remove(path)
		return nil, diskCorrupt
	}
	d.hits.Add(1)
	now := obs.Now()
	os.Chtimes(path, now, now) // best effort: LRU recency
	return &e.Record, diskHit
}

// store persists a completed verification record. Errors are advisory
// — a failed store leaves the cache exactly as it was.
func (d *DiskCache) store(fp netlist.Fingerprint, cfg string, rec *Record) error {
	data, err := json.Marshal(&diskEntry{
		Version:     DiskCacheVersion,
		Fingerprint: fp.String(),
		ConfigKey:   cfg,
		Record:      *rec,
	})
	if err != nil {
		return fmt.Errorf("fleet: disk cache marshal: %w", err)
	}
	path := d.entryPath(fp, cfg)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("fleet: disk cache store: %w", err)
	}
	// The write holds the key lock so a concurrent load or GC removal
	// of this entry serializes against it.
	mu := d.keyLock(path)
	mu.Lock()
	err = obs.WriteFileAtomic(path, data)
	mu.Unlock()
	if err != nil {
		return fmt.Errorf("fleet: disk cache store: %w", err)
	}
	d.writes.Add(1)
	return nil
}

// diskFile is one entry in a GC/Stats scan.
type diskFile struct {
	path  string
	size  int64
	mtime time.Time
}

// scan lists every entry file under the cache root.
func (d *DiskCache) scan() ([]diskFile, error) {
	var files []diskFile
	err := filepath.WalkDir(d.dir, func(path string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() || filepath.Ext(path) != ".json" {
			return err
		}
		info, ierr := de.Info()
		if ierr != nil {
			return nil // raced with an eviction: skip
		}
		files = append(files, diskFile{path: path, size: info.Size(), mtime: info.ModTime()})
		return nil
	})
	return files, err
}

// testHookGCScan, when non-nil, runs between GC's directory scan and
// its first removal — a seam for the regression tests to interleave a
// store/load with an in-flight GC deterministically.
var testHookGCScan func()

// GC evicts least-recently-used entries until the cache's total size
// is at most maxBytes (0 removes everything). Returns the number of
// entries removed and the bytes freed.
//
// Eviction is per-key race-safe: each removal holds the entry's key
// lock and re-checks the file's mtime against the scan snapshot first.
// An entry touched since the scan — a store rewrote it, or a load's
// hit refreshed its recency — is no longer the LRU candidate the scan
// judged it to be and is skipped, so a GC racing a live daemon can
// never evict an entry that just became the cache's freshest.
func (d *DiskCache) GC(maxBytes int64) (removed int, freed int64, err error) {
	d.gcMu.Lock()
	defer d.gcMu.Unlock()
	files, err := d.scan()
	if err != nil {
		return 0, 0, fmt.Errorf("fleet: disk cache gc: %w", err)
	}
	if testHookGCScan != nil {
		testHookGCScan()
	}
	var total int64
	for _, f := range files {
		total += f.size
	}
	if total <= maxBytes {
		return 0, 0, nil
	}
	sort.Slice(files, func(i, j int) bool {
		if !files[i].mtime.Equal(files[j].mtime) {
			return files[i].mtime.Before(files[j].mtime)
		}
		return files[i].path < files[j].path
	})
	for _, f := range files {
		if total <= maxBytes {
			break
		}
		mu := d.keyLock(f.path)
		mu.Lock()
		info, statErr := os.Stat(f.path)
		if statErr != nil {
			mu.Unlock()
			continue // another process got it first
		}
		if !info.ModTime().Equal(f.mtime) {
			mu.Unlock()
			continue // touched since the scan: recently used, not LRU
		}
		rmErr := os.Remove(f.path)
		mu.Unlock()
		if rmErr != nil {
			continue
		}
		total -= f.size
		freed += f.size
		removed++
		d.evicts.Add(1)
	}
	return removed, freed, nil
}

// DiskStats is a point-in-time view of a cache directory plus the
// lifetime traffic tallies of this DiskCache handle.
type DiskStats struct {
	Dir     string `json:"dir"`
	Entries int    `json:"entries"`
	Bytes   int64  `json:"bytes"`
	Hits    int64  `json:"hits"`
	Misses  int64  `json:"misses"`
	Writes  int64  `json:"writes"`
	Evicts  int64  `json:"evicts"`
	Corrupt int64  `json:"corrupt"`
}

// Stats scans the directory and reports entry count, total bytes and
// the handle's lifetime hit/miss/write/evict/corrupt counts.
func (d *DiskCache) Stats() (DiskStats, error) {
	files, err := d.scan()
	if err != nil {
		return DiskStats{}, fmt.Errorf("fleet: disk cache stats: %w", err)
	}
	st := DiskStats{
		Dir:     d.dir,
		Entries: len(files),
		Hits:    d.hits.Load(),
		Misses:  d.misses.Load(),
		Writes:  d.writes.Load(),
		Evicts:  d.evicts.Load(),
		Corrupt: d.corrupts.Load(),
	}
	for _, f := range files {
		st.Bytes += f.size
	}
	return st, nil
}
