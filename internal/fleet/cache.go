package fleet

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/checks"
	"repro/internal/core"
	"repro/internal/hier"
	"repro/internal/lru"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// StoreBudget is the byte budget NewCache gives its store: lru.Budget,
// which tests shrink to drive eviction.
var StoreBudget int64 = lru.Budget

// Cache is the verifier's bounded memory, for one CLI run or a daemon's
// whole lifetime: one lru store, trimmed to StoreBudget when a run
// ends, holding every memo table as a typed view — verification
// records, the hier side-tables and fingerprint memo, and whatever the
// owner adds through Store (the daemon's parsed decks).
//
// Records are keyed on structural fingerprint plus configuration key
// and admitted singleflight: when several workers race on one key,
// exactly one verifies and the rest block on its entry. A run pins
// every record it looks up until it ends, so hit/miss counts are
// deterministic for a given corpus at any -j. Invalidation is by key
// construction — an edit moves the fingerprint, an option change the
// config key — and stale entries age out of the LRU; an evicted entry
// is re-derived on next use.
type Cache struct {
	store   *lru.Cache[any, any]
	records lru.View[cacheKey, *cacheEntry]

	// Hierarchical composition side-tables: a subcell's port interface
	// and boundary findings are pure functions of its DAG content and
	// the inlining cutoff that shaped its scope, so a warm re-verify
	// replays them instead of re-deriving untouched cells.
	ifcs   lru.View[hierKey, *hier.Interface]
	bounds lru.View[boundKey, []obs.Finding]

	// hierMemo short-circuits HierFingerprint's per-cell refinement for
	// cells whose content and child labels it has seen before.
	hierMemo *netlist.HierFPMemo
}

type cacheKey struct {
	fp  netlist.Fingerprint
	cfg string
}

// hierKey identifies a subcell's composition derivatives: its DAG
// fingerprint and the HierInline cutoff. boundKey gives the boundary
// table its own key type in the store.
type hierKey struct {
	fp     netlist.Fingerprint
	cutoff int
}

type boundKey hierKey

// Record is the compact outcome of one verification — verdict, inspect
// load, timing summary, provenanced findings — without the recognized
// circuit a core.Report drags along. The memory and disk caches hold
// the same record, and every Result is built from one.
type Record struct {
	Design      string         `json:"design"`
	Verdict     checks.Verdict `json:"verdict"`
	InspectLoad int            `json:"inspect_load"`
	MinPeriodPS float64        `json:"min_period_ps"`
	Races       int            `json:"races"`
	Paths       int            `json:"paths"`
	Findings    []obs.Finding  `json:"findings"`
}

// verifyRecord runs the CBV pipeline and condenses its report.
func verifyRecord(c *netlist.Circuit, opt core.Options) (*Record, error) {
	rep, err := core.Verify(c, opt)
	if err != nil {
		return nil, err
	}
	r := &Record{
		Design:      rep.Design,
		Verdict:     rep.Verdict,
		InspectLoad: rep.InspectLoad,
		Findings:    rep.Findings(),
	}
	if rep.Timing != nil {
		r.MinPeriodPS = rep.Timing.MinPeriodPS
		r.Races = len(rep.Timing.Races)
		r.Paths = len(rep.Timing.Paths)
	}
	return r, nil
}

// findingsBytes estimates the memory a finding slice holds, header
// included, so even an empty slice costs something to keep. Source,
// Check, Severity and Unit are shared constants; an evidence name is
// counted as its string header plus a short name.
func findingsBytes(fs []obs.Finding) int64 {
	n := int(unsafe.Sizeof(fs)) + cap(fs)*int(unsafe.Sizeof(obs.Finding{}))
	for _, f := range fs {
		n += len(f.ID) + len(f.Subject) + len(f.Detail) + len(f.Evidence.Context) +
			32*(len(f.Evidence.Devices)+len(f.Evidence.Nets))
	}
	return int64(n)
}

// cacheEntry carries the creating caller's circuit and options into the
// once body, so the verification — and its telemetry spans — always
// attribute to the item whose lookup created the entry (the run's
// deterministic miss), even when a concurrent hit wins the race to
// execute the once. done flips after the once completes, letting later
// callers distinguish a settled hit from blocking on an in-flight run.
type cacheEntry struct {
	once    sync.Once
	done    atomic.Bool
	circuit func() (*netlist.Circuit, error)
	opt     core.Options
	rec     *Record
	err     error

	// How the disk lookup went and whether the write landed (set inside
	// the once when a DiskCache was attached).
	disk      diskOutcome
	diskWrote bool
}

// bytes is the entry's accounted footprint in the store.
func (e *cacheEntry) bytes() int64 {
	if e.rec == nil {
		return int64(unsafe.Sizeof(*e))
	}
	return int64(unsafe.Sizeof(*e)+unsafe.Sizeof(*e.rec)+uintptr(len(e.rec.Design))) + findingsBytes(e.rec.Findings)
}

// NewCache returns an empty verification cache.
func NewCache() *Cache {
	s := lru.New[any, any](StoreBudget)
	return &Cache{
		store:    s,
		records:  lru.View[cacheKey, *cacheEntry]{S: s},
		ifcs:     lru.View[hierKey, *hier.Interface]{S: s},
		bounds:   lru.View[boundKey, []obs.Finding]{S: s},
		hierMemo: netlist.NewHierFPMemoIn(s),
	}
}

// Store returns the cache's store, so an owner keeps its own memo
// tables under the same budget.
func (c *Cache) Store() *lru.Cache[any, any] { return c.store }

// HierFingerprint builds the fingerprint DAG of the hierarchy rooted at
// top through the cache's per-cell memo.
func (c *Cache) HierFingerprint(lib *netlist.Library, top *netlist.Circuit) (*netlist.HierFP, error) {
	return lib.HierFingerprintMemo(top, c.hierMemo)
}

// Len returns the number of distinct (fingerprint, config) entries.
func (c *Cache) Len() int { return c.records.Len() }

// verify returns the memoized entry for the circuit, resolving it
// under the entry's once on first sight of the key, and pins it until
// the run's release. The lookup itself runs inside inTurn, which orders
// it among the run's items. fresh is true for the single caller whose
// lookup created the entry — the run's miss; every other caller is a
// hit. inflight is true for hits that had to block on the resolution.
//
// The circuit provider runs only when the outcome must be computed —
// never on a memory or disk hit — which is what makes lazy items
// (Item.Lazy) effective. With a disk layer the once body consults it
// first: a hit replays the stored record, a miss verifies and stores
// it (errored outcomes are never persisted, so a transient failure
// cannot poison future runs). The disk I/O inside the once keeps disk
// hit/miss counts singleflight-deterministic at any worker count.
func (c *Cache) verify(fp netlist.Fingerprint, cfg string, circuit func() (*netlist.Circuit, error), opt core.Options, disk *DiskCache, inTurn func(lookup func())) (e *cacheEntry, fresh, inflight bool) {
	key := cacheKey{fp: fp, cfg: cfg}
	inTurn(func() {
		var x any
		x, fresh = c.store.Pin(key, func() any { return &cacheEntry{circuit: circuit, opt: opt} })
		e = x.(*cacheEntry)
		inflight = !fresh && !e.done.Load()
	})
	e.once.Do(func() {
		if disk != nil {
			e.rec, e.disk = disk.load(fp, cfg)
		}
		if e.rec == nil {
			var circ *netlist.Circuit
			if circ, e.err = e.circuit(); e.err == nil {
				e.rec, e.err = verifyRecord(circ, e.opt)
			}
			if disk != nil && e.err == nil {
				e.diskWrote = disk.store(fp, cfg, e.rec) == nil
			}
		}
		e.circuit, e.opt = nil, core.Options{} // release the inputs
		c.records.Put(key, e, e.bytes())
		e.done.Store(true)
	})
	return e, fresh, inflight
}

// release unpins the records a finished run looked up — every result
// with a fingerprint; the others failed before the lookup — and trims
// the store back to its budget.
func (c *Cache) release(results []Result, cfg string) {
	for i := range results {
		if fp := results[i].Fingerprint; fp != (netlist.Fingerprint{}) {
			c.store.Unpin(cacheKey{fp: fp, cfg: cfg})
		}
	}
	c.store.Trim()
}
