// Package lru is the verifier's one in-memory retention policy: a
// least-recently-used store with a byte budget. Every memo table of the
// fleet and the daemon lives in one store as a typed View, so one
// budget bounds them all. Get and Put never evict; only Trim does, and
// never a pinned entry, so an owner that trims when a run ends and pins
// what the run looked up keeps its hit/miss counts scheduling-free.
package lru

import "sync"

// Budget is the byte budget of the verifier's store. It holds a whole
// 160-request daemon edit session of a 2200-device hierarchy (about
// 65 MiB, mostly parsed decks) without evicting.
const Budget = 128 << 20

type entry[K comparable, V any] struct {
	key        K
	val        V
	size       int64
	pins       int
	prev, next *entry[K, V]
}

// Cache is a byte-budgeted LRU store, safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu        sync.Mutex
	budget    int64
	bytes     int64
	evictions int64
	m         map[K]*entry[K, V]
	root      entry[K, V] // ring sentinel: root.next is the most recent entry
}

// New returns an empty store that Trim keeps within budget bytes.
func New[K comparable, V any](budget int64) *Cache[K, V] {
	c := &Cache[K, V]{budget: budget, m: make(map[K]*entry[K, V])}
	c.root.next, c.root.prev = &c.root, &c.root
	return c
}

// front (re)links e as the most recently used entry.
func (c *Cache[K, V]) front(e *entry[K, V]) {
	if e.prev != nil {
		e.prev.next, e.next.prev = e.next, e.prev
	}
	e.prev, e.next = &c.root, c.root.next
	e.prev.next, e.next.prev = e, e
}

// Get returns the value stored under k and marks it most recently used.
func (c *Cache[K, V]) Get(k K) (v V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.m[k]; e != nil {
		c.front(e)
		v, ok = e.val, true
	}
	return v, ok
}

// Put stores v under k, accounted at size bytes, and marks it most
// recently used. A value already under k is replaced; its pins stay.
func (c *Cache[K, V]) Put(k K, v V, size int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.m[k]
	if e == nil {
		e = &entry[K, V]{key: k}
		c.m[k] = e
	}
	c.bytes += size - e.size
	e.val, e.size = v, size
	c.front(e)
}

// Pin returns the value under k, first storing mk() at size 0 when k is
// absent (created reports that), and pins it against Trim until a
// matching Unpin. Put sets its size once known.
func (c *Cache[K, V]) Pin(k K, mk func() V) (v V, created bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.m[k]
	if e == nil {
		e = &entry[K, V]{key: k, val: mk()}
		c.m[k] = e
		created = true
	}
	e.pins++
	c.front(e)
	return e.val, created
}

// Unpin releases one Pin of k.
func (c *Cache[K, V]) Unpin(k K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.m[k]; e != nil && e.pins > 0 {
		e.pins--
	}
}

// Trim evicts least-recently-used unpinned entries until the store fits
// its budget, and returns how many it evicted.
func (c *Cache[K, V]) Trim() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for e := c.root.prev; e != &c.root && c.bytes > c.budget; {
		prev := e.prev
		if e.pins == 0 {
			e.prev.next, e.next.prev = e.next, e.prev
			delete(c.m, e.key)
			c.bytes -= e.size
			n++
		}
		e = prev
	}
	c.evictions += int64(n)
	return n
}

// Stats is a point-in-time view of a store; Evictions is lifetime.
type Stats struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Evictions int64 `json:"evictions"`
}

// Stats snapshots the store.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Entries: len(c.m), Bytes: c.bytes, Evictions: c.evictions}
}

// View is one typed memo table in a shared store; each table declares
// its own key type, and keys of distinct types never collide.
type View[K comparable, V any] struct{ S *Cache[any, any] }

// Get is Cache.Get for the table.
func (v View[K, V]) Get(k K) (val V, ok bool) {
	if x, hit := v.S.Get(k); hit {
		val, ok = x.(V), true
	}
	return val, ok
}

// Put is Cache.Put for the table.
func (v View[K, V]) Put(k K, val V, size int64) { v.S.Put(k, val, size) }

// Len counts the table's entries.
func (v View[K, V]) Len() (n int) {
	v.S.mu.Lock()
	defer v.S.mu.Unlock()
	for k := range v.S.m {
		if _, ok := k.(K); ok {
			n++
		}
	}
	return n
}
