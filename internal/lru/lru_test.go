package lru

import (
	"fmt"
	"sync"
	"testing"
)

// keys lists the store's keys from most to least recently used.
func keys[K comparable, V any](c *Cache[K, V]) []K {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []K
	for e := c.root.next; e != &c.root; e = e.next {
		out = append(out, e.key)
	}
	return out
}

// TestRecencyOrder: Get, Put and Pin each make their key the most
// recently used; a miss changes nothing.
func TestRecencyOrder(t *testing.T) {
	c := New[string, int](100)
	c.Put("a", 1, 1)
	c.Put("b", 2, 1)
	c.Put("c", 3, 1)
	if got := fmt.Sprint(keys(c)); got != "[c b a]" {
		t.Fatalf("after puts: %s", got)
	}
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	if _, ok := c.Get("zz"); ok {
		t.Fatal("hit on an absent key")
	}
	c.Put("b", 20, 1)
	c.Pin("c", func() int { return -1 })
	if got := fmt.Sprint(keys(c)); got != "[c b a]" {
		t.Fatalf("after get a, put b, pin c: %s", got)
	}
	if v, _ := c.Get("b"); v != 20 {
		t.Errorf("replaced value = %d, want 20", v)
	}
}

// TestByteAccounting: Put adds a new entry's size, a replacement swaps
// the old size for the new one, and Trim subtracts what it evicts.
func TestByteAccounting(t *testing.T) {
	c := New[int, string](1000)
	c.Put(1, "x", 100)
	c.Put(2, "y", 250)
	c.Put(1, "x2", 40)
	if st := c.Stats(); st.Entries != 2 || st.Bytes != 290 {
		t.Fatalf("stats %+v, want 2 entries, 290 bytes", st)
	}
	if n := c.Trim(); n != 0 {
		t.Fatalf("trim under budget evicted %d", n)
	}
	c.Put(3, "z", 800)
	if n := c.Trim(); n != 1 {
		t.Fatalf("trim evicted %d, want 1 (the 250-byte LRU entry)", n)
	}
	if st := c.Stats(); st.Entries != 2 || st.Bytes != 840 || st.Evictions != 1 {
		t.Fatalf("after trim %+v, want 2 entries, 840 bytes, 1 eviction", st)
	}
}

// TestEvictionOrder: Trim evicts strictly from the least recently used
// end and stops as soon as the store fits, the same way every time.
func TestEvictionOrder(t *testing.T) {
	for run := 0; run < 3; run++ {
		c := New[int, int](5)
		for k := 0; k < 10; k++ {
			c.Put(k, k, 1)
		}
		c.Get(0)
		c.Get(3)
		if n := c.Trim(); n != 5 {
			t.Fatalf("run %d: evicted %d, want 5", run, n)
		}
		if got := fmt.Sprint(keys(c)); got != "[3 0 9 8 7]" {
			t.Fatalf("run %d: survivors %s, want [3 0 9 8 7]", run, got)
		}
	}
}

// TestPinnedSurviveTrim: a pinned entry — in flight, with no size yet,
// or settled and still held by a running lookup — outlives any trim,
// even over budget, and becomes evictable at its last Unpin.
func TestPinnedSurviveTrim(t *testing.T) {
	c := New[string, int](0)
	v, created := c.Pin("inflight", func() int { return 7 })
	if !created || v != 7 {
		t.Fatalf("Pin = %d, %v; want 7, created", v, created)
	}
	if _, created := c.Pin("inflight", func() int { return 8 }); created {
		t.Fatal("second Pin created a new entry")
	}
	c.Put("inflight", 7, 64) // the resolution lands with its size
	c.Put("loose", 1, 1)
	if n := c.Trim(); n != 1 {
		t.Fatalf("trim evicted %d, want only the unpinned entry", n)
	}
	if _, ok := c.Get("inflight"); !ok {
		t.Fatal("pinned entry evicted")
	}
	c.Unpin("inflight")
	c.Trim()
	if _, ok := c.Get("inflight"); !ok {
		t.Fatal("entry evicted while one pin remained")
	}
	c.Unpin("inflight")
	c.Trim()
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("after the last unpin: %+v, want empty", st)
	}
}

// TestViewsShareOneStore: typed views of one store keep their tables
// apart by key type, share its budget and count only their own entries.
func TestViewsShareOneStore(t *testing.T) {
	type ka string
	type kb string
	s := New[any, any](10)
	a := View[ka, int]{S: s}
	b := View[kb, string]{S: s}
	a.Put("k", 1, 4)
	b.Put("k", "one", 4)
	if v, ok := a.Get("k"); !ok || v != 1 {
		t.Fatalf("view a: %d, %v", v, ok)
	}
	if v, ok := b.Get("k"); !ok || v != "one" {
		t.Fatalf("view b: %q, %v", v, ok)
	}
	b.Put("k2", "two", 4)
	if a.Len() != 1 || b.Len() != 2 {
		t.Fatalf("len a=%d b=%d, want 1/2", a.Len(), b.Len())
	}
	s.Trim() // 12 bytes over a budget of 10: a's entry is the oldest
	if _, ok := a.Get("k"); ok {
		t.Error("least recently used entry survived across views")
	}
}

// TestConcurrentPins: racing Pin calls on one key create it exactly
// once. Run under -race.
func TestConcurrentPins(t *testing.T) {
	c := New[int, *int](0)
	var wg sync.WaitGroup
	var mu sync.Mutex
	created := 0
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				if _, ok := c.Pin(k, func() *int { return new(int) }); ok {
					mu.Lock()
					created++
					mu.Unlock()
				}
				c.Trim()
			}
		}()
	}
	wg.Wait()
	if created != 50 {
		t.Fatalf("created %d entries for 50 keys", created)
	}
}
