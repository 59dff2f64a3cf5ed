package serve

import (
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/lru"
)

func parseItems(t *testing.T, deck string) []fleet.Item {
	t.Helper()
	items, err := fleet.ItemsFromDeck(strings.NewReader(deck), "deck.sp", "", false)
	if err != nil {
		t.Fatal(err)
	}
	return items
}

// TestParseCacheLRU exercises the parse table as a view of a store:
// hit after put, recency refresh, and LRU eviction by accounted bytes.
func TestParseCacheLRU(t *testing.T) {
	e := &parseEntry{items: parseItems(t, cleanDeck)}
	size := e.bytes()
	if size < int64(len(cleanDeck)) {
		t.Fatalf("parsed deck accounted at %d bytes, less than its %d-byte source", size, len(cleanDeck))
	}
	store := lru.New[any, any](2 * size)
	c := lru.View[parseKey, *parseEntry]{S: store}
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache hit")
	}
	c.Put("a", e, size)
	c.Put("b", e, size)
	if got, ok := c.Get("a"); !ok || len(got.items) != len(e.items) {
		t.Fatal("miss after put")
	}
	// "a" was just refreshed, so "c" pushes the store over budget and
	// the trim must evict "b".
	c.Put("c", e, size)
	if n := store.Trim(); n != 1 {
		t.Errorf("trim evicted %d entries, want 1", n)
	}
	if _, ok := c.Get("b"); ok {
		t.Error("LRU entry not evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("recently-used entry evicted")
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
}

// TestParseCacheCountersOnRepeat a byte-identical resubmit is a parse
// hit; a different ?top selection on the same bytes is a distinct key.
func TestParseCacheCountersOnRepeat(t *testing.T) {
	s, hs := newTestServer(t, testConfig())
	postDeck(t, hs.URL+"/verify", cleanDeck)
	postDeck(t, hs.URL+"/verify", cleanDeck)
	st := s.StatsNow()
	if st.Counters["serve.parse_cache.miss"] != 1 || st.Counters["serve.parse_cache.hit"] != 1 {
		t.Errorf("parse cache hit=%d miss=%d after identical resubmit, want 1/1",
			st.Counters["serve.parse_cache.hit"], st.Counters["serve.parse_cache.miss"])
	}
	// Same bytes, different parse parameters: a new key, a new miss.
	postDeck(t, hs.URL+"/verify?cells=1", cleanDeck)
	st = s.StatsNow()
	if st.Counters["serve.parse_cache.miss"] != 2 {
		t.Errorf("cells=1 on same bytes missed %d times, want 2 total", st.Counters["serve.parse_cache.miss"])
	}
}
