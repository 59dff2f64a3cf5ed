package serve

import (
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/obs"
)

// soakDeck is the i-th distinct deck of the soak: even i a flat
// six-stage inverter chain, odd i the four-level hierarchy on the
// ?hier=1 path, each with its own device widths.
func soakDeck(i int) (query, deck string) {
	if i%2 == 1 {
		w := fmt.Sprintf("w=%.2f", 2.6+0.01*float64(i))
		return "?hier=1&top=chip&hier_inline=-1", strings.ReplaceAll(hierDeck, "w=2.6", w)
	}
	var sb strings.Builder
	sb.WriteString(".subckt chain a y\n")
	for k := 0; k < 6; k++ {
		in, out := fmt.Sprintf("n%d", k), fmt.Sprintf("n%d", k+1)
		if k == 0 {
			in = "a"
		}
		if k == 5 {
			out = "y"
		}
		w := 2 + 0.01*float64(i) + 0.1*float64(k)
		fmt.Fprintf(&sb, "mn%d %s %s vss vss nmos w=%.2f l=0.75\n", k, out, in, w)
		fmt.Fprintf(&sb, "mp%d %s %s vdd vdd pmos w=%.2f l=0.75\n", k, out, in, 2*w)
	}
	sb.WriteString(".ends\n")
	return "", sb.String()
}

// outcome is a manifest's verdict per item plus its finding-ID set.
func outcome(m *obs.Manifest) string {
	var ids []string
	var sb strings.Builder
	for _, it := range m.Items {
		fmt.Fprintf(&sb, "%s=%s ", it.Name, it.Verdict)
		for _, f := range it.Findings {
			ids = append(ids, f.ID)
		}
	}
	sort.Strings(ids)
	return sb.String() + strings.Join(ids, ",")
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestSoakStoreBounded: a daemon fed a stream of distinct flat and
// hierarchical decks keeps every memo table inside its store's budget.
// The accounted bytes never end a request over budget, old entries are
// evicted, an evicted deck re-verifies to the same verdicts and
// findings, and the live heap stops growing once the store is full.
func TestSoakStoreBounded(t *testing.T) {
	defer func(b int64) { fleet.StoreBudget = b }(fleet.StoreBudget)
	const budget = 128 << 10
	fleet.StoreBudget = budget
	s, hs := newTestServer(t, testConfig())

	post := func(i int) string {
		t.Helper()
		q, deck := soakDeck(i)
		resp, body := postDeck(t, hs.URL+"/verify"+q, deck)
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("deck %d: status %d: %s", i, resp.StatusCode, body)
		}
		m, err := obs.ParseManifest(body)
		if err != nil {
			t.Fatalf("deck %d: %v", i, err)
		}
		return outcome(m)
	}

	const n = 80
	first := make([]string, n)
	heaps := make([]uint64, n)
	for i := 0; i < n; i++ {
		first[i] = post(i)
		if st := s.StatsNow().Store; st.Bytes > budget {
			t.Fatalf("after request %d the store holds %d bytes, budget %d", i, st.Bytes, budget)
		}
		heaps[i] = liveHeap()
	}
	st := s.StatsNow()
	if st.Store.Evictions == 0 {
		t.Fatalf("no evictions after %d distinct decks: %+v", n, st.Store)
	}

	// The first flat and hierarchical decks aged out long ago: a resubmit
	// misses the parse and verification tables and reaches the same
	// outcome.
	for i := 0; i < 2; i++ {
		before := s.StatsNow()
		if got := post(i); got != first[i] {
			t.Errorf("resubmitted deck %d: %s\nfirst time: %s", i, got, first[i])
		}
		after := s.StatsNow()
		if after.Cache.Misses == before.Cache.Misses {
			t.Errorf("resubmitted deck %d hit records that should have been evicted", i)
		}
		if after.Counters["serve.parse_cache.miss"] == before.Counters["serve.parse_cache.miss"] {
			t.Errorf("resubmitted deck %d hit a parse that should have been evicted", i)
		}
	}

	// The heap levels off: the last quarter of the soak holds no more
	// than the quarter before it, up to a quarter budget of slack.
	peak := func(hs []uint64) uint64 {
		m := hs[0]
		for _, h := range hs {
			m = max(m, h)
		}
		return m
	}
	q3, q4 := peak(heaps[n/2:3*n/4]), peak(heaps[3*n/4:])
	t.Logf("live heap: first %d KiB, third quarter peak %d KiB, last quarter peak %d KiB", heaps[0]>>10, q3>>10, q4>>10)
	if q4 > q3+budget/4 {
		t.Errorf("heap still growing: last quarter peak %d KiB vs %d KiB before", q4>>10, q3>>10)
	}
}
