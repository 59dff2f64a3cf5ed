// The /metrics endpoint: the daemon's whole telemetry surface in
// Prometheus text format, hand-rolled in internal/obs (the repo takes
// no dependencies). Everything the merged obs collector holds — the
// deterministic per-request counters, the serve.request_ms histogram —
// plus the daemon's lifetime tallies and a few process basics, rendered
// name-sorted so the exposition's shape (every line with sample values
// masked) is byte-identical across worker counts. Reachable while
// draining: scrapes must outlive the drain window.
package serve

import (
	"net/http"
	"runtime"

	"repro/internal/obs"
)

// metricsSnapshot composes the full /metrics view: the lifetime
// collector's snapshot extended with the daemon counters and gauges
// that live in Server fields rather than the collector.
func (s *Server) metricsSnapshot() obs.MetricsSnapshot {
	snap := s.col.Snapshot()
	snap.Counters["serve.requests"] = s.requests.Load()
	snap.Counters["serve.served"] = s.served.Load()
	snap.Counters["serve.rejected"] = s.rejected.Load()
	snap.Counters["serve.bad_requests"] = s.badRequests.Load()
	snap.Counters["serve.cache.hits"] = s.cacheHits.Load()
	snap.Counters["serve.cache.misses"] = s.cacheMisses.Load()
	snap.Counters["serve.verdict.pass"] = s.tallyPass.Load()
	snap.Counters["serve.verdict.inspect"] = s.tallyInspect.Load()
	snap.Counters["serve.verdict.violation"] = s.tallyViolation.Load()
	snap.Counters["serve.verdict.error"] = s.tallyError.Load()
	store := s.cfg.Cache.Store().Stats()
	snap.Counters["serve.store.evictions"] = store.Evictions
	if s.cfg.DiskCache != nil {
		snap.Counters["serve.disk.hits"] = s.diskHits.Load()
		snap.Counters["serve.disk.misses"] = s.diskMisses.Load()
	}

	snap.Gauges["serve.pool.workers"] = float64(s.pool.size)
	snap.Gauges["serve.pool.available"] = float64(s.pool.available())
	snap.Gauges["serve.queue.depth"] = float64(s.pool.waiting())
	snap.Gauges["serve.queue.limit"] = float64(s.pool.maxQueue)
	snap.Gauges["serve.parse_cache.entries"] = float64(s.parses.Len())
	snap.Gauges["serve.store.entries"] = float64(store.Entries)
	snap.Gauges["serve.store.bytes"] = float64(store.Bytes)
	snap.Gauges["serve.slow_traces.retained"] = float64(len(s.ring.index()))
	if s.draining.Load() {
		snap.Gauges["serve.draining"] = 1
	} else {
		snap.Gauges["serve.draining"] = 0
	}

	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	snap.Gauges["process.goroutines"] = float64(runtime.NumGoroutine())
	snap.Gauges["process.heap_alloc_bytes"] = float64(mem.HeapAlloc)
	snap.Gauges["process.uptime_seconds"] = obs.Now().Sub(s.start).Seconds()
	return snap
}

// handleMetrics renders the Prometheus exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metricsSnapshot().WritePrometheus(w, "fcv")
}
