package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// runTop is the `fcv top` subcommand: a polling terminal dashboard over
// a running daemon's /stats and /metrics endpoints.
//
//	fcv top [-addr http://127.0.0.1:8117] [-interval 2s] [-once]
//
// Each frame shows live request throughput (req/s over the last poll
// window), latency quantiles, pool and queue occupancy, the verdict
// tally, cache hit ratios, and process basics. -once renders a single
// frame without clearing the screen and exits — the scripting/CI mode.
func runTop(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("top", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:8117", "daemon base URL")
	interval := fs.Duration("interval", 2*time.Second, "poll interval")
	once := fs.Bool("once", false, "render one frame and exit (no screen clearing)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	base := strings.TrimRight(*addr, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	if *interval <= 0 {
		return fmt.Errorf("top: -interval must be positive")
	}

	var prev *serve.Stats
	var prevT time.Time
	frame := func() error {
		st, err := fetchStats(base)
		if err != nil {
			return fmt.Errorf("top: %s: %w", base, err)
		}
		gauges, err := fetchMetricGauges(base)
		if err != nil {
			return fmt.Errorf("top: %s: %w", base, err)
		}
		now := obs.Now()
		// Throughput: served delta over the poll window; the first frame
		// (and -once) falls back to the lifetime average.
		reqPerSec := 0.0
		if prev != nil && now.After(prevT) {
			reqPerSec = float64(st.Served-prev.Served) / now.Sub(prevT).Seconds()
		} else if st.UptimeMS > 0 {
			reqPerSec = float64(st.Served) / (st.UptimeMS / 1000)
		}
		prev, prevT = st, now
		renderTopFrame(out, base, st, gauges, reqPerSec)
		return nil
	}

	if *once {
		return frame()
	}
	// Live mode: clear the screen before each frame, poll forever (^C
	// exits). Errors end the loop — a daemon that went away should not
	// leave a silently frozen dashboard.
	ticker := time.NewTicker(*interval)
	defer ticker.Stop()
	for {
		fmt.Fprint(out, "\x1b[H\x1b[2J")
		if err := frame(); err != nil {
			return err
		}
		<-ticker.C
	}
}

// renderTopFrame prints one dashboard frame.
func renderTopFrame(out io.Writer, base string, st *serve.Stats, gauges map[string]float64, reqPerSec float64) {
	drain := "no"
	if st.Draining {
		drain = "YES"
	}
	hitPct := func(hits, misses int64) string {
		if hits+misses == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f%%", 100*float64(hits)/float64(hits+misses))
	}
	pHit := st.Counters["serve.parse_cache.hit"]
	pMiss := st.Counters["serve.parse_cache.miss"]
	fmt.Fprintf(out, "fcv top — %s   up %s   draining %s\n",
		base, (time.Duration(st.UptimeMS * float64(time.Millisecond))).Round(100*time.Millisecond), drain)
	fmt.Fprintf(out, "  requests   %d served  %d rejected  %d bad      req/s %.2f\n",
		st.Served, st.Rejected, st.BadRequests, reqPerSec)
	fmt.Fprintf(out, "  latency    p50 %.2fms   p99 %.2fms\n", st.RequestP50MS, st.RequestP99MS)
	fmt.Fprintf(out, "  pool       %d/%d free   queue %d/%d\n",
		st.PoolAvailable, st.PoolWorkers, st.QueueDepth, st.QueueLimit)
	fmt.Fprintf(out, "  verdicts   pass %d  inspect %d  violation %d  error %d\n",
		st.Verdicts.Pass, st.Verdicts.Inspect, st.Verdicts.Violation, st.Verdicts.Error)
	fmt.Fprintf(out, "  cache      hits %d  misses %d  (%s hit)   entries %d\n",
		st.Cache.Hits, st.Cache.Misses, hitPct(st.Cache.Hits, st.Cache.Misses), st.Cache.Entries)
	fmt.Fprintf(out, "  parse      hits %d  misses %d  (%s hit)\n", pHit, pMiss, hitPct(pHit, pMiss))
	fmt.Fprintf(out, "  store      entries %d   %.1f MiB   evictions %d\n",
		st.Store.Entries, float64(st.Store.Bytes)/(1<<20), st.Store.Evictions)
	sHit := st.Counters["fleet.subcell.hit"]
	sMiss := st.Counters["fleet.subcell.miss"]
	fmt.Fprintf(out, "  subcell    hits %d  misses %d  (%s hit)   composed %d\n",
		sHit, sMiss, hitPct(sHit, sMiss), st.Counters["fleet.subcell.compose"])
	if st.Disk != nil {
		fmt.Fprintf(out, "  disk       entries %d\n", st.Disk.Entries)
	}
	fmt.Fprintf(out, "  process    goroutines %.0f   heap %.1f MiB   slow traces %.0f\n",
		gauges["fcv_process_goroutines"],
		gauges["fcv_process_heap_alloc_bytes"]/(1<<20),
		gauges["fcv_serve_slow_traces_retained"])
}

// fetchStats GETs and decodes the daemon's /stats document.
func fetchStats(base string) (*serve.Stats, error) {
	resp, err := http.Get(base + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/stats: status %d", resp.StatusCode)
	}
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("/stats: %w", err)
	}
	return &st, nil
}

// fetchMetricGauges GETs /metrics and extracts the unlabeled samples
// the dashboard wants (a tolerant line scan — fcv top must keep working
// against a daemon a version ahead or behind).
func fetchMetricGauges(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out, nil
}
