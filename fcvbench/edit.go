package main

// edit_loop: an agent editing a hierarchy against a live daemon. An
// in-process serve.Server on loopback takes one closed-loop client's
// hierarchical verify requests: mostly fresh one-leaf edits of a deep
// tree, with one request in four re-sending an earlier version.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/hier"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/process"
	"repro/internal/serve"
)

// Nominal costs on one P of a 2-vCPU host, used only to size runs.
const (
	editPassS       = 0.26 // one untraced pass of 40 requests
	editTracedPassS = 1.6  // one traced pass: untraced + round trip + mirrors
	// editSamplesPerSession is how many requests of each session are
	// compared with plain flat verification of the same deck.
	editSamplesPerSession = 1
)

// verifyPath is the one place the benchmark chooses the verification
// path of edit_loop requests.
func verifyPath(top string) string {
	return "/verify?hier=1&top=" + url.QueryEscape(top)
}

// daemon is an in-process fcv serve on a loopback listener.
type daemon struct {
	srv  *serve.Server
	http *httptest.Server
}

func startDaemon(proc *process.Process) *daemon {
	s := serve.New(serve.Config{Core: core.Options{Proc: proc}})
	return &daemon{srv: s, http: httptest.NewServer(s)}
}

// stop shuts the listener and waits for every connection to finish.
func (d *daemon) stop() {
	d.http.CloseClientConnections()
	d.http.Close()
}

// post sends one deck and returns the status and the body.
func (d *daemon) post(path string, data []byte) (int, []byte, error) {
	resp, err := d.http.Client().Post(d.http.URL+path, "text/plain", bytes.NewReader(data))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// stats reads the daemon's /stats document.
func (d *daemon) stats() (serve.Stats, error) {
	var st serve.Stats
	resp, err := d.http.Client().Get(d.http.URL + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// checkResponse is the per-op correctness check: a completed status
// and a manifest that validates.
func checkResponse(status int, body []byte) (*obs.Manifest, error) {
	if status != http.StatusOK && status != http.StatusUnprocessableEntity {
		return nil, fmt.Errorf("status %d: %.200s", status, body)
	}
	return obs.ParseManifest(body)
}

// bootDaemon is edit_loop's set-up: a daemon, warmed with the cold
// base-tree request.
func bootDaemon(proc *process.Process, plan *editPlan) (*daemon, error) {
	d := startDaemon(proc)
	status, body, err := d.post(verifyPath(plan.top), plan.versions[0])
	if err == nil {
		_, err = checkResponse(status, body)
	}
	if err != nil {
		d.stop()
		return nil, fmt.Errorf("base tree: %w", err)
	}
	return d, nil
}

func runEditLoop(cfg config) (*outcome, error) {
	passes := passesFor(cfg, editPassS, editsPerPass+resubmitsPerPass)
	if cfg.trace {
		passes = tracedPasses(cfg, editTracedPassS)
	}
	o := &outcome{passLen: editsPerPass + resubmitsPerPass}
	var digests []any
	var proc *process.Process
	var l *ledger
	var counts editCounts
	if cfg.trace {
		l = newLedger()
	}
	untraced, traced := &phase{}, &phase{}
	var heaps []float64
	idDiffs, sampled, lastDiff := 0, 0, ""
	for si, sess := range editSessions(cfg.seed, passes) {
		plan, err := editLoopPlan(sess.seed, sess.passes)
		if err != nil {
			return nil, err
		}
		digests = append(digests, plan.digest())
		// Set-up: a fresh daemon warmed with the cold base tree.
		t0 := obs.Now()
		proc = process.CMOS075()
		d, err := bootDaemon(proc, plan)
		if err != nil {
			return nil, err
		}
		o.setupS = append(o.setupS, obs.Now().Sub(t0).Seconds())
		// A seeded sample of requests is compared with flat verification.
		sample := map[int]bool{}
		srng := obs.NewRNG(cfg.seed ^ int64(si+1)<<32)
		for len(sample) < editSamplesPerSession && len(sample) < len(plan.ops) {
			sample[srng.Intn(len(plan.ops))] = true
		}
		got := map[int]verdictSet{}
		heap0 := liveHeapMiB()
		before, err := d.stats()
		if err != nil {
			d.stop()
			return nil, err
		}
		ph := runPhase(len(plan.ops), func(i int) (float64, func() error, error) {
			status, body, err := d.post(verifyPath(plan.top), plan.versions[plan.ops[i].version])
			if err != nil {
				return 0, nil, err
			}
			return 1, func() error {
				m, err := checkResponse(status, body)
				if err == nil && sample[i] {
					got[i] = manifestSet(m)
				}
				return err
			}, nil
		})
		heap1 := liveHeapMiB()
		after, err := d.stats()
		d.stop()
		if err != nil {
			return nil, err
		}
		heaps = append(heaps, heap1)
		counts.add(before, after, len(plan.ops), heap1-heap0)
		// The CBV rule, outside the timed window.
		for i := range plan.ops {
			vs, ok := got[i]
			if !ok {
				continue
			}
			flat, err := flatTree(plan.versions[plan.ops[i].version], plan.top, proc)
			if err != nil {
				return nil, err
			}
			sampled++
			diff, err := compareToFlat(vs, flat, false)
			if err != nil {
				ph.fail(fmt.Errorf("session %d op %d vs flat: %w", si, i, err))
			}
			if diff != "" {
				idDiffs++
				lastDiff = diff
			}
		}
		untraced.merge(ph)
		if cfg.trace {
			tp, err := tracedEditLoop(plan, proc, l)
			if err != nil {
				return nil, err
			}
			traced.merge(tp)
		}
	}
	o.inputs = inputDigest(digests...)
	if idDiffs > 0 {
		// Expected while hierarchical timing is per scope: a path that
		// crosses a cell boundary is reported under a scope-local ID.
		untraced.notes = append(untraced.notes, fmt.Sprintf("%d of %d sampled requests: %s", idDiffs, sampled, lastDiff))
	}
	if !cfg.trace {
		o.timed = untraced
		o.heapMiB = median(heaps)
		return o, nil
	}
	counts.book(l)
	l.set("trace_overhead_pct", 100*(traced.wall.Seconds()-untraced.wall.Seconds())/untraced.wall.Seconds())
	// The traced run answers for every op it made, untraced ones too.
	traced.attempted += untraced.attempted
	traced.failed += untraced.failed
	traced.fails = append(untraced.fails, traced.fails...)
	traced.notes = append(untraced.notes, traced.notes...)
	o.timed = traced
	o.ledger = l
	return o, nil
}

// editCounts sums the daemon's exact /stats counters over sessions.
type editCounts struct {
	requests, entries, heapMiB    float64
	hits, misses, subHit, subMiss float64
	compose, parseHit, parseMiss  float64
}

func (c *editCounts) add(before, after serve.Stats, requests int, heapGrowthMiB float64) {
	delta := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	c.requests += float64(requests)
	c.entries = float64(after.Cache.Entries)
	c.heapMiB += heapGrowthMiB
	c.hits += float64(after.Cache.Hits - before.Cache.Hits)
	c.misses += float64(after.Cache.Misses - before.Cache.Misses)
	c.subHit += delta("fleet.subcell.hit")
	c.subMiss += delta("fleet.subcell.miss")
	c.compose += delta("fleet.subcell.compose")
	c.parseHit += delta("serve.parse_cache.hit")
	c.parseMiss += delta("serve.parse_cache.miss")
}

func (c *editCounts) book(l *ledger) {
	l.set("fleet.cache_entries", c.entries)
	l.set("fleet.heap_kib_per_edit", c.heapMiB*1024/c.requests)
	l.set("fleet.cache_hit_ratio", ratio(c.hits, c.misses))
	l.set("fleet.subcell_hit_ratio", ratio(c.subHit, c.subMiss))
	l.set("fleet.subcell_miss_per_edit", c.subMiss/c.requests)
	l.set("fleet.subcell_compose_per_edit", c.compose/c.requests)
	l.set("serve.parse_cache_hit_ratio", ratio(c.parseHit, c.parseMiss))
}

// ratio is hits/(hits+misses), 0 when nothing was looked up.
func ratio(hits, misses float64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}

// flatTree is the flat oracle for one hierarchy deck.
func flatTree(data []byte, top string, proc *process.Process) (verdictSet, error) {
	lib, _, err := fleet.HierFromDeck(bytes.NewReader(data), "deck.sp", top)
	if err != nil {
		return verdictSet{}, err
	}
	flat, err := lib.Flatten(top)
	if err != nil {
		return verdictSet{}, err
	}
	return flatReference(flat, core.Options{Proc: proc})
}

// editMirror replays the daemon's work layer by layer: an in-process
// server for the handler's own time, and a separate cache, fingerprint
// memo and parse table for the calls beneath it. Both see the same
// request sequence as the daemon, so their caches stay in step with it.
type editMirror struct {
	srv    *serve.Server
	cache  *fleet.Cache
	memo   *netlist.HierFPMemo
	parsed map[int]parsedTree
	opt    core.Options
	top    string
}

type parsedTree struct {
	lib *netlist.Library
	top *netlist.Circuit
}

// tracedEditLoop runs the plan against a fresh daemon, timing each
// round trip, and after each one replays it on the mirror.
func tracedEditLoop(plan *editPlan, proc *process.Process, l *ledger) (*phase, error) {
	d, err := bootDaemon(proc, plan)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	m := &editMirror{
		srv:    serve.New(serve.Config{Core: core.Options{Proc: proc}}),
		cache:  fleet.NewCache(),
		memo:   netlist.NewHierFPMemo(),
		parsed: map[int]parsedTree{},
		opt:    core.Options{Proc: proc},
		top:    plan.top,
	}
	if _, err := m.serveHTTP(plan.versions[0]); err != nil {
		return nil, err
	}
	if err := m.replay(nil, 0, plan.versions[0], true, call{}); err != nil {
		return nil, err
	}
	return runPhase(len(plan.ops), func(i int) (float64, func() error, error) {
		op := plan.ops[i]
		data := plan.versions[op.version]
		t0 := obs.Now()
		status, body, err := d.post(verifyPath(plan.top), data)
		wall := obs.Now().Sub(t0)
		if err != nil {
			return 0, nil, err
		}
		return 1, func() error {
			if _, err := checkResponse(status, body); err != nil {
				return err
			}
			l.ops++
			serveCall, err := m.serveHTTP(data)
			if err != nil {
				return err
			}
			l.add("unattributed_ms", float64(wall.Nanoseconds())/1e6-serveCall.ms())
			miss := op.fresh || m.parsed[op.version].lib == nil
			return m.replay(l, op.version, data, miss, serveCall)
		}, nil
	}), nil
}

// serveHTTP times the mirror server's handler on one request.
func (m *editMirror) serveHTTP(data []byte) (call, error) {
	req := httptest.NewRequest(http.MethodPost, verifyPath(m.top), bytes.NewReader(data))
	rec := httptest.NewRecorder()
	c := timeCall(func() { m.srv.ServeHTTP(rec, req) })
	_, err := checkResponse(rec.Code, rec.Body.Bytes())
	return c, err
}

// replay runs the daemon's calls for one request: parse and the
// admission fingerprint on a parse-cache miss, the memoized DAG hash,
// VerifyHier, and the manifest. With a ledger it books each, with the
// handler's self time taken from serveCall, and decomposes every
// subcell scope VerifyHier had to verify.
func (m *editMirror) replay(l *ledger, version int, data []byte, miss bool, serveCall call) error {
	var parse, fp call
	var pt parsedTree
	var err error
	if miss {
		parse = timeCall(func() { pt.lib, pt.top, err = fleet.HierFromDeck(bytes.NewReader(data), "deck.sp", m.top) })
		if err != nil {
			return err
		}
		fp = timeCall(func() { _, err = pt.lib.HierFingerprint(pt.top) })
		if err != nil {
			return err
		}
		m.parsed[version] = pt
		delete(m.parsed, version-resubmitWindow-1)
	} else {
		pt = m.parsed[version]
	}
	var hfp *netlist.HierFP
	dag := timeCall(func() { hfp, err = pt.lib.HierFingerprintMemo(pt.top, m.memo) })
	if err != nil {
		return err
	}
	col := obs.New()
	var rep *fleet.Report
	hierCall := timeCall(func() {
		rep, err = fleet.VerifyHier(pt.lib, pt.top, fleet.Options{Core: m.opt, Workers: 1, Cache: m.cache, Obs: col})
	})
	if err != nil {
		return err
	}
	var manifest []byte
	man := timeCall(func() { manifest, err = fleet.BuildManifest("fcv serve", rep, col).JSON() })
	if err != nil || l == nil {
		return err
	}
	l.record("netlist.parse_ms", "netlist", parse)
	l.record("netlist.fingerprint_ms", "netlist", fp)
	l.record("netlist.dag_hash_ms", "netlist", dag)
	l.record("fleet.verify_hier_ms", "fleet", hierCall)
	l.record("obs.manifest_ms", "obs", man)
	l.add("obs.manifest_kib", float64(len(manifest))/1024)
	// The scopes VerifyHier verified rather than replayed.
	var stages call
	keep := func(name string) bool {
		ci := hfp.Cells[name]
		return name == pt.top.Name || (ci != nil && ci.FlatDevices > fleet.DefaultHierInline)
	}
	for _, res := range rep.Results {
		if res.Cached || res.Subcell == "" {
			continue
		}
		cell := pt.lib.Cell(res.Subcell)
		if res.Subcell == pt.top.Name {
			cell = pt.top
		}
		eff, err := pt.lib.FlattenKeep(cell, keep)
		if err != nil {
			return err
		}
		stages.add(stageCalls(l, hier.ScopeCircuit(eff), m.opt))
	}
	// fleet's self time: VerifyHier less the DAG hash and the stages.
	l.add("fleet.verify_overhead_ms", hierCall.ms()-dag.ms()-stages.ms())
	l.addAlloc("fleet", hierCall.alloc-dag.alloc-stages.alloc)
	// The handler's self time: ServeHTTP less the calls beneath it.
	l.add("serve.overhead_ms", serveCall.ms()-parse.ms()-fp.ms()-hierCall.ms()-man.ms())
	l.addAlloc("serve", serveCall.alloc-parse.alloc-fp.alloc-hierCall.alloc-man.alloc)
	return nil
}
