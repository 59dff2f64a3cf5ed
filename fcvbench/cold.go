package main

// cold_corpus: one CLI verification run per op, in process. Each op
// takes one generated flat deck through fleet.ItemsFromDeck →
// fleet.Verify (fresh cache, one worker) → fleet.BuildManifest →
// Manifest.JSON, the path `fcv verify -manifest` takes.

import (
	"bytes"
	"fmt"
	"runtime"

	"repro/internal/checks"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/process"
	"repro/internal/recognize"
	"repro/internal/timing"
)

// Nominal costs on one P of a 2-vCPU host, used only to size runs.
const (
	coldPassS       = 1.6 // one untraced pass over the corpus
	coldTracedPassS = 9.0 // one traced pass: untraced + instrumented + decomposed
)

// coldRun is the result of one cold op.
type coldRun struct {
	manifest []byte
	devices  int
	// Inner calls, timed only when traced.
	parse, verify, manifestCall call
	flat                        *netlist.Circuit
}

// coldOp is the op itself. With traced set it also times each of its
// three calls.
func coldOp(d deck, proc *process.Process, traced bool) (coldRun, error) {
	var r coldRun
	var items []fleet.Item
	var err error
	step := func(c *call, fn func()) {
		if traced {
			*c = timeCall(fn)
		} else {
			fn()
		}
	}
	step(&r.parse, func() { items, err = fleet.ItemsFromDeck(bytes.NewReader(d.data), d.name+".sp", "", false) })
	if err != nil {
		return r, err
	}
	col := obs.New()
	var rep *fleet.Report
	step(&r.verify, func() {
		rep = fleet.Verify(items, fleet.Options{Core: core.Options{Proc: proc}, Workers: 1, Cache: fleet.NewCache(), Obs: col})
	})
	step(&r.manifestCall, func() { r.manifest, err = fleet.BuildManifest("fcv verify", rep, col).JSON() })
	if err != nil {
		return r, err
	}
	for _, it := range items {
		r.devices += len(it.Circuit.Devices)
	}
	r.flat = items[0].Circuit
	return r, nil
}

// checkManifest validates one op's manifest and compares it with the
// deck's flat reference, finding IDs included.
func checkManifest(data []byte, want verdictSet) error {
	m, err := obs.ParseManifest(data)
	if err != nil {
		return err
	}
	_, err = compareToFlat(manifestSet(m), want, true)
	return err
}

func runColdCorpus(cfg config) (*outcome, error) {
	decks, err := coldCorpus(cfg.seed)
	if err != nil {
		return nil, err
	}
	passes := passesFor(cfg, coldPassS, len(decks))
	if cfg.trace {
		passes = tracedPasses(cfg, coldTracedPassS)
	}
	seq := passOrder(newOrderRNG(cfg.seed), len(decks), passes)
	var parts []any
	for _, d := range decks {
		parts = append(parts, d.data)
	}
	for _, i := range seq {
		parts = append(parts, i)
	}
	o := &outcome{inputs: inputDigest(parts...), passLen: len(decks)}

	// The oracle: plain flat core.Verify of every deck, outside any
	// timed window.
	want := make([]verdictSet, len(decks))
	for i, d := range decks {
		items, err := fleet.ItemsFromDeck(bytes.NewReader(d.data), d.name+".sp", "", false)
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", d.name, err)
		}
		if want[i], err = flatReference(items[0].Circuit, core.Options{Proc: process.CMOS075()}); err != nil {
			return nil, fmt.Errorf("oracle %s: %w", d.name, err)
		}
	}

	// Set-up: the process model plus one warm-up op on the cheapest
	// deck of each style, so lazy initialisation is not billed to the
	// first timed ops.
	warm := map[string]bool{}
	var warmDecks []deck
	for i, r := range coldLadder {
		if !warm[r.style] {
			warm[r.style] = true
			warmDecks = append(warmDecks, decks[i])
		}
	}
	var proc *process.Process
	setup := func() error {
		proc = process.CMOS075()
		for _, d := range warmDecks {
			if _, err := coldOp(d, proc, false); err != nil {
				return fmt.Errorf("warm-up %s: %w", d.name, err)
			}
		}
		return nil
	}

	plain := func(i int) (float64, func() error, error) {
		d := decks[seq[i]]
		r, err := coldOp(d, proc, false)
		if err != nil {
			return 0, nil, err
		}
		return float64(r.devices), func() error { return checkManifest(r.manifest, want[seq[i]]) }, nil
	}
	if !cfg.trace {
		if o.timed, err = o.passesWithSetup(len(seq), setup, plain); err != nil {
			return nil, err
		}
		o.heapMiB = liveHeapMiB()
		// The corpus stays live through the reading, as a CLI's inputs
		// would: it is fixed per seed, where an empty heap is all noise.
		runtime.KeepAlive(decks)
		return o, nil
	}

	if err := o.setUp(setup); err != nil {
		return nil, err
	}
	l := newLedger()
	traced, overhead := pairedTrace(len(seq), plain, func(i int) (float64, func() error, error) {
		d := decks[seq[i]]
		t0 := obs.Now()
		r, err := coldOp(d, proc, true)
		wall := obs.Now().Sub(t0)
		if err != nil {
			return 0, nil, err
		}
		return float64(r.devices), func() error {
			if err := checkManifest(r.manifest, want[seq[i]]); err != nil {
				return err
			}
			l.ops++
			l.record("netlist.parse_ms", "netlist", r.parse)
			l.record("obs.manifest_ms", "obs", r.manifestCall)
			l.add("obs.manifest_kib", float64(len(r.manifest))/1024)
			fp := timeCall(func() { r.flat.Fingerprint() })
			l.record("netlist.fingerprint_ms", "netlist", fp)
			stages := stageCalls(l, r.flat, core.Options{Proc: proc})
			stages.add(fp)
			l.add("fleet.verify_overhead_ms", r.verify.ms()-stages.ms())
			l.addAlloc("fleet", r.verify.alloc-stages.alloc)
			l.add("unattributed_ms", float64(wall.Nanoseconds())/1e6-r.parse.ms()-r.verify.ms()-r.manifestCall.ms())
			return nil
		}, nil
	})
	l.set("fleet.cache_entries", 1) // a fresh cache per op holds its one item
	l.set("trace_overhead_pct", overhead)
	o.timed = traced
	o.ledger = l
	return o, nil
}

// stageCalls times recognition, the whole check battery and timing on
// one circuit, and additionally each check alone. It returns the
// stages' total — the battery counted once, as core.Verify runs it —
// so callers can derive the enclosing layer's self time.
func stageCalls(l *ledger, c *netlist.Circuit, opt core.Options) call {
	var total call
	rec := func(name, layer string, fn func()) call {
		k := timeCall(fn)
		l.record(name, layer, k)
		return k
	}
	var res *recognize.Result
	var err error
	k := rec("recognize.analyze_ms", "recognize", func() { res, err = recognize.Analyze(c) })
	total.add(k)
	if err != nil {
		return total
	}
	l.add("recognize.groups", float64(len(res.Groups)))
	clock := opt.ResolvedClock()
	copt := checks.Options{Proc: opt.Proc, PeriodPS: clock.PeriodPS}
	var rep *checks.Report
	total.add(rec("checks.battery_ms", "checks", func() { rep, _ = checks.RunAll(res, copt) }))
	if rep != nil {
		l.add("checks.findings", float64(len(rep.Findings)))
	}
	// Each check alone, for the per-check split. These are not part of
	// the total: every call repeats the provenance pass (structural
	// signatures of the whole circuit) that the battery runs once.
	for _, name := range checks.CheckNames() {
		k := timeCall(func() { _, _ = checks.Run(name, res, copt) })
		l.add("checks."+name+"_ms", k.ms())
	}
	var tr *timing.Report
	total.add(rec("timing.analyze_ms", "timing", func() { tr, _ = timing.Analyze(res, timing.Options{Proc: opt.Proc, Clock: clock}) }))
	if tr != nil {
		l.add("timing.paths", float64(len(tr.Paths)))
	}
	return total
}

// stageTotals runs recognition, the 13 checks and timing on one
// circuit, reporting each call through rec.
func stageTotals(l *ledger, c *netlist.Circuit, opt core.Options, rec func(name, layer string, fn func())) {
	var res *recognize.Result
	var err error
	rec("recognize.analyze_ms", "recognize", func() { res, err = recognize.Analyze(c) })
	if err != nil {
		return
	}
	l.add("recognize.groups", float64(len(res.Groups)))
	clock := opt.ResolvedClock()
	copt := checks.Options{Proc: opt.Proc, PeriodPS: clock.PeriodPS}
	for _, name := range checks.CheckNames() {
		var fs []checks.Finding
		rec("checks."+name+"_ms", "checks", func() { fs, _ = checks.Run(name, res, copt) })
		l.add("checks.findings", float64(len(fs)))
	}
	var tr *timing.Report
	rec("timing.analyze_ms", "timing", func() { tr, _ = timing.Analyze(res, timing.Options{Proc: opt.Proc, Clock: clock}) })
	if tr != nil {
		l.add("timing.paths", float64(len(tr.Paths)))
	}
}
