package main

import (
	"time"

	"repro/internal/checks"
	"repro/internal/obs"
)

// layerMetric is one per-layer ledger entry. perOp entries accumulate
// over the traced ops and are reported as a mean per op; the others
// are set once, as a ratio, a count or a rate.
type layerMetric struct {
	name, unit string
	perOp      bool
}

// perLayerMetrics lists every per-layer metric in report order. Every
// workload reports all of them; a layer a workload never calls reads 0.
func perLayerMetrics() []layerMetric {
	ms := func(n string) layerMetric { return layerMetric{n, "ms", true} }
	alloc := func(layer string) layerMetric { return layerMetric{layer + ".alloc_mib_per_op", "MiB", true} }
	out := []layerMetric{
		ms("netlist.parse_ms"), ms("netlist.fingerprint_ms"), ms("netlist.dag_hash_ms"), alloc("netlist"),
		ms("recognize.analyze_ms"), {"recognize.groups", "count", true}, alloc("recognize"),
	}
	out = append(out, ms("checks.battery_ms"))
	for _, c := range checks.CheckNames() {
		out = append(out, ms("checks."+c+"_ms"))
	}
	out = append(out,
		layerMetric{"checks.findings", "count", true}, alloc("checks"),
		ms("timing.analyze_ms"), layerMetric{"timing.paths", "count", true}, alloc("timing"),
		ms("fleet.verify_overhead_ms"), ms("fleet.verify_hier_ms"),
		layerMetric{"fleet.cache_entries", "count", false},
		layerMetric{"fleet.heap_kib_per_edit", "KiB", false},
		layerMetric{"fleet.cache_hit_ratio", "ratio", false},
		layerMetric{"fleet.subcell_hit_ratio", "ratio", false},
		layerMetric{"fleet.subcell_miss_per_edit", "count", false},
		layerMetric{"fleet.subcell_compose_per_edit", "count", false},
		alloc("fleet"),
		ms("serve.overhead_ms"), layerMetric{"serve.parse_cache_hit_ratio", "ratio", false}, alloc("serve"),
		ms("obs.manifest_ms"), layerMetric{"obs.manifest_kib", "KiB", true}, alloc("obs"),
		layerMetric{"rtl.cycle_us", "us", false}, alloc("rtl"),
		layerMetric{"switchsim.settle_us", "us", false},
		layerMetric{"switchsim.comp_evals_per_cycle", "count", false}, alloc("switchsim"),
		layerMetric{"shadow.overhead_us", "us", false}, layerMetric{"shadow.mismatches", "count", false}, alloc("shadow"),
		ms("unattributed_ms"),
		layerMetric{"trace_overhead_pct", "%", false},
		layerMetric{"op_fail_pct", "%", false},
		layerMetric{"host.steal_pct", "%", false},
	)
	return out
}

// ledger accumulates the traced run's per-layer figures. Spans are
// recorded by the benchmark around its own calls into each layer's
// public functions; the program itself is not instrumented.
type ledger struct {
	ops  int
	sums map[string]float64
	abs  map[string]float64
}

func newLedger() *ledger {
	return &ledger{sums: map[string]float64{}, abs: map[string]float64{}}
}

// add accumulates a per-op figure.
func (l *ledger) add(name string, v float64) { l.sums[name] += v }

// set records a whole-run figure.
func (l *ledger) set(name string, v float64) { l.abs[name] = v }

// addAlloc accumulates allocated bytes into a layer's allocation figure.
func (l *ledger) addAlloc(layer string, bytes float64) {
	l.add(layer+".alloc_mib_per_op", bytes/(1<<20))
}

// call is one timed call into a layer: its wall time and the bytes it
// allocated.
type call struct {
	d     time.Duration
	alloc float64
}

func (c call) ms() float64 { return float64(c.d.Nanoseconds()) / 1e6 }

// add accumulates another call into c.
func (c *call) add(o call) {
	c.d += o.d
	c.alloc += o.alloc
}

// timeCall runs fn and measures it. Allocation is read outside the
// timed interval, so the reading's stop-the-world pause is not
// attributed to the layer.
func timeCall(fn func()) call {
	a0 := allocBytes()
	t0 := obs.Now()
	fn()
	d := obs.Now().Sub(t0)
	return call{d: d, alloc: float64(allocBytes() - a0)}
}

// record adds a call's time under name and its bytes under layer.
func (l *ledger) record(name, layer string, c call) {
	l.add(name, c.ms())
	l.addAlloc(layer, c.alloc)
}

// metrics renders the ledger in registry order.
func (l *ledger) metrics() []namedMetric {
	var out []namedMetric
	for _, m := range perLayerMetrics() {
		v := l.abs[m.name]
		if m.perOp {
			v = 0
			if l.ops > 0 {
				v = l.sums[m.name] / float64(l.ops)
			}
		}
		out = append(out, namedMetric{m.name, m.unit, v})
	}
	return out
}
