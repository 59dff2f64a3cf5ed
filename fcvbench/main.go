// Command fcvbench is the repository's end-to-end benchmark. It runs
// one seeded workload against the public entry points of the verifier,
// the daemon or the simulation kernels, checks every output, and
// prints the metrics as the last line of standard output:
//
//	fcvbench --workload cold_corpus|edit_loop|cosim --seed N --seconds S --trace 0|1 [--smoke]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// variant and prints the per-layer ledger. --smoke runs one pass of
// the workload, for tests. See README.md for what each figure means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// config is one invocation.
type config struct {
	seed    int64
	seconds int
	trace   bool
	smoke   bool
}

// workload is one named benchmark workload.
type workload struct {
	name string
	// unit names the work counted by work_per_s.
	unit string
	run  func(cfg config) (*outcome, error)
}

var workloads = []workload{
	{"cold_corpus", "devices", runColdCorpus},
	{"edit_loop", "requests", runEditLoop},
	{"cosim", "lane-cycles", runCosim},
}

// outcome is what a workload run hands back for reporting.
type outcome struct {
	setupS  []float64 // one entry per set-up repetition
	passLen int       // ops per whole pass
	timed   *phase    // the measured op sequence
	heapMiB float64   // live heap after the timed phase and a GC
	ledger  *ledger   // traced runs only
	inputs  string    // digest of the generated inputs
}

// phase is a measured op sequence.
type phase struct {
	opMS      []float64
	opCPUMS   []float64
	opWork    []float64
	wall      time.Duration // sum of op wall times
	cpu       time.Duration // process CPU summed over the ops
	attempted int
	failed    int
	fails     []string
	notes     []string // diagnostics that are not failures
	// Host-wide CPU ticks at the start and end, for the steal share.
	ticks0, ticks1 cpuTicks
}

// noise is the host noise over the phase.
func (ph *phase) noise() hostNoise {
	return newHostNoise(ph.ticks0, ph.ticks1, ph.wall, ph.cpu)
}

// merge appends a later phase of the same run.
func (ph *phase) merge(next *phase) {
	if ph.attempted == 0 {
		ph.ticks0 = next.ticks0
	}
	ph.ticks1 = next.ticks1
	ph.opMS = append(ph.opMS, next.opMS...)
	ph.opCPUMS = append(ph.opCPUMS, next.opCPUMS...)
	ph.opWork = append(ph.opWork, next.opWork...)
	ph.wall += next.wall
	ph.cpu += next.cpu
	ph.attempted += next.attempted
	ph.failed += next.failed
	for _, f := range next.fails {
		if len(ph.fails) < 8 {
			ph.fails = append(ph.fails, f)
		}
	}
	ph.notes = append(ph.notes, next.notes...)
}

// perPass returns, for each whole pass of n ops, the work rate and the
// CPU per op. Their medians discount a burst of host noise that hits
// one pass, where a whole-run total would carry it.
func (ph *phase) perPass(n int) (rates, cpuPerOp []float64) {
	for lo := 0; lo+n <= len(ph.opMS); lo += n {
		rates = append(rates, sum(ph.opWork[lo:lo+n])/(sum(ph.opMS[lo:lo+n])/1e3))
		cpuPerOp = append(cpuPerOp, sum(ph.opCPUMS[lo:lo+n])/float64(n))
	}
	return rates, cpuPerOp
}

// opFunc runs op i and returns the work it completed, plus a check of
// its output that runs after the op's clock has stopped.
type opFunc func(i int) (work float64, check func() error, err error)

// runPhase runs n ops in order, one at a time (a closed loop with one
// client), timing each and checking each.
func runPhase(n int, op opFunc) *phase { return runOps(0, n, op) }

// runOps is runPhase over ops lo to hi-1.
func runOps(lo, hi int, op opFunc) *phase {
	ph := &phase{ticks0: readCPUTicks()}
	for i := lo; i < hi; i++ {
		c0 := cpuTime()
		t0 := obs.Now()
		work, check, err := op(i)
		d := obs.Now().Sub(t0)
		cpu := cpuTime() - c0
		ph.cpu += cpu
		ph.wall += d
		ph.attempted++
		ph.opMS = append(ph.opMS, float64(d.Nanoseconds())/1e6)
		ph.opCPUMS = append(ph.opCPUMS, float64(cpu.Nanoseconds())/1e6)
		if err == nil && check != nil {
			err = check()
		}
		if err != nil {
			ph.fail(fmt.Errorf("op %d: %w", i, err))
			work = 0
		}
		ph.opWork = append(ph.opWork, work)
	}
	ph.ticks1 = readCPUTicks()
	return ph
}

// setUp runs one set-up repetition and records its time.
func (o *outcome) setUp(setup func() error) error {
	t0 := obs.Now()
	if err := setup(); err != nil {
		return err
	}
	o.setupS = append(o.setupS, obs.Now().Sub(t0).Seconds())
	return nil
}

// passesWithSetup runs n ops in whole passes, setting up afresh before
// each pass. Spreading the set-ups over the run lets setup_s, their
// median, see the same host as the ops do, where back-to-back set-ups
// all land in whatever burst of contention the run starts in.
func (o *outcome) passesWithSetup(n int, setup func() error, op opFunc) (*phase, error) {
	ph := &phase{}
	for lo := 0; lo < n; lo += o.passLen {
		if err := o.setUp(setup); err != nil {
			return nil, err
		}
		ph.merge(runOps(lo, min(lo+o.passLen, n), op))
	}
	return ph, nil
}

// pairedTrace runs each of n ops twice in a row, untraced then traced,
// and returns the phase (both runs of every op count as attempted) and
// the trace overhead in percent. Pairing each op with itself keeps a
// drift in host speed out of the overhead, which two back-to-back
// phases would fold into it.
func pairedTrace(n int, plain, traced opFunc) (*phase, float64) {
	ph := runPhase(2*n, func(i int) (float64, func() error, error) {
		if i%2 == 0 {
			return plain(i / 2)
		}
		return traced(i / 2)
	})
	var untracedMS, tracedMS float64
	for i, ms := range ph.opMS {
		if i%2 == 0 {
			untracedMS += ms
		} else {
			tracedMS += ms
		}
	}
	return ph, 100 * (tracedMS - untracedMS) / untracedMS
}

// fail counts one failed op, keeping the first few messages.
func (ph *phase) fail(err error) {
	ph.failed++
	if len(ph.fails) < 8 {
		ph.fails = append(ph.fails, err.Error())
	}
}

// failPct is failed ops as a percentage of attempted ops.
func (ph *phase) failPct() float64 {
	if ph.attempted == 0 {
		return 0
	}
	return 100 * float64(ph.failed) / float64(ph.attempted)
}

// passesFor sizes a run: enough whole passes of perPass ops to fill
// seconds at the nominal pass cost, and never fewer than the p95 needs.
// The count depends only on the flags, so a run's op sequence is fixed
// by its seed and length, never by how fast the host happens to be.
func passesFor(cfg config, nominalPassS float64, perPass int) int {
	if cfg.smoke {
		return 1
	}
	p := int(math.Round(float64(cfg.seconds) / nominalPassS))
	need := (minSamplesFor(0.95) + perPass - 1) / perPass
	if p < need {
		p = need
	}
	return p
}

// tracedPasses sizes the traced run, which has no percentile to fill.
func tracedPasses(cfg config, nominalTracedPassS float64) int {
	if cfg.smoke {
		return 1
	}
	p := int(math.Round(float64(cfg.seconds) / nominalTracedPassS))
	if p < 1 {
		p = 1
	}
	return p
}

// namedMetric is one reported figure.
type namedMetric struct {
	name, unit string
	value      float64
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// endToEnd derives the end-to-end metrics of a finished run.
func endToEnd(w workload, o *outcome) ([]namedMetric, []string) {
	ph := o.timed
	p50, b50 := percentile(ph.opMS, 0.50)
	p95, b95 := percentile(ph.opMS, 0.95)
	var notes []string
	for _, p := range []struct {
		name   string
		beyond int
	}{{"op_ms_p50", b50}, {"op_ms_p95", b95}} {
		if p.beyond < minBeyond {
			notes = append(notes, fmt.Sprintf("%s has only %d of %d samples beyond it (want %d): not a percentile", p.name, p.beyond, len(ph.opMS), minBeyond))
		}
	}
	notes = append(notes, fmt.Sprintf("op_ms: %d samples; %d beyond p50, %d beyond p95", len(ph.opMS), b50, b95))
	rates, cpu := ph.perPass(o.passLen)
	notes = append(notes, fmt.Sprintf("work_per_s counts %s; it and cpu_ms_per_op are medians of %d passes of %d ops", w.unit, len(rates), o.passLen))
	return []namedMetric{
		{"setup_s", "s", median(o.setupS)},
		{"op_ms_p50", "ms", p50},
		{"op_ms_p95", "ms", p95},
		{"work_per_s", "1/s", median(rates)},
		{"cpu_ms_per_op", "ms", median(cpu)},
		{"heap_mib", "MiB", o.heapMiB},
	}, notes
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	var cfg config
	var name string
	var trace int
	flag.StringVar(&name, "workload", "", "workload: cold_corpus, edit_loop or cosim")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&cfg.seconds, "seconds", 10, "nominal measured seconds; sets how many whole passes run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and prints the per-layer ledger")
	flag.BoolVar(&cfg.smoke, "smoke", false, "run one pass only (for tests)")
	flag.Parse()
	cfg.trace = trace == 1
	w, ok := findWorkload(name)
	if !ok || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: fcvbench --workload cold_corpus|edit_loop|cosim --seed N --seconds S --trace 0|1 [--smoke]")
		os.Exit(2)
	}
	// One P: the op, its client and the garbage collector share one
	// core, so a run never depends on how the host schedules two busy
	// vCPUs against each other.
	runtime.GOMAXPROCS(1)
	line, err := run(w, cfg, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fcvbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	fmt.Println(line)
}

// run executes one workload and returns the result line. Diagnostics —
// host noise, sample counts, failures — go to out before it.
func run(w workload, cfg config, out io.Writer) (string, error) {
	o, err := w.run(cfg)
	if err != nil {
		return "", err
	}
	ph := o.timed
	res := result{
		Correct:   ph.failed == 0,
		Attempted: ph.attempted,
		Failed:    ph.failed,
		Metrics:   map[string]jsonMetric{},
	}
	var ms []namedMetric
	var notes []string
	if cfg.trace {
		o.ledger.set("op_fail_pct", ph.failPct())
		o.ledger.set("host.steal_pct", ph.noise().StealPct)
		ms = o.ledger.metrics()
	} else {
		ms, notes = endToEnd(w, o)
	}
	for _, m := range ms {
		res.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	noise := ph.noise()
	host, _ := json.Marshal(noise)
	fmt.Fprintf(out, "workload %s seed %d inputs %s ops %d failed %d (op_fail_pct %.3g)\n",
		w.name, cfg.seed, o.inputs, ph.attempted, ph.failed, ph.failPct())
	fmt.Fprintf(out, "host %s\n", host)
	if warn := noise.warning(); warn != "" {
		fmt.Fprintln(out, warn)
	}
	for _, n := range append(notes, ph.notes...) {
		fmt.Fprintln(out, "note:", n)
	}
	for _, f := range ph.fails {
		fmt.Fprintln(out, "failure:", f)
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	for _, m := range ms {
		fmt.Fprintf(out, "  %-40s %14.6g %s\n", m.name, m.value, m.unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	return strings.TrimSpace(string(b)), nil
}
