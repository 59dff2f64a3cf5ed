package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"sort"
	"testing"
)

// TestGeneratorDeterministic: a seed always yields byte-identical
// decks and op sequences, and another seed yields other inputs.
func TestGeneratorDeterministic(t *testing.T) {
	gen := func(seed int64) []string {
		decks, err := coldCorpus(seed)
		if err != nil {
			t.Fatal(err)
		}
		var parts []any
		for _, d := range decks {
			parts = append(parts, d.data)
		}
		for _, i := range passOrder(newOrderRNG(seed), len(decks), 3) {
			parts = append(parts, i)
		}
		var out []string
		out = append(out, inputDigest(parts...))
		for _, s := range editSessions(seed, 2*sessionPasses) {
			plan, err := editLoopPlan(s.seed, s.passes)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, plan.digest())
		}
		in, err := cosimPlan(seed, 2)
		if err != nil {
			t.Fatal(err)
		}
		return append(out, in.digest())
	}
	a, b, c := gen(7), gen(7), gen(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("seed 7 generated different inputs: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] == c[i] {
			t.Errorf("input %d is the same for seeds 7 and 8", i)
		}
	}
}

// TestTreeRendererMatchesFullRender: a spliced edit_loop deck is the
// same bytes as rendering the whole edited tree.
func TestTreeRendererMatchesFullRender(t *testing.T) {
	r, err := newTreeRenderer()
	if err != nil {
		t.Fatal(err)
	}
	for _, tweak := range []float64{0, 0.0137, 0.49} {
		got, err := r.deck(tweak)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := treeDeck(editLevels, editVariants, tweak)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("tweak %v: spliced deck differs from the full render", tweak)
		}
	}
}

// TestEditPlanShape: one request in four is a resubmit of a version
// still in the daemon's parse cache; every other request is a fresh,
// never-seen edit.
func TestEditPlanShape(t *testing.T) {
	plan, err := editLoopPlan(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.ops) != 3*(editsPerPass+resubmitsPerPass) {
		t.Fatalf("%d ops, want %d", len(plan.ops), 3*(editsPerPass+resubmitsPerPass))
	}
	seen := map[string]bool{string(plan.versions[0]): true}
	newest, resubmits := 0, 0
	for i, op := range plan.ops {
		data := string(plan.versions[op.version])
		if op.fresh {
			if seen[data] || op.version != newest+1 {
				t.Fatalf("op %d: fresh edit repeats a deck", i)
			}
			newest = op.version
			seen[data] = true
			continue
		}
		resubmits++
		if op.version > newest || newest-op.version >= resubmitWindow {
			t.Fatalf("op %d resubmits version %d, newest is %d", i, op.version, newest)
		}
	}
	if resubmits != 3*resubmitsPerPass {
		t.Errorf("%d resubmits, want %d", resubmits, 3*resubmitsPerPass)
	}
}

// TestPercentile pins the nearest-rank percentile and the rule that a
// percentile needs minBeyond samples above it.
func TestPercentile(t *testing.T) {
	s := make([]float64, 200)
	for i := range s {
		s[len(s)-1-i] = float64(i + 1) // 200..1, unsorted on purpose
	}
	if v, beyond := percentile(s, 0.95); v != 190 || beyond != 10 {
		t.Errorf("p95 of 1..200 = %v with %d beyond, want 190 with 10", v, beyond)
	}
	if v, beyond := percentile(s, 0.50); v != 100 || beyond != 100 {
		t.Errorf("p50 of 1..200 = %v with %d beyond, want 100 with 100", v, beyond)
	}
	if _, beyond := percentile(s[:199], 0.95); beyond >= minBeyond {
		t.Errorf("p95 of 199 samples has %d beyond; want fewer than %d", beyond, minBeyond)
	}
	if n := minSamplesFor(0.95); n != 200 {
		t.Errorf("minSamplesFor(0.95) = %d, want 200", n)
	}
	if n := minSamplesFor(0.50); n != 20 {
		t.Errorf("minSamplesFor(0.50) = %d, want 20", n)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if v, beyond := percentile(nil, 0.5); v != 0 || beyond != 0 {
		t.Errorf("empty percentile = %v, %d", v, beyond)
	}
}

// TestPassesFor: a real run always has enough samples for its p95.
func TestPassesFor(t *testing.T) {
	for _, w := range []struct {
		perPass int
		passS   float64
	}{{len(coldLadder), coldPassS}, {editsPerPass + resubmitsPerPass, editPassS}, {cosimPass, cosimPassS}} {
		for _, secs := range []int{1, 10, 60} {
			n := passesFor(config{seconds: secs}, w.passS, w.perPass) * w.perPass
			if n < minSamplesFor(0.95) {
				t.Errorf("%d ops per pass, %ds: %d samples, too few for p95", w.perPass, secs, n)
			}
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the program must agree
// with.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesProgram: BENCHMARK.json lists exactly the workloads
// and per-layer metrics the program reports.
func TestSpecMatchesProgram(t *testing.T) {
	spec := loadSpec(t)
	var want, got []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	for _, w := range spec.Workloads {
		got = append(got, w.Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", got, want)
	}
	want, got = nil, nil
	for _, m := range perLayerMetrics() {
		want = append(want, m.name+" "+m.unit)
	}
	for _, m := range spec.PerLayer {
		got = append(got, m.Name+" "+m.Unit)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json per_layer\n%v\nprogram\n%v", got, want)
	}
}

// TestSmokeHeldOutSeed runs every workload end to end for one pass,
// untraced and traced, on a seed not used while the benchmark was
// tuned: every op must pass its checks and every metric must be there.
func TestSmokeHeldOutSeed(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			line, err := run(w, config{seed: 90210, seconds: 1, trace: trace, smoke: true}, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			var res result
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			var names []string
			for n := range res.Metrics {
				names = append(names, n)
			}
			sort.Strings(names)
			var want []string
			if trace {
				for _, m := range spec.PerLayer {
					want = append(want, m.Name)
				}
			} else {
				for _, m := range spec.EndToEnd {
					want = append(want, m.Name)
					if res.Metrics[m.Name].Unit == "" || res.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: %s = %+v, want a positive value", w.name, m.Name, res.Metrics[m.Name])
					}
				}
			}
			sort.Strings(want)
			if !reflect.DeepEqual(names, want) {
				t.Errorf("%s trace=%v: metrics %v, want %v", w.name, trace, names, want)
			}
		}
	}
}
