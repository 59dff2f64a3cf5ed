package fleet

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/designs"
	"repro/internal/netlist"
)

// hierFindingIDs collects every finding ID across a report, sorted.
func hierFindingIDs(rep *Report) []string {
	var ids []string
	for i := range rep.Results {
		for _, f := range rep.Results[i].Findings() {
			ids = append(ids, f.ID)
		}
	}
	sort.Strings(ids)
	return ids
}

// TestVerifyHierMatchesFlat: on a clean deep hierarchy the composed
// hierarchical outcome must be indistinguishable from whole-netlist
// verification — same top verdict, same (empty) finding set.
func TestVerifyHierMatchesFlat(t *testing.T) {
	lib, top := designs.DeepTree(3, 4, 0)
	topC := lib.Cell(top)
	hrep, err := VerifyHier(lib, topC, Options{Core: coreOpts(), Cache: NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := lib.Flatten(top)
	if err != nil {
		t.Fatal(err)
	}
	frep := Verify([]Item{{Name: top, Circuit: flat}}, Options{Core: coreOpts()})

	topRes := &hrep.Results[len(hrep.Results)-1]
	if topRes.Subcell != top {
		t.Fatalf("last hier result is %q, want top %q", topRes.Subcell, top)
	}
	if got, want := topRes.VerdictString(), frep.Results[0].VerdictString(); got != want {
		t.Fatalf("composed top verdict %q, flat verdict %q", got, want)
	}
	hIDs, fIDs := hierFindingIDs(hrep), hierFindingIDs(frep)
	if len(hIDs) != 0 || len(fIDs) != 0 {
		t.Fatalf("corpus not clean: hier findings %v, flat findings %v", hIDs, fIDs)
	}
	// Every cell of the hierarchy must appear as a subcell item exactly
	// once, children before parents.
	seen := map[string]bool{}
	for i := range hrep.Results {
		res := &hrep.Results[i]
		if res.Subcell == "" || seen[res.Subcell] {
			t.Fatalf("result %d: bad subcell %q (dup=%v)", i, res.Subcell, seen[res.Subcell])
		}
		seen[res.Subcell] = true
	}
	if topRes.ComposedFrom == 0 {
		t.Fatal("top result composed from no children")
	}
}

// TestVerifyHierFindsLeafDefect: a defect inside one leaf must surface
// through hierarchical verification with the same composed top verdict
// whole-netlist verification reaches.
func TestVerifyHierFindsLeafDefect(t *testing.T) {
	lib, top := designs.DeepTree(3, 3, 3.0) // leaf v0 badly beta-skewed
	topC := lib.Cell(top)
	hrep, err := VerifyHier(lib, topC, Options{Core: coreOpts(), Cache: NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := lib.Flatten(top)
	if err != nil {
		t.Fatal(err)
	}
	frep := Verify([]Item{{Name: top, Circuit: flat}}, Options{Core: coreOpts()})
	if len(hierFindingIDs(frep)) == 0 {
		t.Skip("tweak produced no flat finding; corpus defect assumption broken")
	}
	if len(hierFindingIDs(hrep)) == 0 {
		t.Fatal("hier run missed the leaf defect whole-netlist verification found")
	}
	topRes := &hrep.Results[len(hrep.Results)-1]
	if got, want := topRes.VerdictString(), frep.Results[0].VerdictString(); got != want {
		t.Fatalf("composed top verdict %q, flat verdict %q", got, want)
	}
	// The defect must be attributed to the edited leaf's subcell item.
	var found bool
	for i := range hrep.Results {
		res := &hrep.Results[i]
		if res.Subcell == "dt_l0_v0" && len(res.Findings()) > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("defect not attributed to leaf subcell dt_l0_v0")
	}
}

// TestVerifyHierDeterministicAcrossWorkers: the hierarchical report —
// items, fingerprints, verdicts, provenance, findings — is identical at
// any worker count.
func TestVerifyHierDeterministicAcrossWorkers(t *testing.T) {
	lib, top := designs.DeepTree(3, 4, 0)
	topC := lib.Cell(top)
	type row struct {
		name, fp, verdict, subcell, parent string
		composed                           int
	}
	var want []row
	var wantText string
	for _, workers := range []int{1, 4, 16} {
		rep, err := VerifyHier(lib, topC, Options{Core: coreOpts(), Cache: NewCache(), Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var got []row
		for i := range rep.Results {
			res := &rep.Results[i]
			got = append(got, row{res.Name, res.Fingerprint.String(), res.VerdictString(),
				res.Subcell, res.Parent, res.ComposedFrom})
		}
		if want == nil {
			want, wantText = got, rep.Text()
			continue
		}
		if rep.Text() != wantText {
			t.Fatalf("workers=%d: report text differs:\n%s\nvs\n%s", workers, rep.Text(), wantText)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: result %d differs: %+v vs %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestVerifyHierWarmEditMissPattern is the incremental contract: after
// a one-leaf edit, a warm re-verify sharing the cache misses exactly
// the edited leaf and the cells on its path to the root, and replays
// every other subcell from cache.
func TestVerifyHierWarmEditMissPattern(t *testing.T) {
	cache := NewCache()
	cold, coldTop := designs.DeepTree(4, 3, 0)
	if _, err := VerifyHier(cold, cold.Cell(coldTop), Options{Core: coreOpts(), Cache: cache}); err != nil {
		t.Fatal(err)
	}
	edited, top := designs.DeepTree(4, 3, 0.1)
	rep, err := VerifyHier(edited, edited.Cell(top), Options{Core: coreOpts(), Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	wantMiss := map[string]bool{
		"dt_l0_v0": true, "dt_l1_v0": true, "dt_l2_v0": true, "dt_l3_v0": true, "dt_top": true,
	}
	for i := range rep.Results {
		res := &rep.Results[i]
		missed := !res.Cached && !res.DiskHit
		if missed != wantMiss[res.Subcell] {
			t.Errorf("subcell %s: miss=%v, want %v", res.Subcell, missed, wantMiss[res.Subcell])
		}
	}
	if got, want := rep.Misses, len(wantMiss); got != want {
		t.Errorf("warm re-verify misses = %d, want %d", got, want)
	}
}

// TestVerifyHierRenameInvariance: renaming a cell (and nothing else)
// must not invalidate any subcell cache entry except nothing at all —
// DAG keys are content-addressed, so the renamed run is all hits.
func TestVerifyHierRenameInvariance(t *testing.T) {
	cache := NewCache()
	lib, top := designs.DeepTree(3, 2, 0)
	if _, err := VerifyHier(lib, lib.Cell(top), Options{Core: coreOpts(), Cache: cache}); err != nil {
		t.Fatal(err)
	}
	// Rebuild the same hierarchy under different leaf cell names.
	lib2, _ := designs.DeepTree(3, 2, 0)
	renamed := netlist.NewLibrary()
	for _, name := range lib2.Cells() {
		c := lib2.Cell(name)
		if name == "dt_l0_v0" {
			c.Name = "leaf_zero"
		}
		renamed.Add(c)
	}
	for _, name := range renamed.Cells() {
		c := renamed.Cell(name)
		for _, inst := range c.Instances {
			if inst.Cell == "dt_l0_v0" {
				inst.Cell = "leaf_zero"
			}
		}
	}
	rep, err := VerifyHier(renamed, renamed.Cell(top), Options{Core: coreOpts(), Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Misses != 0 {
		for i := range rep.Results {
			res := &rep.Results[i]
			t.Logf("%s cached=%v", res.Subcell, res.Cached)
		}
		t.Fatalf("rename-only edit caused %d cache misses, want 0", rep.Misses)
	}
}

// TestVerifyHierInlineCutoffKeying: the inlining cutoff shapes every
// kept cell's scope (it decides which children fold in vs become
// ports), so two runs with different cutoffs sharing one cache must
// never alias entries — the shared-cache run reproduces the
// fresh-cache outcome and replays nothing from the other
// configuration.
func TestVerifyHierInlineCutoffKeying(t *testing.T) {
	cache := NewCache()
	lib, top := designs.DeepTree(3, 2, 0)
	repA, err := VerifyHier(lib, lib.Cell(top), Options{Core: coreOpts(), Cache: cache, HierInline: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Cutoff 100 inlines the ~50-device leaves that cutoff -1 kept, so
	// the kept parents share DAG keys across the two runs while their
	// scopes differ materially.
	repB, err := VerifyHier(lib, lib.Cell(top), Options{Core: coreOpts(), Cache: cache, HierInline: 100})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := VerifyHier(lib, lib.Cell(top), Options{Core: coreOpts(), Cache: NewCache(), HierInline: 100})
	if err != nil {
		t.Fatal(err)
	}
	if repA.ConfigKey == repB.ConfigKey {
		t.Fatalf("config keys alias across cutoffs: %q", repA.ConfigKey)
	}
	if len(repB.Results) >= len(repA.Results) {
		t.Fatalf("cutoff 100 kept %d units, want fewer than cutoff -1's %d (corpus assumption broken)",
			len(repB.Results), len(repA.Results))
	}
	if repB.Text() != ref.Text() {
		t.Fatalf("shared-cache run differs from fresh-cache run:\n%svs\n%s", repB.Text(), ref.Text())
	}
	if repB.Misses != ref.Misses {
		t.Fatalf("shared-cache run replayed %d entries from the other cutoff's configuration (misses=%d, want %d)",
			ref.Misses-repB.Misses, repB.Misses, ref.Misses)
	}
}

// TestCachePruneHier: the hier side-tables live in the cache's store.
// A store whose budget holds nothing is emptied after every run, and
// VerifyHier over it still reproduces an unbounded cache's report,
// re-deriving every record and side-table entry it lost.
func TestCachePruneHier(t *testing.T) {
	lib, top := designs.DeepTree(3, 4, 0.5)
	topC := lib.Cell(top)
	want, err := VerifyHier(lib, topC, Options{Core: coreOpts(), Cache: NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	defer func(b int64) { StoreBudget = b }(StoreBudget)
	StoreBudget = 0
	c := NewCache()
	for run := 0; run < 2; run++ {
		rep, err := VerifyHier(lib, topC, Options{Core: coreOpts(), Cache: c, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Text() != want.Text() {
			t.Fatalf("run %d over an empty-budget store:\n%s\nwant:\n%s", run, rep.Text(), want.Text())
		}
		if got, exp := fmt.Sprint(hierFindingIDs(rep)), fmt.Sprint(hierFindingIDs(want)); got != exp {
			t.Fatalf("run %d findings %s, want %s", run, got, exp)
		}
		if rep.Hits != want.Hits || rep.Misses != want.Misses {
			t.Fatalf("run %d: hits=%d misses=%d, want the cold run's %d/%d", run, rep.Hits, rep.Misses, want.Hits, want.Misses)
		}
		if st := c.Store().Stats(); st.Entries != 0 || st.Bytes != 0 || st.Evictions == 0 {
			t.Fatalf("run %d left store %+v, want it empty after evicting", run, st)
		}
	}
}

// TestVerifyHierFallbackFlat: a design without hierarchy goes through
// whole-netlist verification — one unsalted item, no subcell fields.
func TestVerifyHierFallbackFlat(t *testing.T) {
	lib := netlist.NewLibrary()
	c := designs.InverterChain(12)
	lib.Add(c)
	rep, err := VerifyHier(lib, c, Options{Core: coreOpts()})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 {
		t.Fatalf("%d results, want 1", len(rep.Results))
	}
	if rep.Results[0].Subcell != "" {
		t.Fatalf("flat fallback set Subcell=%q", rep.Results[0].Subcell)
	}
	flat := Verify([]Item{{Name: c.Name, Circuit: c}}, Options{Core: coreOpts()})
	if rep.Results[0].VerdictString() != flat.Results[0].VerdictString() {
		t.Fatalf("fallback verdict %s != flat verdict %s",
			rep.Results[0].VerdictString(), flat.Results[0].VerdictString())
	}
}
