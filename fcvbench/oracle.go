package main

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/checks"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// verdictSet is a verification outcome reduced to what the CBV rule
// compares: the verdict and the set of stable finding IDs.
type verdictSet struct {
	verdict string
	ids     map[string]bool
}

// flatReference verifies a flat circuit with plain core.Verify — the
// oracle every faster path must be at least as severe as.
func flatReference(c *netlist.Circuit, opt core.Options) (verdictSet, error) {
	rep, err := core.Verify(c, opt)
	if err != nil {
		return verdictSet{}, err
	}
	vs := verdictSet{verdict: rep.Verdict.String(), ids: map[string]bool{}}
	for _, f := range rep.Findings() {
		vs.ids[f.ID] = true
	}
	return vs, nil
}

// manifestSet folds a manifest's items into one outcome: the most
// severe item verdict and the union of finding IDs.
func manifestSet(m *obs.Manifest) verdictSet {
	vs := verdictSet{verdict: checks.Pass.String(), ids: map[string]bool{}}
	for _, it := range m.Items {
		if severity(it.Verdict) > severity(vs.verdict) {
			vs.verdict = it.Verdict
		}
		for _, f := range it.Findings {
			vs.ids[f.ID] = true
		}
	}
	return vs
}

// severity orders verdicts; an error is the most severe outcome.
func severity(v string) int {
	switch v {
	case checks.Pass.String():
		return 0
	case checks.Inspect.String():
		return 1
	case checks.Violation.String():
		return 2
	}
	return 3
}

// compareToFlat applies the CBV rule: got may never be less severe
// than the flat reference. With exactIDs — a path that claims to be
// flat verification — the finding-ID sets must also be equal. A
// hierarchical path reports findings per scope, so a finding on a path
// that crosses a cell boundary legitimately carries another ID there;
// idDiff reports the difference without failing it.
func compareToFlat(got, flat verdictSet, exactIDs bool) (idDiff string, err error) {
	if severity(got.verdict) < severity(flat.verdict) {
		return "", fmt.Errorf("verdict %s is less severe than flat %s", got.verdict, flat.verdict)
	}
	var missing, extra []string
	for id := range flat.ids {
		if !got.ids[id] {
			missing = append(missing, id)
		}
	}
	for id := range got.ids {
		if !flat.ids[id] {
			extra = append(extra, id)
		}
	}
	if len(missing)+len(extra) == 0 {
		return "", nil
	}
	sort.Strings(missing)
	sort.Strings(extra)
	idDiff = fmt.Sprintf("finding IDs differ from flat: %d flat-only %s, %d extra %s",
		len(missing), head(missing), len(extra), head(extra))
	if exactIDs {
		return idDiff, fmt.Errorf("%s", idDiff)
	}
	return idDiff, nil
}

func head(ids []string) string {
	if len(ids) > 3 {
		ids = ids[:3]
	}
	return "[" + strings.Join(ids, " ") + "]"
}
