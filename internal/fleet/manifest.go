package fleet

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/netlist"
	"repro/internal/obs"
)

// BuildManifest assembles the run manifest from a fleet report and its
// telemetry collector: the collector contributes the span tree,
// counters, gauges and histograms; the report contributes the corpus
// half (items with their provenanced findings, verdict tallies,
// workers, wall clock, config key). Every fcv manifest producer —
// verify, bench, the serve daemon — goes through here so the documents
// stay diffable against each other.
func BuildManifest(tool string, rep *Report, col *obs.Collector) *obs.Manifest {
	m := obs.NewManifest(tool, rep.ConfigKey, col)
	m.Workers = rep.Workers
	m.WallMS = float64(rep.Elapsed.Microseconds()) / 1000
	for _, res := range rep.Results {
		m.Items = append(m.Items, obs.ManifestItem{
			Name:        res.Name,
			Fingerprint: res.Fingerprint.String(),
			Verdict:     res.VerdictString(),
			Cached:      res.Cached,
			ElapsedMS:   float64(res.Elapsed.Microseconds()) / 1000,
			// A copy: encoding fills in empty evidence lists, and the
			// findings may be a cached record's own.
			Findings: slices.Clone(res.Findings()),
			Subcell:  res.Subcell,
			Parent:   res.Parent,
			DiskHit:  res.DiskHit,
		})
	}
	p, i, v, f := rep.Counts()
	m.Verdicts = obs.VerdictTally{Pass: p, Inspect: i, Violation: v, Error: f}
	return m
}

// ItemsFromDeck parses one SPICE deck from r and returns its fleet
// items: with cells, every cell of the library (top-level element soup
// included) becomes an item; otherwise the single named — or inferred —
// top is flattened, following the same inference as the fcv CLI (a
// named top wins; an element soup is the top; else the last-defined
// cell). srcName labels parse locations (and so lint findings) exactly
// like a file path would, so a daemon reading the deck off the wire
// under the deck's own name produces findings byte-identical to a batch
// run over the file.
func ItemsFromDeck(r io.Reader, srcName, top string, cells bool) ([]Item, error) {
	lib, soup, err := netlist.ParseNamed(r, srcName)
	if err != nil {
		return nil, err
	}
	soupLive := len(soup.Devices) > 0 || len(soup.Instances) > 0 || len(soup.Resistors) > 0
	if cells {
		if soupLive {
			lib.Add(soup)
		}
		items, errs := CorpusFromLibrary(lib)
		if len(errs) > 0 {
			return nil, errs[0]
		}
		if len(items) == 0 {
			return nil, fmt.Errorf("fleet: empty deck %s", srcName)
		}
		return items, nil
	}
	var flat *netlist.Circuit
	switch {
	case top != "":
		flat, err = lib.Flatten(top)
	case !soupLive:
		names := lib.Cells()
		if len(names) == 0 {
			return nil, fmt.Errorf("fleet: empty deck %s", srcName)
		}
		flat, err = lib.Flatten(names[len(names)-1])
	default:
		lib.Add(soup)
		flat, err = lib.Flatten(soup.Name)
	}
	if err != nil {
		return nil, err
	}
	return []Item{{Name: flat.Name, Circuit: flat}}, nil
}
