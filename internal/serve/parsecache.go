package serve

import (
	"unsafe"

	"repro/internal/fleet"
	"repro/internal/netlist"
)

// parseKey names one memoized parse in the daemon's store: the deck's
// sha256 plus every parameter that changes the parse (src name, ?top=,
// ?cells=, ?hier=). An agent loop resubmits the same deck many times
// per minute, and a byte-identical resubmit skips tokenizing and
// flattening straight to warm items. Sharing them across requests is
// safe: verification treats netlist.Circuit as read-only.
type parseKey string

// parseEntry is one memoized parse: flat requests fill items, ?hier=1
// requests keep the library and resolved top for VerifyHier.
type parseEntry struct {
	items []fleet.Item
	lib   *netlist.Library
	top   *netlist.Circuit
}

// bytes estimates the memory the parsed circuits hold.
func (e *parseEntry) bytes() int64 {
	n := int64(unsafe.Sizeof(*e))
	for _, it := range e.items {
		n += circuitBytes(it.Circuit)
	}
	if e.lib != nil {
		for _, name := range e.lib.Cells() {
			n += circuitBytes(e.lib.Cell(name))
		}
		n += circuitBytes(e.top) // counted twice when top is a library cell
	}
	return n
}

// circuitBytes estimates a circuit's footprint from its element counts:
// each element's struct, slice pointer, name and index-map slot, as
// measured on parsed and flattened decks.
func circuitBytes(c *netlist.Circuit) int64 {
	return 256 + 128*int64(len(c.Nodes)) + 152*int64(len(c.Devices)) + 112*int64(len(c.Resistors)+len(c.Instances))
}
