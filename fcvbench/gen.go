package main

// Seeded input generation. Everything the program under test receives
// — SPICE decks, FCL source and stimulus seeds — is made here from the
// workload seed before any timing starts, and a seed always yields the
// same bytes in the same order.
//
// The seed moves names, op order, smooth sizes and stimulus, never the
// shape of a workload's cost: per-op cost is discontinuous in some
// sizes (sram8x4 costs about as much as sram48x24), so the styles whose
// cost jumps keep fixed sizes and only the smooth ones are jittered.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"repro/internal/designs"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// rung is one member of the cold corpus: a design style at a size.
// jitter is the largest seeded change to size; 0 pins it.
type rung struct {
	style  string
	size   int
	jitter int
}

// coldLadder is the cold_corpus member list, ordered by per-op cost on
// a 2-vCPU host: a smooth ramp from ~3 ms to ~250 ms with the
// particle-heavy sram64x32 as the long pole.
var coldLadder = []rung{
	{"pipe", 8, 1}, {"mux", 256, 8}, {"inv", 64, 2}, {"adder", 4, 0},
	{"dcvsl", 16, 1}, {"pipe", 16, 1}, {"inv", 96, 2}, {"dcvsl", 24, 1},
	{"pipe", 24, 1}, {"dcvsl", 32, 1}, {"inv", 128, 2}, {"pipe", 32, 1},
	{"inv", 160, 2}, {"adder", 8, 0}, {"adder", 12, 0}, {"mux", 512, 8},
	{"dcvsl", 48, 1}, {"inv", 192, 2}, {"pipe", 48, 1}, {"inv", 256, 2},
	{"pipe", 64, 1}, {"adder", 24, 0}, {"dcvsl", 64, 1}, {"adder", 16, 0},
	{"regfile", 8, 0}, {"dcvsl", 96, 1}, {"regfile", 4, 0}, {"pipe", 96, 1},
	{"sram", 16, 0}, {"mux", 1024, 8}, {"sram", 32, 0}, {"dcvsl", 128, 1},
	{"inv", 768, 2}, {"adder", 32, 0}, {"pipe", 128, 1}, {"regfile", 10, 0},
	{"regfile", 20, 0}, {"inv", 1024, 2}, {"sram", 40, 0}, {"adder", 48, 0},
	{"adder", 64, 0}, {"pipe", 256, 1}, {"sram", 8, 0}, {"regfile", 12, 0},
	{"regfile", 24, 0}, {"sram", 48, 0}, {"sram", 56, 0}, {"regfile", 14, 0},
	{"adder", 96, 0}, {"regfile", 28, 0}, {"adder", 128, 0}, {"regfile", 16, 0},
	{"regfile", 32, 0}, {"sram", 64, 0},
}

// styleCircuit builds one corpus member. SRAM arrays are size words of
// size/2 bits with the paper's §3 channel lengthening; register files
// are square.
func styleCircuit(style string, size int) (*netlist.Circuit, error) {
	switch style {
	case "inv":
		return designs.InverterChain(size), nil
	case "adder":
		return designs.DominoAdder(size), nil
	case "sram":
		return designs.SRAMArray(size, size/2, 0.09), nil
	case "regfile":
		return designs.RegisterFile(size, size), nil
	case "dcvsl":
		return designs.DCVSLComparator(size), nil
	case "pipe":
		return designs.LatchPipeline(size, false), nil
	case "mux":
		return designs.PassMux(size), nil
	}
	return nil, fmt.Errorf("unknown style %q", style)
}

// deck is one generated SPICE deck and what the benchmark knows of it.
type deck struct {
	name string
	data []byte
}

// writeDeck renders a flat circuit as the SPICE bytes a user would
// hand the CLI.
func writeDeck(c *netlist.Circuit) ([]byte, error) {
	var buf bytes.Buffer
	if err := netlist.Write(&buf, nil, c); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// coldCorpus generates every cold_corpus deck for a seed, in ladder
// order. The seed picks jittered sizes and a per-seed cell name.
func coldCorpus(seed int64) ([]deck, error) {
	rng := obs.NewRNG(seed)
	out := make([]deck, 0, len(coldLadder))
	for i, r := range coldLadder {
		size := r.size
		if r.jitter > 0 {
			size += rng.Intn(2*r.jitter+1) - r.jitter
		}
		c, err := styleCircuit(r.style, size)
		if err != nil {
			return nil, err
		}
		c.Name = fmt.Sprintf("%s%d_s%x_%d", r.style, size, uint32(seed), i)
		data, err := writeDeck(c)
		if err != nil {
			return nil, err
		}
		out = append(out, deck{name: c.Name, data: data})
	}
	return out, nil
}

// newOrderRNG is the cold_corpus op-order stream, kept apart from the
// deck stream so the order never changes the decks.
func newOrderRNG(seed int64) *obs.RNG { return obs.NewRNG(seed ^ 0x636f6c64) }

// passOrder returns whole passes over n members, each pass a fresh
// seeded permutation: every member runs exactly once per pass, so
// runs of the same length see the same mix of work.
func passOrder(rng *obs.RNG, n, passes int) []int {
	seq := make([]int, 0, n*passes)
	for p := 0; p < passes; p++ {
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		for i := n - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		seq = append(seq, perm...)
	}
	return seq
}

// Deep-tree shape of the edit_loop hierarchy: 3 levels of 20 variants
// give a 66-cell DAG whose subcell scopes hold tens of devices each.
const (
	editLevels   = 3
	editVariants = 20
	// editsPerPass fresh edits and resubmitsPerPass resubmits make one
	// pass; one request in four re-sends an earlier version.
	editsPerPass     = 30
	resubmitsPerPass = 10
	// resubmitWindow bounds how far back a resubmit reaches, so the
	// re-sent deck is still in the daemon's parse cache (64 entries).
	resubmitWindow = 16
)

// editOp is one edit_loop request.
type editOp struct {
	version int  // index into editPlan.versions
	fresh   bool // a new one-leaf edit (else a resubmit)
}

// editPlan is the edit_loop input: version 0 is the base tree posted
// during set-up; every later version is DeepTree with one unique leaf
// tweak.
type editPlan struct {
	top      string
	versions [][]byte
	ops      []editOp
}

// treeDeck renders a DeepTree library as an all-subckt deck.
func treeDeck(levels, variants int, tweak float64) ([]byte, string, error) {
	lib, top := designs.DeepTree(levels, variants, tweak)
	var buf bytes.Buffer
	// An empty element soup: the hierarchy is addressed by ?top=.
	if err := netlist.Write(&buf, lib, netlist.New("soup")); err != nil {
		return nil, "", err
	}
	return buf.Bytes(), top, nil
}

// editedLeaf is the one cell a DeepTree tweak changes.
const editedLeaf = "dt_l0_v0"

// treeRenderer makes edit_loop decks. A tweak changes only editedLeaf,
// and netlist.Write renders each cell on its own, so a version is the
// base deck with that one cell re-rendered — from a one-cell DeepTree —
// and spliced in: the same bytes as rendering the whole tree, at a
// fraction of the cost.
type treeRenderer struct {
	head, tail []byte
	top        string
}

func newTreeRenderer() (*treeRenderer, error) {
	base, top, err := treeDeck(editLevels, editVariants, 0)
	if err != nil {
		return nil, err
	}
	lo, hi, err := cellBlock(base, editedLeaf)
	if err != nil {
		return nil, err
	}
	return &treeRenderer{head: base[:lo], tail: base[hi:], top: top}, nil
}

func (r *treeRenderer) deck(tweak float64) ([]byte, error) {
	leaf, _, err := treeDeck(1, 1, tweak)
	if err != nil {
		return nil, err
	}
	lo, hi, err := cellBlock(leaf, editedLeaf)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(r.head)+hi-lo+len(r.tail))
	out = append(append(append(out, r.head...), leaf[lo:hi]...), r.tail...)
	return out, nil
}

// cellBlock locates one cell's .subckt ... .ends lines in a deck.
func cellBlock(data []byte, cell string) (lo, hi int, err error) {
	lo = bytes.Index(data, []byte("\n.subckt "+cell+" "))
	if lo < 0 {
		return 0, 0, fmt.Errorf("deck has no cell %s", cell)
	}
	lo++
	end := bytes.Index(data[lo:], []byte("\n.ends\n"))
	if end < 0 {
		return 0, 0, fmt.Errorf("cell %s has no .ends", cell)
	}
	return lo, lo + end + len("\n.ends\n"), nil
}

// sessionPasses is how many passes one daemon lifetime serves. The
// daemon's verification cache is unbounded (each request retains
// ~0.4 MiB), so a long run is split into sessions, each against a fresh
// daemon, to keep the benchmark's memory bounded.
const sessionPasses = 4

// editSession is one daemon lifetime of the edit loop: its seed and
// how many whole passes it serves. Its plan is generated just before
// it runs, so only one session's decks are held at a time.
type editSession struct {
	seed   int64
	passes int
}

// editSessions splits passes whole passes into daemon sessions of at
// most sessionPasses passes.
func editSessions(seed int64, passes int) []editSession {
	rng := obs.NewRNG(seed)
	var out []editSession
	for p := 0; p < passes; p += sessionPasses {
		n := passes - p
		if n > sessionPasses {
			n = sessionPasses
		}
		out = append(out, editSession{seed: int64(rng.Uint64() >> 1), passes: n})
	}
	return out
}

// digest folds the plan into a short hash of everything it sends.
func (p *editPlan) digest() string {
	parts := []any{p.top}
	for _, v := range p.versions {
		parts = append(parts, v)
	}
	for _, op := range p.ops {
		parts = append(parts, op.version, op.fresh)
	}
	return inputDigest(parts...)
}

// editLoopPlan generates one session: passes whole passes of requests.
func editLoopPlan(seed int64, passes int) (*editPlan, error) {
	rng := obs.NewRNG(seed)
	r, err := newTreeRenderer()
	if err != nil {
		return nil, err
	}
	base, err := r.deck(0)
	if err != nil {
		return nil, err
	}
	plan := &editPlan{top: r.top, versions: [][]byte{base}}
	edits := editsPerPass * passes
	perGroup := (editsPerPass + resubmitsPerPass) / resubmitsPerPass
	for g := 0; g < resubmitsPerPass*passes; g++ {
		slot := rng.Intn(perGroup)
		for k := 0; k < perGroup; k++ {
			if k == slot {
				lo := len(plan.versions) - resubmitWindow
				if lo < 0 {
					lo = 0
				}
				v := lo + rng.Intn(len(plan.versions)-lo)
				plan.ops = append(plan.ops, editOp{version: v})
				continue
			}
			// Strictly increasing, seeded tweaks: every edit is unique.
			e := len(plan.versions) - 1
			tweak := 0.01 + 0.49*(float64(e)+rng.Float64())/float64(edits)
			data, err := r.deck(tweak)
			if err != nil {
				return nil, err
			}
			plan.versions = append(plan.versions, data)
			plan.ops = append(plan.ops, editOp{version: len(plan.versions) - 1, fresh: true})
		}
	}
	return plan, nil
}

// Co-simulation shape: the 16-bit domino adder shadows its RTL over
// one 64-lane block per op. A pass runs one block of each length in
// cosimLadder, in a seeded order, as a farm worker takes blocks of mixed
// length. Identical blocks would leave op_ms_p95 nothing to read but
// host noise; eleven lengths put p50 inside the 48-cycle group and p95
// inside the 80-cycle one.
const cosimBits = 16

var cosimLadder = []int{16, 22, 29, 35, 42, 48, 54, 61, 67, 74, 80}

// cosimPass is the ops per pass: one block of each ladder length.
var cosimPass = len(cosimLadder)

// cosimInputs is the cosim input: the transistor deck, the FCL source
// and one stimulus seed and block length per op.
type cosimInputs struct {
	deck   []byte
	fcl    string
	seeds  []int64
	cycles []int
}

// digest folds the input into a short hash of everything it sends.
func (in *cosimInputs) digest() string {
	parts := []any{in.deck, in.fcl}
	for i, s := range in.seeds {
		parts = append(parts, s, in.cycles[i])
	}
	return inputDigest(parts...)
}

// cosimPlan generates passes whole passes of cosim input.
func cosimPlan(seed int64, passes int) (*cosimInputs, error) {
	data, err := writeDeck(designs.DominoAdder(cosimBits))
	if err != nil {
		return nil, err
	}
	rng := obs.NewRNG(seed)
	in := &cosimInputs{deck: data, fcl: designs.AdderRTL(cosimBits)}
	for _, k := range passOrder(rng, cosimPass, passes) {
		in.seeds = append(in.seeds, int64(rng.Uint64()>>1))
		in.cycles = append(in.cycles, cosimLadder[k])
	}
	return in, nil
}

// inputDigest folds byte slices, strings and integers into one short
// hash: the generator's determinism test compares it across calls, and
// every run prints it so two runs can be shown to share inputs.
func inputDigest(parts ...any) string {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		switch v := p.(type) {
		case []byte:
			binary.LittleEndian.PutUint64(n[:], uint64(len(v)))
			h.Write(n[:])
			h.Write(v)
		case string:
			binary.LittleEndian.PutUint64(n[:], uint64(len(v)))
			h.Write(n[:])
			h.Write([]byte(v))
		case int64:
			binary.LittleEndian.PutUint64(n[:], uint64(v))
			h.Write(n[:])
		case int:
			binary.LittleEndian.PutUint64(n[:], uint64(v))
			h.Write(n[:])
		case bool:
			if v {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
		default:
			panic(fmt.Sprintf("inputDigest: unsupported %T", p))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}
