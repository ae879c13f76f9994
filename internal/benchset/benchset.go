// Package benchset provides the VerilogEval-style benchmark suite the
// AutoChip/VRank experiments evaluate on: natural-language specs, hidden
// reference implementations, and high-quality self-checking testbenches
// (AutoChip's required input). Problems span combinational logic,
// arithmetic, sequential logic and FSMs with difficulties 1-5.
//
// Combinational testbenches are generated from Go golden functions, so
// reference implementations are correct by construction and the checks
// cover the input space systematically; sequential testbenches are
// hand-written cycle scripts.
package benchset

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
)

// Port describes one DUT port for testbench construction.
type Port struct {
	Name  string
	Width int
	// IsInput is true for stimulus ports.
	IsInput bool
}

// Problem is one benchmark entry.
//
// Suite problems are built once per process and shared by every caller
// of ByID and EightDesignSet, across goroutines. They are read-only by
// construction: the exported string fields are immutable values, and the
// difficulty, the testbench blocks and the alignment table sit behind
// accessors that return copies. Ports is the one exported slice (the
// benchmark module reads it as a field); Suite hands every caller its
// own copy of it, and nothing in the repo writes to it.
type Problem struct {
	ID        string
	Spec      string
	TopModule string
	// Reference is the hidden ground-truth implementation (the simulated
	// LLM's latent knowledge).
	Reference string
	// Testbench pieces: TBHeader + TBBlocks() + TBFooter concatenate into
	// the full self-checking bench with top module "tb". The split exists
	// so the testbench-generation task can model coverage loss.
	TBHeader string
	TBFooter string
	// Ports lists the DUT interface for combinational problems (empty for
	// sequential ones); the cross-level checker drives stimuli through it.
	Ports []Port
	// CModel is an untimed C behavioral reference (one function per
	// output port, named like the port) used by the high-level-guided
	// debugging extension; empty when not provided.
	CModel string

	difficulty int
	tbBlocks   []string
	xAlign     map[string]string
	// tb and stimulus are derived once, when the problem is built: every
	// framework scores whole candidate batches against them.
	tb       string
	stimulus string
}

// NewProblem builds a problem outside the suite from its bench pieces,
// for callers that bring their own bench. It is finished like a suite
// problem: the blocks are copied and both benches are built here.
func NewProblem(id, top, tbHeader string, tbBlocks []string, tbFooter string) *Problem {
	p := &Problem{ID: id, TopModule: top, TBHeader: tbHeader,
		tbBlocks: slices.Clone(tbBlocks), TBFooter: tbFooter}
	p.finish()
	return p
}

// finish derives the full and the stimulus testbench from the pieces.
func (p *Problem) finish() {
	p.tb = p.TBHeader + strings.Join(p.tbBlocks, "") + p.TBFooter
	p.stimulus = strings.ReplaceAll(p.tb, "$check_eq(", `$display("SIG %b %b", `)
}

// Difficulty is the problem's difficulty, 1..5.
func (p *Problem) Difficulty() int { return p.difficulty }

// TBBlocks returns a copy of the testbench's stimulus/check blocks.
func (p *Problem) TBBlocks() []string { return slices.Clone(p.tbBlocks) }

// XAlign returns a copy of the cross-level alignment table: extra C
// model functions mapped to RTL signal names inside the DUT (relative to
// the instance). Name matching covers the output ports automatically;
// this per-problem table extends the alignment to internal signals the C
// model also exposes (e.g. satadd8's 9-bit "full" intermediate). Nil
// when port-name matching is sufficient.
func (p *Problem) XAlign() map[string]string { return maps.Clone(p.xAlign) }

// Testbench returns the full reference testbench.
func (p *Problem) Testbench() string { return p.tb }

// StimulusBench returns the oracle-free rewrite of the testbench: every
// $check_eq(actual, expected) becomes a $display of both values, so a
// run prints what the bench would have checked instead of judging it.
func (p *Problem) StimulusBench() string { return p.stimulus }

// Checks returns the number of $check_eq checks in the full testbench.
func (p *Problem) Checks() int {
	return strings.Count(p.Testbench(), "$check_eq")
}

// combProblem builds a combinational problem: the testbench enumerates the
// given input vectors and checks every output against the golden function.
func combProblem(id, spec string, difficulty int, top, reference string,
	ports []Port, golden func(in map[string]uint64) map[string]uint64,
	vectors []map[string]uint64) *Problem {

	var header strings.Builder
	header.WriteString("module tb;\n")
	var conns []string
	for _, p := range ports {
		kind := "wire"
		if p.IsInput {
			kind = "reg"
		}
		if p.Width > 1 {
			fmt.Fprintf(&header, "  %s [%d:0] %s;\n", kind, p.Width-1, p.Name)
		} else {
			fmt.Fprintf(&header, "  %s %s;\n", kind, p.Name)
		}
		conns = append(conns, fmt.Sprintf(".%s(%s)", p.Name, p.Name))
	}
	fmt.Fprintf(&header, "  %s dut(%s);\n", top, strings.Join(conns, ", "))
	header.WriteString("  initial begin\n")

	var blocks []string
	for _, vec := range vectors {
		var blk strings.Builder
		for _, p := range ports {
			if p.IsInput {
				fmt.Fprintf(&blk, "    %s = %d'd%d;\n", p.Name, p.Width, vec[p.Name]&maskBits(p.Width))
			}
		}
		blk.WriteString("    #1;\n")
		out := golden(vec)
		for _, p := range ports {
			if !p.IsInput {
				fmt.Fprintf(&blk, "    $check_eq(%s, %d'd%d);\n", p.Name, p.Width, out[p.Name]&maskBits(p.Width))
			}
		}
		blocks = append(blocks, blk.String())
	}

	footer := "    $finish;\n  end\nendmodule\n"
	return &Problem{
		ID: id, Spec: spec, difficulty: difficulty, TopModule: top,
		Reference: reference,
		TBHeader:  header.String(), tbBlocks: blocks, TBFooter: footer,
		Ports: ports,
	}
}

func maskBits(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(w)) - 1
}

// sweep2 enumerates the cross product of two input ranges.
func sweep2(aName string, aN uint64, bName string, bN uint64) []map[string]uint64 {
	var out []map[string]uint64
	for a := uint64(0); a < aN; a++ {
		for b := uint64(0); b < bN; b++ {
			out = append(out, map[string]uint64{aName: a, bName: b})
		}
	}
	return out
}

// sample2 samples deterministic pseudo-random pairs for wide inputs.
func sample2(aName string, aW int, bName string, bW int, n int) []map[string]uint64 {
	var out []map[string]uint64
	state := uint64(0x1234_5678_9ABC_DEF0)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for i := 0; i < n; i++ {
		out = append(out, map[string]uint64{
			aName: next() & maskBits(aW),
			bName: next() & maskBits(bW),
		})
	}
	return out
}

// sweep1 enumerates one input.
func sweep1(name string, n uint64) []map[string]uint64 {
	var out []map[string]uint64
	for v := uint64(0); v < n; v++ {
		out = append(out, map[string]uint64{name: v})
	}
	return out
}

// index is the built suite: the problems in ID order and an id index
// over them.
type index struct {
	list []*Problem
	byID map[string]*Problem
}

// suite is the process-wide benchmark suite, built once on first use.
var suite = sync.OnceValue(func() (ix index) {
	ix.list = append(combSuite(), seqSuite()...)
	ix.byID = make(map[string]*Problem, len(ix.list))
	for _, p := range ix.list {
		p.CModel = cModels[p.ID]
		p.xAlign = xAligns[p.ID]
		p.finish()
		ix.byID[p.ID] = p
	}
	return ix
})

// Suite returns the full benchmark suite, ordered by ID. The slice and
// the problems in it are copies the caller owns.
func Suite() []*Problem {
	out := make([]*Problem, len(suite().list))
	for i, p := range suite().list {
		c := *p
		c.Ports = slices.Clone(p.Ports)
		out[i] = &c
	}
	return out
}

// ByID returns the named shared suite problem, or nil. It allocates
// nothing: every spec check and pipeline resolves its problem here.
func ByID(id string) *Problem {
	return suite().byID[id]
}

// EightDesignSet returns the 8-problem subset mirroring the benchmark set
// of the paper's structured conversational flow study [10]: mostly
// sequential designs of the same classes that study used (shift register,
// sequence detector, LFSR, PWM, counters, edge logic).
func EightDesignSet() []*Problem {
	ids := []string{"shift4", "det101", "lfsr8", "pwm4", "counter8", "updown4", "edgedet", "adder4"}
	var out []*Problem
	for _, id := range ids {
		if p := ByID(id); p != nil {
			out = append(out, p)
		}
	}
	return out
}
