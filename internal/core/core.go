// Package core defines the shared vocabulary of the llm4eda reproduction:
// designs, reports, PPA metrics and experiment records that the framework
// packages (repair, autochip, slt, agent, ...) exchange with one another
// and with the benchmark harness.
//
// The package is deliberately dependency-free so that every substrate and
// framework package can import it without cycles.
package core

import (
	"errors"
	"fmt"
	"strings"
)

// Stage identifies a step of the chip design flow shown in Fig. 1 of the
// paper. Stages are ordered: a Report produced by the agent walks them in
// sequence.
type Stage int

// Design-flow stages, in flow order.
const (
	StageSpecification Stage = iota + 1
	StageHDLGeneration
	StageTestbench
	StageSimulation
	StageDebugging
	StageSynthesis
	StagePPAOptimization
	StagePhysical
)

var stageNames = map[Stage]string{
	StageSpecification:   "specification",
	StageHDLGeneration:   "hdl-generation",
	StageTestbench:       "testbench",
	StageSimulation:      "simulation",
	StageDebugging:       "debugging",
	StageSynthesis:       "synthesis",
	StagePPAOptimization: "ppa-optimization",
	StagePhysical:        "physical",
}

// String returns the canonical lower-case name of the stage.
func (s Stage) String() string {
	if n, ok := stageNames[s]; ok {
		return n
	}
	return fmt.Sprintf("stage(%d)", int(s))
}

// Language identifies the textual representation of a design artifact.
type Language int

// Supported artifact languages.
const (
	LangVerilog Language = iota + 1
	LangC
	LangAssembly
	LangNaturalLanguage
)

// String returns the canonical name of the language.
func (l Language) String() string {
	switch l {
	case LangVerilog:
		return "verilog"
	case LangC:
		return "c"
	case LangAssembly:
		return "assembly"
	case LangNaturalLanguage:
		return "natural-language"
	default:
		return fmt.Sprintf("language(%d)", int(l))
	}
}

// Design is a single design artifact moving through the flow: a natural-
// language spec, an HDL module, a C kernel, or an assembly listing.
type Design struct {
	// Name is a short identifier, e.g. "cla_adder4".
	Name string
	// Language of Source.
	Language Language
	// Source is the full text of the artifact.
	Source string
	// TopModule names the top-level unit when Language is LangVerilog.
	TopModule string
}

// Validate reports whether the design carries the minimum information
// required by the flow.
func (d *Design) Validate() error {
	if d.Name == "" {
		return errors.New("core: design name must not be empty")
	}
	if d.Source == "" {
		return fmt.Errorf("core: design %q has empty source", d.Name)
	}
	if d.Language == LangVerilog && d.TopModule == "" {
		return fmt.Errorf("core: verilog design %q must name a top module", d.Name)
	}
	return nil
}

// PPA captures the power/performance/area triple reported by the synthesis
// and HLS substrates. Units are deliberately technology-neutral: area in
// equivalent NAND2 gates, delay in nanoseconds of critical path, power in
// milliwatts at the reference clock.
type PPA struct {
	AreaGates  float64
	DelayNS    float64
	PowerMW    float64
	LatencyCyc int // end-to-end cycles for sequential designs; 0 if purely combinational
}

// Better reports whether p dominates q under the simple lexicographic
// objective used by the repair framework's stage 4 (power, then area, then
// delay); lower is better on all axes.
func (p PPA) Better(q PPA) bool {
	if p.PowerMW != q.PowerMW {
		return p.PowerMW < q.PowerMW
	}
	if p.AreaGates != q.AreaGates {
		return p.AreaGates < q.AreaGates
	}
	return p.DelayNS < q.DelayNS
}

// Score folds the triple into a single quality-of-results scalar in (0, 1];
// larger is better. The weights mirror the repair framework's optimization
// priorities (latency and power dominate).
func (p PPA) Score() float64 {
	den := 1 + 0.5*p.PowerMW/10 + 0.3*p.AreaGates/1000 + 0.2*p.DelayNS/10
	return 1 / den
}

// String renders the triple compactly for reports.
func (p PPA) String() string {
	return fmt.Sprintf("area=%.0fg delay=%.2fns power=%.2fmW latency=%dcyc",
		p.AreaGates, p.DelayNS, p.PowerMW, p.LatencyCyc)
}

// Verdict is the outcome of evaluating a candidate against a testbench or
// an equivalence check.
type Verdict struct {
	// Compiled is false when the candidate failed to parse/elaborate.
	Compiled bool
	// Checks is the number of testbench checks executed.
	Checks int
	// Failures is the number of failed checks.
	Failures int
	// Log carries tool output (compile errors, simulation messages).
	Log string
}

// Pass reports whether the candidate compiled and passed every check.
func (v Verdict) Pass() bool {
	return v.Compiled && v.Checks > 0 && v.Failures == 0
}

// PassFraction returns the fraction of checks that passed, in [0, 1].
// Non-compiling candidates score 0; compiling candidates with no checks
// score 0 as well (an empty testbench proves nothing).
func (v Verdict) PassFraction() float64 {
	if !v.Compiled || v.Checks == 0 {
		return 0
	}
	return float64(v.Checks-v.Failures) / float64(v.Checks)
}

// String renders the verdict for logs.
func (v Verdict) String() string {
	if !v.Compiled {
		return "verdict(compile-error)"
	}
	return fmt.Sprintf("verdict(%d/%d checks pass)", v.Checks-v.Failures, v.Checks)
}

// StageRecord is one row of a flow Report: which stage ran, which LLM task
// the paper maps onto it, and what happened.
type StageRecord struct {
	Stage  Stage
	Task   string // e.g. "code generation", "testbench generation"
	Detail string
	OK     bool
}

// Report is the unified multi-stage record produced by the agent (Fig. 6):
// a design's journey through the full flow.
type Report struct {
	Design  Design
	Stages  []StageRecord
	Final   PPA
	Verdict Verdict
}

// Append adds a stage record to the report.
func (r *Report) Append(rec StageRecord) {
	r.Stages = append(r.Stages, rec)
}

// OK reports whether every recorded stage succeeded.
func (r *Report) OK() bool {
	for _, s := range r.Stages {
		if !s.OK {
			return false
		}
	}
	return len(r.Stages) > 0
}

// Render formats the report as an aligned text table for CLI output.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "design %s (%s)\n", r.Design.Name, r.Design.Language)
	for _, s := range r.Stages {
		status := "ok"
		if !s.OK {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "  %-18s %-24s %-6s %s\n", s.Stage, s.Task, status, s.Detail)
	}
	fmt.Fprintf(&b, "  final: %s, %s\n", r.Final, r.Verdict)
	return b.String()
}

// ExperimentRow is one printed row of a reproduced table/figure series.
type ExperimentRow struct {
	Series string
	X      float64
	Y      float64
	Note   string
}

// Experiment collects the rows regenerated for one paper artifact
// (figure or in-text table) plus free-form headline findings.
type Experiment struct {
	ID       string // e.g. "E4"
	Artifact string // e.g. "Fig. 4 + Sec. IV AutoChip"
	Rows     []ExperimentRow
	Findings []string
}

// AddRow appends one (series, x, y) sample.
func (e *Experiment) AddRow(series string, x, y float64, note string) {
	e.Rows = append(e.Rows, ExperimentRow{Series: series, X: x, Y: y, Note: note})
}

// AddFinding records a headline observation for EXPERIMENTS.md.
func (e *Experiment) AddFinding(format string, args ...any) {
	e.Findings = append(e.Findings, fmt.Sprintf(format, args...))
}

// Render prints the experiment in the fixed-width layout used by the
// benchmark harness, one row per sample.
func (e *Experiment) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "experiment %s — %s\n", e.ID, e.Artifact)
	for _, r := range e.Rows {
		fmt.Fprintf(&b, "  %-28s x=%-10.4g y=%-10.4g %s\n", r.Series, r.X, r.Y, r.Note)
	}
	for _, f := range e.Findings {
		fmt.Fprintf(&b, "  * %s\n", f)
	}
	return b.String()
}
