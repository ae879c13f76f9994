// Package autochip implements the paper's Fig. 4 framework: fully
// automated Verilog generation with LLMs and EDA-tool feedback, including
// the tree-search variant (k candidates per round, ranked by the fraction
// of passing testbench checks, best candidate's tool output fed back) and
// the earlier structured conversational flow of [10] (model-generated
// testbenches, human feedback only on repeated failure).
package autochip

import (
	"context"
	"fmt"
	"strings"

	"llm4eda/internal/benchset"
	"llm4eda/internal/core"
	"llm4eda/internal/llm"
	"llm4eda/internal/simfarm"
	"llm4eda/internal/verilog"
)

// Options parameterize a run.
type Options struct {
	// RunSpec carries the shared execution envelope (seed, tier, workers,
	// deadline); Workers bounds the per-round candidate simulations.
	core.RunSpec
	Model llm.Model
	// K is the number of candidate responses per round (tree breadth).
	K int
	// Depth is the number of feedback rounds (tree depth).
	Depth int
	// Temperature for generation (default 0.7).
	Temperature float64
	// Sim bounds each candidate simulation.
	Sim verilog.SimOptions
}

func (o Options) withDefaults() Options {
	if o.K == 0 {
		o.K = 1
	}
	if o.Depth == 0 {
		o.Depth = 1
	}
	if o.Temperature == 0 {
		o.Temperature = 0.7
	}
	return o
}

// Candidate is one generated design with its evaluation.
type Candidate struct {
	Source   string
	Verdict  core.Verdict
	Feedback string
}

// Result reports one AutoChip run. TotalCandidates and the token counts
// cover every generated candidate, including the full breadth of a round
// that solves early — rounds generate their whole batch before scoring
// (see Run), so these are per-round costs, not cost-to-first-pass.
type Result struct {
	Solved          bool
	Rounds          int
	TotalCandidates int
	Best            Candidate
	TokensIn        int
	TokensOut       int
}

// Evaluate compiles and simulates a candidate against the problem's
// testbench, producing the verdict and the raw tool feedback the next
// round sees. The bench and the candidate compile through the shared
// simfarm cache, so re-evaluating a known design is free.
func Evaluate(p *benchset.Problem, source string, sim verilog.SimOptions) Candidate {
	cands, _ := EvaluateBatch(context.Background(), p, []string{source}, sim, 1)
	return cands[0]
}

// EvaluateBatch scores one round's candidate batch against the problem's
// testbench through the simfarm engine: one bench compile, duplicate
// candidates simulated once, independent candidates in parallel (workers
// <= 0 selects GOMAXPROCS). Output order matches the input and equals a
// serial Evaluate loop bit for bit. A cancelled ctx aborts the batch
// within one job and returns ctx.Err(); candidates that never simulated
// carry the cancellation error as their compile log.
func EvaluateBatch(ctx context.Context, p *benchset.Problem, sources []string, sim verilog.SimOptions, workers int) ([]Candidate, error) {
	tb := p.Testbench()
	jobs := make([]simfarm.Job, len(sources))
	for i, src := range sources {
		jobs[i] = simfarm.Job{DUT: src, TB: tb, Top: "tb",
			DUTTop: p.TopModule, Lint: true, Opts: sim}
	}
	results, err := simfarm.RunManyCtx(ctx, jobs, workers)
	cands := make([]Candidate, len(sources))
	for i, r := range results {
		cands[i] = toCandidate(sources[i], r.Res, r.Err)
	}
	return cands, err
}

// toCandidate folds one simulation outcome into the candidate verdict and
// the tool feedback the next round sees.
func toCandidate(source string, res *verilog.SimResult, err error) Candidate {
	c := Candidate{Source: source}
	if err != nil {
		c.Verdict = core.Verdict{Compiled: false, Log: err.Error()}
		c.Feedback = err.Error()
		return c
	}
	v := core.Verdict{Compiled: true, Checks: res.Checks, Failures: res.Failures, Log: res.Output}
	if res.RuntimeErr != nil {
		v.Log += "\n" + res.RuntimeErr.Error()
		if v.Failures == 0 {
			v.Failures = v.Checks // a runtime error invalidates the run
		}
	}
	if res.TimedOut {
		v.Log += "\nsimulation timed out before $finish"
		if v.Checks == 0 {
			v.Failures = 1
		}
	}
	c.Verdict = v
	if !v.Pass() {
		c.Feedback = summarizeFeedback(v.Log)
	}
	return c
}

// summarizeFeedback truncates tool output the way a context window would.
func summarizeFeedback(log string) string {
	lines := strings.Split(log, "\n")
	var kept []string
	for _, l := range lines {
		if strings.Contains(l, "CHECK FAILED") || strings.Contains(l, "ERROR") ||
			strings.Contains(l, "error") || strings.Contains(l, "timed out") {
			kept = append(kept, l)
		}
		if len(kept) >= 12 {
			break
		}
	}
	if len(kept) == 0 && len(lines) > 0 {
		kept = lines[:min(4, len(lines))]
	}
	return strings.Join(kept, "\n")
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Run executes the tree-search loop on one problem: Depth rounds of K
// candidates; each round ranks candidates by pass fraction and feeds the
// best one's tool output back. Each round generates its full breadth of K
// candidates before any is scored (the paper's tree-search shape); token
// and candidate counts therefore cover the whole final round even when an
// early candidate in it passes.
//
// The loop checks ctx between rounds and aborts candidate batches within
// one simulation; progress streams to the context's event sink (round
// phases, model calls, scored candidates).
func Run(ctx context.Context, p *benchset.Problem, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if opts.Model == nil {
		return nil, fmt.Errorf("autochip: Options.Model is required")
	}
	sink := core.SinkOf(ctx)
	res := &Result{}
	var prev *Candidate

	for round := 0; round < opts.Depth; round++ {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		res.Rounds = round + 1
		sink.Emit(core.Event{
			Kind: core.EventPhaseStart, Framework: "autochip", Phase: "round",
			Seq: round + 1, Total: opts.Depth, Detail: p.ID,
		})
		// Generate the round's full candidate batch first (model calls are
		// inherently sequential), then score the batch in one simfarm pass:
		// the testbench compiles once per problem, not once per candidate.
		sources := make([]string, 0, opts.K)
		for k := 0; k < opts.K; k++ {
			task := llm.VerilogGen{
				ProblemID: p.ID, Spec: p.Spec, Reference: p.Reference, Difficulty: p.Difficulty(),
			}
			prompt := llm.BuildDesignPrompt(p.Spec)
			if prev != nil {
				task.PrevAttempt = prev.Source
				task.Feedback = prev.Feedback
				prompt = llm.BuildFeedbackPrompt(p.Spec, prev.Source, prev.Feedback)
			}
			resp, err := opts.Model.Generate(llm.Request{
				System:      llm.SystemVerilogDesigner,
				Prompt:      prompt,
				Task:        task,
				Temperature: opts.Temperature,
			})
			if err != nil {
				return nil, fmt.Errorf("autochip: generation failed: %w", err)
			}
			res.TokensIn += resp.TokensIn
			res.TokensOut += resp.TokensOut
			res.TotalCandidates++
			sources = append(sources, resp.Text)
			sink.Emit(core.Event{
				Kind: core.EventLLMCall, Framework: "autochip", Phase: "code generation",
				Seq: res.TotalCandidates, TokensIn: resp.TokensIn, TokensOut: resp.TokensOut,
			})
		}
		cands, err := EvaluateBatch(ctx, p, sources, opts.Sim, opts.Workers)
		if err != nil {
			return res, err
		}
		// Every candidate in the batch was scored (EvaluateBatch runs the
		// whole round), so each gets its event before selection.
		for i := range cands {
			sink.Emit(core.Event{
				Kind: core.EventCandidate, Framework: "autochip", Phase: p.ID,
				Seq: i + 1, Total: len(cands), Score: cands[i].Verdict.PassFraction(),
				OK: cands[i].Verdict.Pass(), Detail: cands[i].Verdict.String(),
			})
		}
		var best *Candidate
		for i := range cands {
			cand := cands[i]
			if best == nil || rankScore(cand) > rankScore(*best) {
				best = &cands[i]
			}
			if cand.Verdict.Pass() {
				res.Solved = true
				res.Best = cand
				sink.Emit(core.Event{
					Kind: core.EventPhaseEnd, Framework: "autochip", Phase: "round",
					Seq: round + 1, Total: opts.Depth, OK: true, Detail: p.ID,
				})
				return res, nil
			}
		}
		res.Best = *best
		prev = best
		sink.Emit(core.Event{
			Kind: core.EventPhaseEnd, Framework: "autochip", Phase: "round",
			Seq: round + 1, Total: opts.Depth, OK: false, Detail: p.ID,
		})
	}
	return res, nil
}

// rankScore orders candidates: pass fraction, with non-compiling designs
// last.
func rankScore(c Candidate) float64 {
	if !c.Verdict.Compiled {
		return -1
	}
	return c.Verdict.PassFraction()
}

// FlowResult reports one structured-conversational-flow run ([10]).
type FlowResult struct {
	Solved             bool
	HumanInterventions int
	Rounds             int
	// OwnTBChecks is the check count of the model-generated testbench
	// (coverage loss shows up here).
	OwnTBChecks int
}

// StructuredFlow reproduces the earlier study's loop: the model writes the
// design AND its own testbench; tool feedback iterates against the model's
// testbench; a human intervenes (with the reference bench's output) only
// after the loop stalls. maxRounds bounds total iterations; ctx is checked
// between rounds.
func StructuredFlow(ctx context.Context, p *benchset.Problem, model llm.Model, maxRounds int, sim verilog.SimOptions) (*FlowResult, error) {
	if maxRounds == 0 {
		maxRounds = 8
	}
	out := &FlowResult{}

	// Model-generated testbench (coverage-lossy).
	tbResp, err := model.Generate(llm.Request{
		System: llm.SystemVerilogDesigner,
		Prompt: llm.BuildTestbenchPrompt(p.Spec, ""),
		Task: llm.TestbenchGen{
			ProblemID: p.ID, Spec: p.Spec,
			Header: p.TBHeader, VectorBlocks: p.TBBlocks(), Footer: p.TBFooter,
		},
	})
	if err != nil {
		return nil, fmt.Errorf("autochip: testbench generation failed: %w", err)
	}
	ownTB := tbResp.Text
	out.OwnTBChecks = strings.Count(ownTB, "$check_eq")

	evalOwn := func(src string) Candidate {
		c := Candidate{Source: src}
		// The model's own bench is fixed for the whole loop: simfarm
		// compiles it once and only the candidate half changes per round.
		res, err := simfarm.RunTestbench(src, ownTB, "tb", sim)
		if err != nil {
			c.Verdict = core.Verdict{Compiled: false, Log: err.Error()}
			c.Feedback = err.Error()
			return c
		}
		c.Verdict = core.Verdict{Compiled: true, Checks: res.Checks, Failures: res.Failures, Log: res.Output}
		if res.RuntimeErr != nil {
			c.Verdict.Log += "\n" + res.RuntimeErr.Error()
			if c.Verdict.Failures == 0 {
				c.Verdict.Failures = 1
			}
		}
		if !c.Verdict.Pass() {
			c.Feedback = summarizeFeedback(c.Verdict.Log)
		}
		return c
	}

	var prev *Candidate
	stall := 0
	for round := 0; round < maxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		out.Rounds = round + 1
		task := llm.VerilogGen{ProblemID: p.ID, Spec: p.Spec, Reference: p.Reference, Difficulty: p.Difficulty()}
		if prev != nil {
			task.PrevAttempt = prev.Source
			task.Feedback = prev.Feedback
		}
		resp, err := model.Generate(llm.Request{
			System: llm.SystemVerilogDesigner,
			Prompt: llm.BuildDesignPrompt(p.Spec),
			Task:   task,
		})
		if err != nil {
			return nil, err
		}
		cand := evalOwn(resp.Text)
		if cand.Verdict.Pass() {
			// The model believes it is done; validate with the reference
			// bench (the "human" checking the result).
			ref := Evaluate(p, cand.Source, sim)
			if ref.Verdict.Pass() {
				out.Solved = true
				return out, nil
			}
			// Own testbench missed a bug: a human supplies real feedback.
			out.HumanInterventions++
			cand.Feedback = ref.Feedback
			stall = 0
		} else if prev != nil && cand.Verdict.PassFraction() <= prev.Verdict.PassFraction() {
			stall++
			if stall >= 3 {
				// Stuck for several rounds: human intervention with the
				// reference bench's diagnosis.
				out.HumanInterventions++
				ref := Evaluate(p, cand.Source, sim)
				cand.Feedback = ref.Feedback
				stall = 0
			}
		} else {
			stall = 0
		}
		prev = &cand
	}
	return out, nil
}
