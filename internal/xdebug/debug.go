package xdebug

import (
	"context"
	"fmt"

	"llm4eda/internal/benchset"
	"llm4eda/internal/core"
	"llm4eda/internal/llm"
	"llm4eda/internal/simfarm"
	"llm4eda/internal/verilog"
)

// Options configure one debug session.
type Options struct {
	RunSpec core.RunSpec
	// Model powers guided repair; nil runs a single diagnose-only round.
	Model llm.Model
	// Rounds bounds the loop: up to Rounds diagnoses with a repair
	// generation after each except the last (default 6).
	Rounds int
	// Vectors bounds the stimuli (default 24).
	Vectors int
	// Temperature for repair generations.
	Temperature float64
}

// Round records one iteration of the debug loop.
type Round struct {
	N int
	// TBPassed is the reference-testbench cosimulation verdict for the
	// round's candidate (independent evidence next to the trace compare).
	TBPassed bool
	// Diag is the round's diagnosis; nil when the traces aligned.
	Diag *Diagnosis
	// Repaired marks that a repair generation followed this round.
	Repaired bool
}

// Result is one full debug session.
type Result struct {
	Problem string
	// Converged: the final candidate's RTL trace matches the C model on
	// every vector.
	Converged bool
	// Localized: at least one round pinned a concrete suspect statement.
	Localized bool
	Rounds    []Round
	// Final is the last candidate (the repaired RTL on convergence).
	Final string
	// Diag is the last unresolved diagnosis (nil when converged).
	Diag      *Diagnosis
	TokensIn  int
	TokensOut int
}

// Debug runs the cross-level debug loop on a candidate: trace, align,
// localize, repair, re-cosimulate — until the traces match or the round
// budget expires.
func Debug(ctx context.Context, p *benchset.Problem, candidate string, opts Options) (*Result, error) {
	h, err := NewHarness(p, "", opts.Vectors)
	if err != nil {
		return nil, err
	}
	return h.Debug(ctx, candidate, opts)
}

// Diagnose traces one candidate and localizes the first divergence
// (nil = cross-level clean). Compile and simulation faults surface as
// structured diagnoses so the repair loop can react to them uniformly.
func (h *Harness) Diagnose(candidate string) *Diagnosis {
	tr, simres, err := h.traceRTL(candidate)
	if err != nil {
		return &Diagnosis{Problem: h.Problem.ID, Outcome: OutcomeCompile, Fault: err.Error()}
	}
	if simres.RuntimeErr != nil {
		return &Diagnosis{Problem: h.Problem.ID, Outcome: OutcomeSimFault, Fault: simres.RuntimeErr.Error()}
	}
	return h.localize(tr, candidate)
}

// Debug runs the loop against a prebuilt harness (the batch entry point:
// one harness serves every candidate of a problem).
func (h *Harness) Debug(ctx context.Context, candidate string, opts Options) (*Result, error) {
	opts.RunSpec = opts.RunSpec.WithDefaults()
	total := opts.Rounds
	if total <= 0 {
		total = 6
	}
	if opts.Model == nil {
		total = 1
	}
	sink := core.SinkOf(ctx)
	res := &Result{Problem: h.Problem.ID, Final: candidate}
	for round := 1; round <= total; round++ {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		sink.Emit(core.Event{Kind: core.EventPhaseStart, Framework: "xdebug",
			Phase: "round", Seq: round, Total: total})

		diag := h.Diagnose(candidate)
		if diag != nil {
			diag.Round = round
		}
		// Reference-testbench cosimulation rides along as independent
		// evidence (and is what "repaired" means to the rest of the
		// suite, beyond trace identity).
		tbRes, err := simfarm.RunManyCtx(ctx, []simfarm.Job{{
			DUT: candidate, TB: h.Problem.Testbench(), Top: "tb",
			DUTTop: h.Problem.TopModule, Lint: true,
			Opts: verilog.SimOptions{Seed: opts.RunSpec.Seed},
		}}, 1)
		if err != nil {
			return res, err
		}
		r := Round{N: round, TBPassed: tbRes[0].Passed(), Diag: diag}

		ev := core.Event{Kind: core.EventCandidate, Framework: "xdebug",
			Phase: "diagnosis", Seq: round, Total: total}
		if diag == nil {
			ev.OK = true
			ev.Detail = fmt.Sprintf("%s: traces aligned over %d vectors (tb pass=%v)",
				h.Problem.ID, len(h.vectors), r.TBPassed)
		} else {
			ev.Detail = fmt.Sprintf("%s: %s: %s", h.Problem.ID, diag.Outcome, head(diag.Feedback(), 200))
		}
		sink.Emit(ev)

		if diag == nil {
			res.Converged = true
			res.Diag = nil
			res.Rounds = append(res.Rounds, r)
			sink.Emit(core.Event{Kind: core.EventPhaseEnd, Framework: "xdebug",
				Phase: "round", Seq: round, Total: total, OK: true})
			return res, nil
		}
		if diag.Outcome == OutcomeDiverged && diag.SuspectLine > 0 {
			res.Localized = true
		}
		res.Diag = diag

		if opts.Model != nil && round < total {
			resp, err := opts.Model.Generate(llm.Request{
				System: llm.SystemVerilogDesigner,
				Prompt: llm.BuildTraceRepairPrompt(h.Problem.Spec, candidate, diag.Feedback()),
				Task: llm.VerilogGen{
					ProblemID: h.Problem.ID, Spec: h.Problem.Spec,
					Reference: h.Problem.Reference, Difficulty: h.Problem.Difficulty(),
					PrevAttempt: candidate, Feedback: diag.Feedback(),
				},
				Temperature: opts.Temperature,
			})
			if err != nil {
				res.Rounds = append(res.Rounds, r)
				return res, err
			}
			res.TokensIn += resp.TokensIn
			res.TokensOut += resp.TokensOut
			sink.Emit(core.Event{Kind: core.EventLLMCall, Framework: "xdebug",
				Phase: "verilog-gen", Seq: round, TokensIn: resp.TokensIn, TokensOut: resp.TokensOut})
			candidate = resp.Text
			res.Final = candidate
			r.Repaired = true
		}
		res.Rounds = append(res.Rounds, r)
		sink.Emit(core.Event{Kind: core.EventPhaseEnd, Framework: "xdebug",
			Phase: "round", Seq: round, Total: total})
	}
	return res, nil
}

func head(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
