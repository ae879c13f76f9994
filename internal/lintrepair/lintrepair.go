// Package lintrepair is the lint-guided repair loop (scenario E12): the
// static-analysis dual of the dynamic repair frameworks. Each round a
// candidate goes to the simulation farm with pre-simulation screening
// enabled; a candidate with error-severity lint findings is rejected
// before any VM compile or simulation, and the formatted lint report —
// source-line-attributed, like a compiler error — becomes the repair
// feedback. Candidates that pass the screen simulate normally, and
// functional failures fall back to ordinary testbench feedback. The
// farm's stats delta exposes the economics: with screening on, broken
// candidates cost a lint pass (cached by content) instead of a
// compile+simulate pair.
package lintrepair

import (
	"context"
	"errors"
	"fmt"

	"llm4eda/internal/benchset"
	"llm4eda/internal/core"
	"llm4eda/internal/llm"
	"llm4eda/internal/simfarm"
	"llm4eda/internal/verilog"
	"llm4eda/internal/vlint"
)

// Options configure one lint-repair session.
type Options struct {
	RunSpec core.RunSpec
	// Model powers repair; nil runs a single screen-only round.
	Model llm.Model
	// Rounds bounds the loop (default 6).
	Rounds int
	// Screen enables pre-simulation lint screening. Disabling it keeps
	// the identical loop but pays a compile+simulation for every broken
	// candidate — the control arm of the E12 cost comparison.
	Screen bool
	// Temperature for repair generations.
	Temperature float64
	// Farm overrides the simulation farm (default: the shared farm).
	// The cost comparison uses two fresh farms so neither arm serves
	// the other's cached results.
	Farm *simfarm.Farm
}

// Round records one iteration.
type Round struct {
	N int
	// Rejected: screening stopped the candidate (error-severity lints).
	Rejected bool
	// Errors counts the error-severity findings the round saw.
	Errors int
	// TBPassed is the testbench verdict (always false when Rejected).
	TBPassed bool
	// Repaired marks that a repair generation followed this round.
	Repaired bool
}

// Result is one full session.
type Result struct {
	Problem string
	// Detected: the first round's screen rejected the initial candidate.
	Detected bool
	// Converged: the final candidate passes the reference testbench.
	Converged bool
	Rounds    []Round
	// Final is the last candidate.
	Final     string
	TokensIn  int
	TokensOut int
}

// Run drives the loop on one candidate until the testbench passes or
// the round budget expires.
func Run(ctx context.Context, p *benchset.Problem, candidate string, opts Options) (*Result, error) {
	opts.RunSpec = opts.RunSpec.WithDefaults()
	farm := opts.Farm
	if farm == nil {
		farm = simfarm.Default()
	}
	total := opts.Rounds
	if total <= 0 {
		total = 6
	}
	if opts.Model == nil {
		total = 1
	}
	sink := core.SinkOf(ctx)
	res := &Result{Problem: p.ID, Final: candidate}
	for round := 1; round <= total; round++ {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		sink.Emit(core.Event{Kind: core.EventPhaseStart, Framework: "lint",
			Phase: "round", Seq: round, Total: total})

		jobs, err := farm.RunManyCtx(ctx, []simfarm.Job{{
			DUT: candidate, TB: p.Testbench(), Top: "tb",
			DUTTop: p.TopModule, Lint: opts.Screen,
			Opts: verilog.SimOptions{Seed: opts.RunSpec.Seed},
		}}, 1)
		if err != nil {
			return res, err
		}
		out := jobs[0]

		r := Round{N: round}
		var feedback string
		var rej *vlint.RejectError
		switch {
		case errors.As(out.Err, &rej):
			r.Rejected = true
			r.Errors = len(rej.Diags)
			if round == 1 {
				res.Detected = true
			}
			feedback = rej.Error()
		case out.Err != nil:
			feedback = out.Err.Error()
		case out.Res.RuntimeErr != nil:
			feedback = fmt.Sprintf("simulation fault: %v", out.Res.RuntimeErr)
		case !out.Res.Passed():
			feedback = fmt.Sprintf("testbench failed: %d of %d checks failed (timed out=%v)",
				out.Res.Failures, out.Res.Checks, out.Res.TimedOut)
		default:
			r.TBPassed = true
		}

		ev := core.Event{Kind: core.EventCandidate, Framework: "lint",
			Phase: "screen", Seq: round, Total: total, OK: r.TBPassed}
		if r.TBPassed {
			ev.Detail = fmt.Sprintf("%s: clean — testbench passed", p.ID)
		} else if r.Rejected {
			ev.Detail = fmt.Sprintf("%s: rejected before simulation (%d lint errors)", p.ID, r.Errors)
		} else {
			ev.Detail = fmt.Sprintf("%s: %s", p.ID, head(feedback, 160))
		}
		sink.Emit(ev)

		if r.TBPassed {
			res.Converged = true
			res.Rounds = append(res.Rounds, r)
			sink.Emit(core.Event{Kind: core.EventPhaseEnd, Framework: "lint",
				Phase: "round", Seq: round, Total: total, OK: true})
			return res, nil
		}

		if opts.Model != nil && round < total {
			prompt := llm.BuildFeedbackPrompt(p.Spec, candidate, feedback)
			if r.Rejected {
				prompt = llm.BuildLintRepairPrompt(p.Spec, candidate, vlint.Format(rej.Diags))
			}
			resp, gerr := opts.Model.Generate(llm.Request{
				System: llm.SystemVerilogDesigner,
				Prompt: prompt,
				Task: llm.VerilogGen{
					ProblemID: p.ID, Spec: p.Spec,
					Reference: p.Reference, Difficulty: p.Difficulty(),
					PrevAttempt: candidate, Feedback: feedback,
				},
				Temperature: opts.Temperature,
			})
			if gerr != nil {
				res.Rounds = append(res.Rounds, r)
				return res, gerr
			}
			res.TokensIn += resp.TokensIn
			res.TokensOut += resp.TokensOut
			sink.Emit(core.Event{Kind: core.EventLLMCall, Framework: "lint",
				Phase: "verilog-gen", Seq: round, TokensIn: resp.TokensIn, TokensOut: resp.TokensOut})
			candidate = resp.Text
			res.Final = candidate
			r.Repaired = true
		}
		res.Rounds = append(res.Rounds, r)
		sink.Emit(core.Event{Kind: core.EventPhaseEnd, Framework: "lint",
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
