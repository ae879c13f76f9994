package lintrepair

import (
	"context"
	"strings"
	"testing"

	"llm4eda/internal/benchset"
	"llm4eda/internal/llm"
	"llm4eda/internal/simfarm"
	"llm4eda/internal/vlint"
)

// errorMutant returns an error-class lint mutant of the problem's
// reference, or nil when the reference admits none.
func errorMutant(p *benchset.Problem) *vlint.Mutant {
	for _, m := range vlint.Mutants(p.Reference) {
		if m.IsErrorClass() {
			mm := m
			return &mm
		}
	}
	return nil
}

// The full loop: an error-class mutant is rejected by the screen on
// round 1, the lint report drives repair, and the repaired candidate
// passes the reference testbench.
func TestRepairLoopConverges(t *testing.T) {
	p := benchset.ByID("alu8")
	m := errorMutant(p)
	if m == nil {
		t.Fatal("alu8 reference admits no error-class lint mutant")
	}
	farm := simfarm.New()
	res, err := Run(context.Background(), p, m.Source, Options{
		Model:  llm.NewSimModel(llm.TierFrontier, 7),
		Rounds: 8,
		Screen: true,
		Farm:   farm,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected {
		t.Errorf("screen did not reject the %s mutant on round 1", m.Class)
	}
	if !res.Converged {
		t.Fatalf("did not converge in %d rounds", len(res.Rounds))
	}
	if !res.Rounds[0].Rejected || res.Rounds[0].Errors == 0 {
		t.Errorf("round 1 = %+v, want rejected with >0 error findings", res.Rounds[0])
	}
	if !res.Rounds[len(res.Rounds)-1].TBPassed {
		t.Error("final round did not pass the testbench")
	}
	if res.TokensOut == 0 {
		t.Error("no repair tokens accounted")
	}
	if got := farm.Stats().LintRejects; got == 0 {
		t.Error("farm counted no lint rejects")
	}
}

// Screening economics, isolated to one round: a rejected candidate must
// cost the farm no design elaboration and no simulation, while the
// screening-off control pays for both. Fresh farms per arm so neither
// serves the other's cache.
func TestScreeningSavesComputes(t *testing.T) {
	p := benchset.ByID("alu8")
	m := errorMutant(p)
	if m == nil {
		t.Fatal("no error-class mutant")
	}
	costOf := func(screen bool) uint64 {
		farm := simfarm.New()
		if _, err := Run(context.Background(), p, m.Source, Options{
			Screen: screen,
			Farm:   farm,
		}); err != nil {
			t.Fatal(err)
		}
		st := farm.Stats()
		return st.Designs.Computes + st.Results.Computes
	}
	on, off := costOf(true), costOf(false)
	if on >= off {
		t.Errorf("screening on cost %d computes, off cost %d; want strictly fewer", on, off)
	}
	if on != 0 {
		t.Errorf("rejected candidate still cost %d farm computes", on)
	}
}

// The lint report reaches the model as feedback with the "lint:" marker
// that routes it to the high-rate syntactic-repair path.
func TestLintFeedbackRouting(t *testing.T) {
	p := benchset.ByID("and4")
	src := "module and4(input [3:0] a, output y);\n" +
		"  assign y = &a;\n  assign y = 1'b0;\nendmodule\n"
	farm := simfarm.New()
	res, err := Run(context.Background(), p, src, Options{Screen: true, Farm: farm})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged || !res.Detected {
		t.Fatalf("multi-driven candidate: detected=%v converged=%v", res.Detected, res.Converged)
	}
	rej, lintErr := farm.Lint(src, p.TopModule)
	if lintErr != nil {
		t.Fatal(lintErr)
	}
	if !strings.Contains(strings.ToLower(vlint.Format(rej)), "lint:") {
		t.Errorf("lint report %q lacks the lint: routing marker", vlint.Format(rej))
	}
	prompt := llm.BuildLintRepairPrompt(p.Spec, src, vlint.Format(rej))
	if !strings.Contains(prompt, "line numbers refer to the RTL above") {
		t.Error("repair prompt does not anchor line numbers to the candidate")
	}
}

// A clean candidate sails through the screen and converges in one round
// with zero lint rejects — screening must be invisible to good RTL.
func TestCleanCandidatePasses(t *testing.T) {
	p := benchset.ByID("and4")
	farm := simfarm.New()
	res, err := Run(context.Background(), p, p.Reference, Options{Screen: true, Farm: farm})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Detected || len(res.Rounds) != 1 {
		t.Fatalf("reference candidate: %+v", res)
	}
	if got := farm.Stats().LintRejects; got != 0 {
		t.Errorf("reference candidate produced %d lint rejects", got)
	}
}
