package xdebug

import (
	"context"
	"strings"
	"testing"

	"llm4eda/internal/benchset"
	"llm4eda/internal/llm"
	"llm4eda/internal/verilog"
)

// combProblems returns the suite's cross-level-debuggable problems.
func combProblems() []*benchset.Problem {
	var out []*benchset.Problem
	for _, p := range benchset.Suite() {
		if p.CModel != "" && len(p.Ports) > 0 {
			out = append(out, p)
		}
	}
	return out
}

// The reference implementations must trace cross-level clean: any
// diagnosis here is a false divergence in the alignment model itself.
func TestReferenceTracesAlign(t *testing.T) {
	for _, p := range combProblems() {
		h, err := NewHarness(p, "", 24)
		if err != nil {
			t.Fatalf("%s: %v", p.ID, err)
		}
		if diag := h.Diagnose(p.Reference); diag != nil {
			t.Errorf("%s: reference diverges: %s", p.ID, diag.Feedback())
		}
	}
}

// The localization corpus: every deterministic mutant that diverges at
// all must localize to the injected line, >= 90% of the time, across at
// least 10 problems.
func TestMutationCorpusLocalization(t *testing.T) {
	contributing := map[string]bool{}
	divergent, hits := 0, 0
	for _, p := range combProblems() {
		h, err := NewHarness(p, "", 24)
		if err != nil {
			t.Fatalf("%s: %v", p.ID, err)
		}
		for _, m := range Mutants(p.Reference) {
			diag := h.Diagnose(m.Source)
			if diag == nil {
				continue // behavior-preserving mutant
			}
			if diag.Outcome != OutcomeDiverged {
				t.Errorf("%s %s L%d: unexpected outcome %s: %s",
					p.ID, m.Class, m.Line, diag.Outcome, diag.Fault)
				continue
			}
			divergent++
			contributing[p.ID] = true
			if diag.SuspectLine == m.Line {
				hits++
			} else {
				t.Logf("%s %s (%s): injected L%d, localized L%d (%s=%q)",
					p.ID, m.Class, m.Detail, m.Line, diag.SuspectLine, diag.Variable, diag.SuspectStmt)
			}
		}
	}
	if len(contributing) < 10 {
		t.Fatalf("only %d problems contributed divergent mutants, want >= 10", len(contributing))
	}
	if divergent == 0 {
		t.Fatal("no divergent mutants")
	}
	acc := float64(hits) / float64(divergent)
	t.Logf("localization accuracy: %d/%d = %.1f%% over %d problems",
		hits, divergent, 100*acc, len(contributing))
	if acc < 0.9 {
		t.Fatalf("localization accuracy %.1f%% below 90%% (%d/%d)", 100*acc, hits, divergent)
	}
}

// Mutants must be deterministic and syntactically valid — the corpus is
// ground truth, so a non-compiling mutant would poison the accuracy
// denominator.
func TestMutantsDeterministicAndWellFormed(t *testing.T) {
	for _, p := range combProblems() {
		a, b := Mutants(p.Reference), Mutants(p.Reference)
		if len(a) != len(b) {
			t.Fatalf("%s: nondeterministic mutant count", p.ID)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: mutant %d differs between runs", p.ID, i)
			}
			if _, err := verilog.Parse(a[i].Source); err != nil {
				t.Errorf("%s %s L%d: mutant does not parse: %v", p.ID, a[i].Class, a[i].Line, err)
			}
			if a[i].Source == p.Reference {
				t.Errorf("%s %s L%d: mutant identical to reference", p.ID, a[i].Class, a[i].Line)
			}
		}
	}
}

// A C-model fault during tracing (the CPUErr analogue) must surface as a
// structured c-fault diagnosis, not as a skipped vector.
func TestCModelFaultBecomesDiagnosis(t *testing.T) {
	p := benchset.ByID("sub8")
	// borrow divides by input a; the first stimulus corner is all-zeros,
	// so epoch 0 faults.
	cModel := `
int diff(int a, int b) { return (a - b) & 255; }
int borrow(int a, int b) { return 100 / a; }`
	h, err := NewHarness(p, cModel, 8)
	if err != nil {
		t.Fatal(err)
	}
	diag := h.Diagnose(p.Reference)
	if diag == nil {
		t.Fatal("expected a diagnosis")
	}
	if diag.Outcome != OutcomeCFault {
		t.Fatalf("outcome = %s, want %s", diag.Outcome, OutcomeCFault)
	}
	if diag.Epoch != 0 || diag.Variable != "borrow" {
		t.Fatalf("fault cell = (%d, %s), want (0, borrow)", diag.Epoch, diag.Variable)
	}
	if !strings.Contains(diag.Fault, "division by zero") {
		t.Fatalf("fault = %q, want division by zero", diag.Fault)
	}
	if fb := diag.Feedback(); !strings.Contains(fb, "high-level model fault") {
		t.Fatalf("feedback = %q", fb)
	}
}

// XAlign internal signals must win localization when an internal stage
// is the first to go wrong.
func TestXAlignLocalizesInternalStage(t *testing.T) {
	p := benchset.ByID("satadd8")
	if p.XAlign()["full"] == "" {
		t.Fatal("satadd8 lost its XAlign entry")
	}
	lines := strings.Split(p.Reference, "\n")
	target := 0
	for i, ln := range lines {
		if strings.Contains(ln, "full = a + b") {
			target = i + 1
			lines[i] = strings.Replace(ln, "a + b", "a - b", 1)
		}
	}
	if target == 0 {
		t.Fatal("satadd8 reference changed shape")
	}
	h, err := NewHarness(p, "", 24)
	if err != nil {
		t.Fatal(err)
	}
	diag := h.Diagnose(strings.Join(lines, "\n"))
	if diag == nil {
		t.Fatal("expected a divergence")
	}
	if diag.Variable != "full" {
		t.Fatalf("variable = %s, want the internal stage 'full'", diag.Variable)
	}
	if diag.SuspectLine != target {
		t.Fatalf("suspect line = %d, want %d", diag.SuspectLine, target)
	}
}

// The guided-repair loop must converge a mutated design back to
// trace-identical RTL within the round budget.
func TestRepairLoopConverges(t *testing.T) {
	p := benchset.ByID("alu8")
	ms := Mutants(p.Reference)
	if len(ms) == 0 {
		t.Fatal("no mutants")
	}
	res, err := Debug(context.Background(), p, ms[0].Source, Options{
		Model:  llm.NewSimModel(llm.TierFrontier, 1),
		Rounds: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Localized {
		t.Error("no round localized a suspect statement")
	}
	if !res.Converged {
		t.Fatalf("did not converge in %d rounds; last: %v", len(res.Rounds), res.Diag)
	}
	last := res.Rounds[len(res.Rounds)-1]
	if !last.TBPassed {
		t.Error("converged candidate fails the reference testbench")
	}
	if res.TokensOut == 0 {
		t.Error("no repair tokens accounted")
	}
}

// Compile errors must pass through Feedback verbatim so the simulated
// model routes them to syntactic repair.
func TestCompileErrorFeedback(t *testing.T) {
	p := benchset.ByID("and4")
	h, err := NewHarness(p, "", 8)
	if err != nil {
		t.Fatal(err)
	}
	diag := h.Diagnose("module and4(input a, output y) garbage")
	if diag == nil || diag.Outcome != OutcomeCompile {
		t.Fatalf("diag = %+v, want compile-error", diag)
	}
	fb := diag.Feedback()
	if !strings.Contains(fb, "error") {
		t.Fatalf("feedback %q lacks the front-end error", fb)
	}
}
