package vrank

import (
	"context"
	"strings"
	"testing"

	"llm4eda/internal/benchset"
	"llm4eda/internal/llm"
	"llm4eda/internal/verilog"
)

func TestStimulusBenchHasNoChecks(t *testing.T) {
	p := benchset.ByID("adder4")
	sb := p.StimulusBench()
	if strings.Contains(sb, "$check_eq") {
		t.Error("stimulus bench still self-checking")
	}
	if !strings.Contains(sb, "SIG") {
		t.Error("stimulus bench emits no signature")
	}
	// It must still simulate cleanly on the reference.
	res, err := verilog.RunTestbench(p.Reference, sb, "tb", verilog.SimOptions{})
	if err != nil || res.RuntimeErr != nil || !res.Finished {
		t.Fatalf("stimulus bench broken: %v %v", err, res)
	}
}

func TestSignatureSeparatesGoodFromBad(t *testing.T) {
	p := benchset.ByID("adder4")
	good := Signature(p, p.Reference, verilog.SimOptions{})
	bad := Signature(p, strings.Replace(p.Reference, "a + b + cin", "a - b + cin", 1), verilog.SimOptions{})
	if good == "" || bad == "" {
		t.Fatal("signatures empty")
	}
	if good == bad {
		t.Error("buggy design has identical signature")
	}
	if Signature(p, "module adder4(; endmodule", verilog.SimOptions{}) != "" {
		t.Error("non-compiling candidate should have empty signature")
	}
}

func TestRankPicksMajorityCluster(t *testing.T) {
	p := benchset.ByID("alu8")
	res, err := Rank(context.Background(), p, Options{Model: llm.NewSimModel(llm.TierLarge, 4), K: 7})
	if err != nil {
		t.Fatalf("Rank: %v", err)
	}
	if res.Chosen < 0 {
		t.Fatal("nothing chosen")
	}
	if len(res.Clusters) == 0 {
		t.Fatal("no clusters")
	}
	// Largest cluster first.
	for i := 1; i < len(res.Clusters); i++ {
		if len(res.Clusters[i]) > len(res.Clusters[0]) {
			t.Errorf("clusters not sorted by size")
		}
	}
}

func TestSelfConsistencyBeatsFirstSample(t *testing.T) {
	// Aggregated over problems and seeds, choosing the largest cluster
	// should pass at least as often as taking the first sample.
	chosenWins, firstWins := 0, 0
	for _, pid := range []string{"alu8", "mux4", "enc8to3", "barrel8", "satadd8"} {
		p := benchset.ByID(pid)
		for seed := uint64(0); seed < 4; seed++ {
			res, err := Rank(context.Background(), p, Options{Model: llm.NewSimModel(llm.TierMedium, seed*31+1), K: 7})
			if err != nil {
				t.Fatalf("Rank: %v", err)
			}
			if res.ChosenPasses {
				chosenWins++
			}
			if res.FirstPasses {
				firstWins++
			}
		}
	}
	if chosenWins < firstWins {
		t.Errorf("self-consistency %d < first-sample %d", chosenWins, firstWins)
	}
	if chosenWins == 0 {
		t.Error("self-consistency never passed")
	}
}
