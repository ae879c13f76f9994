package vlint

import (
	"fmt"
	"strings"
	"testing"

	"llm4eda/internal/benchset"
	"llm4eda/internal/llm"
	"llm4eda/internal/verilog"
)

// TestCleanCorpus is the false-positive gate: every benchset reference
// design and every simulated-LLM candidate over them must produce zero
// error-severity findings. Error severity is the screening threshold —
// a false positive here would reject a working candidate before it ever
// reaches the simulator.
func TestCleanCorpus(t *testing.T) {
	suite := benchset.Suite()
	if len(suite) != 26 {
		t.Fatalf("benchset has %d problems, the gate expects 26", len(suite))
	}
	for _, p := range suite {
		diags, err := LintSource(p.Reference, p.TopModule)
		if err != nil {
			t.Errorf("%s: reference does not compile: %v", p.ID, err)
			continue
		}
		if errs := Errors(diags); len(errs) > 0 {
			t.Errorf("%s: reference has error-severity findings:\n%s", p.ID, Format(errs))
		}
	}

	// Simulated-LLM candidates: every tier, a few seeds per problem. The
	// mutators model functional and syntax bugs, neither of which is
	// lint-error territory — a candidate that compiles must pass the
	// error-severity screen so E1..E11 dynamics are unchanged by default
	// screening.
	tiers := []llm.Tier{llm.TierSmall, llm.TierMedium, llm.TierFrontier}
	checked, skippedCompile := 0, 0
	for _, p := range suite {
		for _, tier := range tiers {
			for seed := uint64(1); seed <= 3; seed++ {
				m := llm.NewSimModel(tier, seed*1000+uint64(p.Difficulty()))
				resp, err := m.Generate(llm.Request{Task: llm.VerilogGen{
					ProblemID: p.ID, Spec: p.Spec, Reference: p.Reference, Difficulty: p.Difficulty(),
				}})
				if err != nil {
					t.Fatalf("%s: sim model: %v", p.ID, err)
				}
				diags, err := LintSource(resp.Text, p.TopModule)
				if err != nil {
					skippedCompile++ // syntax-class candidate: screening falls through
					continue
				}
				checked++
				if errs := Errors(diags); len(errs) > 0 {
					t.Errorf("%s/%s/seed%d: candidate has error findings:\n%s\n--- candidate:\n%s",
						p.ID, tier, seed, Format(errs), resp.Text)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no candidate compiled; gate vacuous")
	}
	t.Logf("clean-corpus gate: %d references, %d candidates linted, %d non-compiling skipped",
		len(suite), checked, skippedCompile)
}

// TestMutantDetectionRate is the ground-truth gate: over every
// lint-class mutant of every reference design, the expected rule must
// fire in >= 90% of cases (and in 100% of error-class cases, which are
// what screening rejects).
func TestMutantDetectionRate(t *testing.T) {
	var total, detected, errTotal, errDetected int
	perClass := map[string][2]int{}
	for _, p := range benchset.Suite() {
		for _, m := range Mutants(p.Reference) {
			diags, err := LintSource(m.Source, p.TopModule)
			if err != nil {
				t.Errorf("%s: %s mutant at line %d no longer compiles: %v", p.ID, m.Class, m.Line, err)
				continue
			}
			total++
			hit := hasRule(diags, m.WantRule)
			c := perClass[m.Class]
			c[1]++
			if hit {
				c[0]++
				detected++
			}
			perClass[m.Class] = c
			if m.IsErrorClass() {
				errTotal++
				if hit && HasErrors(diags) {
					errDetected++
				}
			}
			if !hit {
				t.Logf("missed: %s %s line %d (%s), findings:\n%s", p.ID, m.Class, m.Line, m.Detail, Format(diags))
			}
		}
	}
	if total == 0 {
		t.Fatal("no mutants generated; gate vacuous")
	}
	var classes []string
	for c, v := range perClass {
		classes = append(classes, fmt.Sprintf("%s %d/%d", c, v[0], v[1]))
	}
	t.Logf("mutant detection: %d/%d overall, %d/%d error-class [%s]",
		detected, total, errDetected, errTotal, strings.Join(classes, ", "))
	if rate := float64(detected) / float64(total); rate < 0.9 {
		t.Errorf("detection rate %.1f%% < 90%% gate", 100*rate)
	}
	if errTotal == 0 {
		t.Error("no error-class mutants generated")
	} else if errDetected != errTotal {
		t.Errorf("error-class detection %d/%d: screening would miss broken RTL", errDetected, errTotal)
	}
}

// TestMutantsLineLocal pins the contract the repair model depends on:
// a mutant has the same number of lines as its origin and differs on
// exactly the reported line.
func TestMutantsLineLocal(t *testing.T) {
	for _, p := range benchset.Suite() {
		orig := strings.Split(p.Reference, "\n")
		for _, m := range Mutants(p.Reference) {
			got := strings.Split(m.Source, "\n")
			if len(got) != len(orig) {
				t.Fatalf("%s: %s mutant changed line count %d -> %d", p.ID, m.Class, len(orig), len(got))
			}
			for i := range got {
				if got[i] != orig[i] && i+1 != m.Line {
					t.Fatalf("%s: %s mutant reported line %d but changed line %d", p.ID, m.Class, m.Line, i+1)
				}
			}
			if got[m.Line-1] == orig[m.Line-1] {
				t.Fatalf("%s: %s mutant reported line %d unchanged", p.ID, m.Class, m.Line)
			}
		}
	}
}

// TestLintIsReadOnly guards the screening fast path: linting must not
// mutate the design (the same elaborated design may be simulated after
// a lint pass, or linted concurrently from two farm workers).
func TestLintIsReadOnly(t *testing.T) {
	p := benchset.ByID("mux4")
	if p == nil {
		t.Fatal("mux4 problem missing")
	}
	f, err := verilog.Parse(p.Reference)
	if err != nil {
		t.Fatal(err)
	}
	d, err := verilog.Elaborate(f, p.TopModule)
	if err != nil {
		t.Fatal(err)
	}
	first := Format(Lint(f, d))
	second := Format(Lint(f, d))
	if first != second {
		t.Fatalf("lint not idempotent over one design:\n%s\n---\n%s", first, second)
	}
}
