package benchset

import (
	"maps"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"llm4eda/internal/verilog"
)

// TestAllReferencesPass is the suite's ground-truth guarantee: every
// reference implementation passes its own full testbench.
func TestAllReferencesPass(t *testing.T) {
	for _, p := range Suite() {
		p := p
		t.Run(p.ID, func(t *testing.T) {
			res, err := verilog.RunTestbench(p.Reference, p.Testbench(), "tb", verilog.SimOptions{})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			if res.RuntimeErr != nil {
				t.Fatalf("runtime: %v\n%s", res.RuntimeErr, res.Output)
			}
			if !res.Passed() {
				t.Fatalf("reference fails own testbench: %d/%d failures\n%s",
					res.Failures, res.Checks, res.Output)
			}
		})
	}
}

func TestSuiteShape(t *testing.T) {
	suite := Suite()
	if len(suite) < 20 {
		t.Fatalf("suite has %d problems, want >= 20", len(suite))
	}
	seen := map[string]bool{}
	diffs := map[int]int{}
	for _, p := range suite {
		if seen[p.ID] {
			t.Errorf("duplicate problem id %q", p.ID)
		}
		seen[p.ID] = true
		if p.Spec == "" || p.Reference == "" || p.TopModule == "" {
			t.Errorf("%s: incomplete problem", p.ID)
		}
		if p.Checks() < 4 {
			t.Errorf("%s: only %d checks; testbench coverage too thin", p.ID, p.Checks())
		}
		if p.Difficulty() < 1 || p.Difficulty() > 5 {
			t.Errorf("%s: difficulty %d out of range", p.ID, p.Difficulty())
		}
		diffs[p.Difficulty()]++
		if len(p.TBBlocks()) < 2 {
			t.Errorf("%s: %d testbench blocks; coverage model needs >= 2", p.ID, len(p.TBBlocks()))
		}
	}
	for d := 1; d <= 5; d++ {
		if diffs[d] == 0 {
			t.Errorf("no problems at difficulty %d", d)
		}
	}
}

func TestByIDAndEightDesignSet(t *testing.T) {
	if ByID("adder4") == nil {
		t.Error("ByID(adder4) = nil")
	}
	if ByID("no-such") != nil {
		t.Error("ByID(no-such) != nil")
	}
	eight := EightDesignSet()
	if len(eight) != 8 {
		t.Fatalf("EightDesignSet has %d problems", len(eight))
	}
}

// TestTruncatedTestbenchStillRuns checks the coverage-loss model's
// assumption: a testbench with only the first vector block still compiles
// and finishes.
func TestTruncatedTestbenchStillRuns(t *testing.T) {
	for _, p := range Suite() {
		p := p
		t.Run(p.ID, func(t *testing.T) {
			tb := p.TBHeader + p.TBBlocks()[0] + p.TBFooter
			res, err := verilog.RunTestbench(p.Reference, tb, "tb", verilog.SimOptions{})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			if res.RuntimeErr != nil || !res.Finished {
				t.Fatalf("truncated bench broken: %v\n%s", res.RuntimeErr, res.Output)
			}
			if res.Failures > 0 {
				t.Fatalf("reference fails truncated bench:\n%s", res.Output)
			}
		})
	}
}

// TestByIDAllocatesNothing pins the index lookup every spec check and
// pipeline goes through: the suite is built once, so a lookup is one
// map read.
func TestByIDAllocatesNothing(t *testing.T) {
	ByID("alu8") // build outside the measurement
	if n := testing.AllocsPerRun(100, func() {
		if ByID("alu8") == nil {
			t.Fatal("ByID(alu8) = nil")
		}
	}); n != 0 {
		t.Fatalf("ByID allocates %v objects per call, want 0", n)
	}
}

// TestConcurrentLookups races the first build and every read path;
// run it under -race.
func TestConcurrentLookups(t *testing.T) {
	ids := make([]string, 0, 26)
	for _, p := range Suite() {
		ids = append(ids, p.ID)
	}
	want := map[string]string{}
	for _, id := range ids {
		want[id] = ByID(id).Testbench()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4*runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range ids {
				id := ids[(g+i)%len(ids)]
				p := ByID(id)
				if p.Testbench() != want[id] || len(p.StimulusBench()) == 0 {
					t.Errorf("%s: concurrent read saw a different testbench", id)
				}
				if s := Suite(); s[i].Testbench() != want[s[i].ID] {
					t.Errorf("%s: Suite copy differs from the shared problem", s[i].ID)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCallersCannotMutateTheSharedSuite mutates everything Suite and the
// accessors hand out, then checks that a fresh lookup is untouched.
func TestCallersCannotMutateTheSharedSuite(t *testing.T) {
	type snap struct {
		tb, stim string
		blocks   []string
		ports    []Port
		xalign   map[string]string
		diff     int
	}
	// Clone what the accessors return, so the snapshot cannot alias the
	// state under test.
	take := func(p *Problem) snap {
		return snap{p.Testbench(), p.StimulusBench(), slices.Clone(p.TBBlocks()),
			slices.Clone(p.Ports), maps.Clone(p.XAlign()), p.Difficulty()}
	}
	before := map[string]snap{}
	var order []string
	for _, p := range Suite() {
		before[p.ID] = take(ByID(p.ID))
		order = append(order, p.ID)
	}

	s := Suite()
	slices.Reverse(s)
	for _, p := range s {
		for i := range p.Ports {
			p.Ports[i] = Port{Name: "x", Width: 99}
		}
		p.Ports = append(p.Ports, Port{Name: "extra"})
		p.TBHeader, p.TBFooter, p.Spec, p.Reference = "", "", "", ""
		blocks := p.TBBlocks()
		for i := range blocks {
			blocks[i] = "$finish;"
		}
		if xa := p.XAlign(); xa != nil {
			for k := range xa {
				xa[k] = "bogus"
			}
			xa["new"] = "bogus"
		}
	}

	for i, p := range Suite() {
		if p.ID != order[i] {
			t.Fatalf("Suite()[%d] = %s after a caller reordered its copy, want %s", i, p.ID, order[i])
		}
	}
	for id, want := range before {
		p := ByID(id)
		if got := take(p); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: shared problem changed after callers mutated their copies", id)
		}
		if p.Spec == "" || p.Reference == "" || p.TBHeader == "" {
			t.Errorf("%s: a Suite copy's field write reached the shared problem", id)
		}
	}
}
