package perfbench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"

	"llm4eda/eda"
	"llm4eda/internal/benchset"
)

// timed returns the first n specs of each client of a workload.
func timed(w *Workload, seed uint64, n int) []eda.Spec {
	var out []eda.Spec
	for c := 0; c < Clients; c++ {
		for i := 0; i < n; i++ {
			out = append(out, w.Timed(seed, c, i))
		}
	}
	return out
}

func TestSpecsAreAFunctionOfTheSeed(t *testing.T) {
	for _, w := range Workloads {
		a := append(w.Warmup(7), timed(w, 7, 300)...)
		b := append(w.Warmup(7), timed(w, 7, 300)...)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave different specs on two calls", w.Name)
		}
		if c := append(w.Warmup(8), timed(w, 8, 300)...); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same specs", w.Name)
		}
	}
}

func TestColdWorkloadsNeverRepeatASpec(t *testing.T) {
	reg := eda.DefaultRegistry()
	for _, w := range Workloads {
		if w.Hot {
			continue
		}
		for _, seed := range []uint64{0, 1, 2, math.MaxUint64} {
			seen := map[string]bool{}
			benches := map[string]bool{}
			specs := append([]eda.Spec{w.Probe}, w.Warmup(seed)...)
			for i, s := range append(specs, timed(w, seed, 3000)...) {
				s = reg.Normalize(s)
				if i < 8 { // validation is slow; the benchmark runs validate every spec
					if err := s.ValidateIn(reg); err != nil {
						t.Fatalf("%s: invalid spec %+v: %v", w.Name, s, err)
					}
				}
				k := Key(s)
				if seen[k] {
					t.Fatalf("%s seed %d: spec %s repeats", w.Name, seed, k)
				}
				seen[k] = true
				// A crosscheck bench depends only on problem and vector
				// count, so those must not repeat either.
				if s.Framework == "crosscheck" {
					b := fmt.Sprintf("%s/%g", s.Problem, s.Params["vectors"])
					if benches[b] {
						t.Fatalf("%s seed %d: crosscheck bench %s repeats", w.Name, seed, b)
					}
					benches[b] = true
					if s.Params["vectors"] < 1024 {
						t.Fatalf("%s: crosscheck with %g vectors", w.Name, s.Params["vectors"])
					}
				}
			}
		}
	}
}

func TestHotReplayDrawsOnlyFromItsHotSet(t *testing.T) {
	w, err := Lookup("hot-replay")
	if err != nil {
		t.Fatal(err)
	}
	reg := eda.DefaultRegistry()
	for _, seed := range []uint64{1, 99} {
		hot := map[string]int{}
		for j, s := range w.Warmup(seed) {
			hot[Key(reg.Normalize(s))] = j
		}
		if len(hot) != HotSetSize {
			t.Fatalf("seed %d: hot set has %d distinct specs, want %d", seed, len(hot), HotSetSize)
		}
		if _, ok := hot[Key(reg.Normalize(w.Probe))]; ok {
			t.Fatalf("seed %d: the set-up probe is in the hot set", seed)
		}
		used := map[int]bool{}
		for c := 0; c < Clients; c++ {
			for n := 0; n < 2000; n++ {
				j, ok := hot[Key(reg.Normalize(w.Timed(seed, c, n)))]
				if !ok {
					t.Fatalf("seed %d: client %d job %d is outside the hot set", seed, c, n)
				}
				// Clients draw disjoint halves, so a key is never in
				// flight twice at once.
				if j%Clients != c {
					t.Fatalf("seed %d: client %d drew hot entry %d", seed, c, j)
				}
				used[j] = true
			}
		}
		if len(used) != HotSetSize {
			t.Errorf("seed %d: timed jobs used %d of %d hot specs", seed, len(used), HotSetSize)
		}
	}
}

func TestTailSelection(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // reversed: TailOf must sort
		}
		return out
	}
	cases := []struct {
		n      int
		p, v   float64
		beyond int
	}{
		{0, 100, 0, 0},
		{10, 100, 10, 0},  // too few for any percentile: the maximum
		{19, 100, 19, 0},  // p50 leaves 9 beyond
		{20, 50, 10, 10},  // p50 leaves exactly 10
		{39, 50, 20, 19},  // p75 would leave 9
		{40, 75, 30, 10},  // p75 leaves 10
		{99, 75, 75, 24},  // p90 would leave 9
		{100, 90, 90, 10}, // p90 leaves 10
		{200, 95, 190, 10},
		{999, 95, 950, 49},
		{1000, 99, 990, 10},
		{9999, 99, 9900, 99},
		{10000, 99.9, 9990, 10},
	}
	for _, c := range cases {
		got := TailOf(seq(c.n))
		want := Tail{P: c.p, Value: c.v, Beyond: c.beyond, N: c.n}
		if got != want {
			t.Errorf("n=%d: got %+v, want %+v", c.n, got, want)
		}
	}
	if m := Median([]float64{5, 1, 3, 2, 4}); m != 3 {
		t.Errorf("median of 1..5 = %g", m)
	}
}

func TestBreakdownArithmetic(t *testing.T) {
	j := JobBreakdown{Latency: 40, Submit: 5, QueueWait: 3, Check: 2, Pipeline: 20,
		StoreWrite: 1, Lint: 1.5, Compile: 4, Sim: 2.5}
	if got := j.PipelineSelf(); got != 12 {
		t.Errorf("pipeline self = %g, want 20-1.5-4-2.5 = 12", got)
	}
	if got := j.Unattributed(); got != 9 {
		t.Errorf("unattributed = %g, want 40-5-3-2-20-1 = 9", got)
	}
}

func TestAttributeJoinsSpansToTheirJob(t *testing.T) {
	jobs := []Interval{{"a", 100, 200}, {"b", 150, 260}, {"a", 300, 400}}
	spans := []Span{
		{Job: "a", Name: "x", Start: 120, End: 130}, // first a
		{Job: "a", Name: "x", Start: 310, End: 390}, // second a
		{Job: "b", Name: "x", Start: 250, End: 255}, // b
		{Job: "a", Name: "x", Start: 250, End: 260}, // between the a jobs: warm-up or stray
		{Job: "c", Name: "x", Start: 120, End: 130}, // no such job
	}
	got := Attribute(jobs, spans)
	want := [][]Span{{spans[0]}, {spans[2]}, {spans[1]}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	if ms := (Span{Start: 1e6, End: 3.5e6}).MS(); ms != 2.5 {
		t.Errorf("span ms = %g", ms)
	}
}

func TestParseMetricsReadsOnlyItsFamilies(t *testing.T) {
	text := `# HELP llm4eda_farm_hits_total Farm cache hits, by layer.
# TYPE llm4eda_farm_hits_total counter
llm4eda_farm_hits_total{layer="parse"} 12
llm4eda_farm_hits_total{layer="result"} 3
llm4eda_vm_ops_total{tier="a"} 99
llm4eda_job_duration_seconds_sum 1.5
llm4eda_job_duration_seconds_count 6
llm4eda_report_cache_hits_total 4
`
	got := ParseMetrics(text)
	want := map[string]float64{
		`llm4eda_farm_hits_total{layer="parse"}`:  12,
		`llm4eda_farm_hits_total{layer="result"}`: 3,
		"llm4eda_job_duration_seconds_sum":        1.5,
		"llm4eda_job_duration_seconds_count":      6,
		"llm4eda_report_cache_hits_total":         4,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	d := Delta(map[string]float64{"llm4eda_report_cache_hits_total": 1}, want)
	if d["llm4eda_report_cache_hits_total"] != 3 || d["llm4eda_job_duration_seconds_count"] != 6 {
		t.Errorf("delta = %v", d)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestNamesMatchBenchmarkJSON checks every metric and workload name, and
// that BENCHMARK.json at the repository root lists exactly the metrics
// and workloads this package reports.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("bad or repeated name %q", name)
		}
		seen[name] = true
	}
	if len(spec.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the package %d", len(spec.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		check(w.Name)
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, package %s %q", i, spec.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	for _, set := range []struct {
		json []struct{ Name, Unit string }
		pkg  []Metric
	}{{spec.EndToEnd, EndToEnd}, {spec.PerLayer, PerLayer}} {
		if len(set.json) != len(set.pkg) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the package %d", len(set.json), len(set.pkg))
		}
		for i, m := range set.pkg {
			check(m.Name)
			if set.json[i].Name != m.Name || set.json[i].Unit != m.Unit {
				t.Errorf("metric %d: BENCHMARK.json %+v, package %+v", i, set.json[i], m)
			}
		}
	}
}

func TestProblemListsMatchTheSuite(t *testing.T) {
	suite := benchset.Suite()
	if len(suite) != len(Problems) {
		t.Fatalf("suite has %d problems, Problems lists %d", len(suite), len(Problems))
	}
	comb := map[string]bool{}
	for _, id := range CombProblems {
		comb[id] = true
	}
	for _, p := range suite {
		if p.ID == "" || benchset.ByID(p.ID) == nil {
			t.Fatalf("bad problem %q", p.ID)
		}
		if isComb := len(p.Ports) > 0 && p.CModel != ""; isComb != comb[p.ID] {
			t.Errorf("%s: combinational with a C model = %v, CombProblems says %v", p.ID, isComb, comb[p.ID])
		}
	}
	for _, id := range Problems {
		if benchset.ByID(id) == nil {
			t.Errorf("Problems lists unknown %q", id)
		}
	}
}
