package obs

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramPercentileProperty checks the factor-2 error contract:
// for random sample sets drawn from several shapes, every extracted
// quantile must land in the same log bucket as the exact sorted-order
// statistic, i.e. within a factor of 2 (and within the 1µs floor for
// sub-microsecond exact values).
func TestHistogramPercentileProperty(t *testing.T) {
	shapes := map[string]func(r *rand.Rand) time.Duration{
		"uniform": func(r *rand.Rand) time.Duration {
			return time.Duration(r.Int63n(int64(10 * time.Millisecond)))
		},
		"exponential": func(r *rand.Rand) time.Duration {
			return time.Duration(r.ExpFloat64() * float64(500*time.Microsecond))
		},
		"heavy-tail": func(r *rand.Rand) time.Duration {
			// Mostly fast, occasionally ~1000x slower: the shape a
			// cache-heavy job mix actually produces.
			if r.Intn(20) == 0 {
				return time.Duration(r.Int63n(int64(2 * time.Second)))
			}
			return time.Duration(r.Int63n(int64(300 * time.Microsecond)))
		},
		"sub-microsecond": func(r *rand.Rand) time.Duration {
			return time.Duration(r.Int63n(int64(5 * time.Microsecond)))
		},
	}
	for name, draw := range shapes {
		for _, n := range []int{10, 137, 5000} {
			r := rand.New(rand.NewSource(int64(n) * 7919))
			h := newHistogram()
			samples := make([]time.Duration, n)
			for i := range samples {
				samples[i] = draw(r)
				h.Record(samples[i])
			}
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 1.0} {
				rank := int(math.Ceil(q * float64(n)))
				if rank < 1 {
					rank = 1
				}
				exact := samples[rank-1]
				got := h.Quantile(q)
				if exact < time.Microsecond {
					if got > time.Microsecond {
						t.Errorf("%s n=%d q=%g: exact %v sub-µs but estimate %v above the underflow bucket", name, n, q, exact, got)
					}
					continue
				}
				if got < exact/2 || got > exact*2 {
					t.Errorf("%s n=%d q=%g: estimate %v outside factor-2 of exact %v", name, n, q, got, exact)
				}
			}
		}
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	var nilH *Histogram
	nilH.Record(time.Second) // must not panic
	if got := nilH.Quantile(0.5); got != 0 {
		t.Errorf("nil histogram quantile = %v, want 0", got)
	}
	h := newHistogram()
	if got := h.Quantile(0.99); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
	h.Record(-time.Second) // clamps to 0
	if h.Count() != 1 || h.Sum() != 0 {
		t.Errorf("negative record: count=%d sum=%v, want 1, 0", h.Count(), h.Sum())
	}
	// Overflow: far beyond the last bucket must still land somewhere sane.
	h2 := newHistogram()
	h2.Record(365 * 24 * time.Hour)
	if got := h2.Quantile(1); got < time.Hour {
		t.Errorf("overflow quantile = %v, want >= 1h", got)
	}
}

func TestRegistryIdentityAndExpose(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("jobs_total", "Jobs.", "state", "done")
	c2 := r.Counter("jobs_total", "Jobs.", "state", "done")
	if c1 != c2 {
		t.Fatal("same (name, labels) returned distinct counters")
	}
	c1.Add(3)
	r.Counter("jobs_total", "Jobs.", "state", "failed").Inc()
	r.Gauge("queue_depth", "Queued jobs.").Set(7)
	h := r.Histogram("phase_seconds", "Phase latency.", "phase", "sim")
	h.Record(2 * time.Millisecond)
	h.Record(4 * time.Millisecond)

	var b strings.Builder
	r.Expose(&b)
	out := b.String()
	for _, want := range []string{
		"# HELP jobs_total Jobs.\n# TYPE jobs_total counter\n",
		`jobs_total{state="done"} 3`,
		`jobs_total{state="failed"} 1`,
		"# TYPE queue_depth gauge",
		"queue_depth 7",
		"# TYPE phase_seconds summary",
		`phase_seconds{phase="sim",quantile="0.5"}`,
		`phase_seconds{phase="sim",quantile="0.99"}`,
		`phase_seconds_count{phase="sim"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Sum in seconds: 6ms → 0.006.
	if !strings.Contains(out, `phase_seconds_sum{phase="sim"} 0.006`) {
		t.Errorf("exposition sum not in seconds:\n%s", out)
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "X.")
	defer func() {
		if recover() == nil {
			t.Fatal("kind conflict did not panic")
		}
	}()
	r.Gauge("x_total", "X.")
}

func TestWriteFamilyEscaping(t *testing.T) {
	var b strings.Builder
	WriteFamily(&b, "faults_total", `Faults "fired".`+"\nsecond line", KindCounter,
		Sample{Labels: []string{"point", `a"b\c` + "\n"}, Value: 2})
	out := b.String()
	if !strings.Contains(out, `# HELP faults_total Faults "fired".\nsecond line`) {
		t.Errorf("help not escaped: %q", out)
	}
	if !strings.Contains(out, `faults_total{point="a\"b\\c\n"} 2`) {
		t.Errorf("label not escaped: %q", out)
	}
}

// roundTripExposition renders registry families and a harvested family
// into one exposition, returning it with the histogram it quantiles.
func roundTripExposition() (string, *Histogram) {
	r := NewRegistry()
	r.Counter("jobs_total", "Jobs.", "state", "done").Add(3)
	r.Counter("jobs_total", "Jobs.", "state", "failed").Inc()
	r.Gauge("queue_depth", "Queued jobs.").Set(7)
	h := r.Histogram("phase_seconds", "Phase latency.", "phase", "sim")
	h.Record(2 * time.Millisecond)
	h.Record(4 * time.Millisecond)

	var b strings.Builder
	r.Expose(&b)
	WriteFamily(&b, "hit_ratio", "Harvested.", KindGauge,
		Sample{Labels: []string{"layer", "result"}, Value: 0.25},
		Sample{Labels: []string{"layer", `a "b"`}, Value: 12})
	return b.String(), h
}

// TestParseTextRoundTrip writes registry families and a harvested family
// and reads them back through ParseText with exact values.
func TestParseTextRoundTrip(t *testing.T) {
	text, h := roundTripExposition()
	got, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseText: %v\n%s", err, text)
	}
	want := map[string]float64{
		`jobs_total{state="done"}`:         3,
		`jobs_total{state="failed"}`:       1,
		"queue_depth":                      7,
		`phase_seconds_sum{phase="sim"}`:   0.006,
		`phase_seconds_count{phase="sim"}`: 2,
		`hit_ratio{layer="result"}`:        0.25,
		`hit_ratio{layer="a \"b\""}`:       12,
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		want[fmt.Sprintf(`phase_seconds{phase="sim",quantile="%g"}`, q)] = h.Quantile(q).Seconds()
	}
	if len(got) != len(want) {
		t.Errorf("parsed %d samples, want %d: %v", len(got), len(want), got)
	}
	for k, v := range want {
		if g, ok := got[k]; !ok || g != v {
			t.Errorf("%s = %v (present=%v), want %v", k, g, ok, v)
		}
	}
}

var malformedExpositions = map[string]string{
	"no value":    "# TYPE x counter\nx\n",
	"non-numeric": "x{a=\"b\"} many\n",
	"duplicate":   "x 1\nx 2\n",
}

func TestParseTextMalformed(t *testing.T) {
	for name, text := range malformedExpositions {
		if got, err := ParseText(strings.NewReader(text)); err == nil {
			t.Errorf("%s: ParseText = %v, want an error", name, got)
		}
	}
}

// FuzzParseText feeds ParseText arbitrary bytes, which must never panic,
// and round-trips a registry counter whose label value and count come
// from the fuzzer: ParseText(Expose(...)) must return exactly one sample,
// keyed with the label escaped as renderLabels writes it, with the
// count as its value.
func FuzzParseText(f *testing.F) {
	text, _ := roundTripExposition()
	seeds := []string{text}
	for _, m := range malformedExpositions {
		seeds = append(seeds, m)
	}
	sort.Strings(seeds[1:])
	labels := []string{"done", `a "b"`, `a"b\c` + "\n", ""}
	for i, seed := range seeds {
		f.Add([]byte(seed), labels[i%len(labels)], uint64(i))
	}
	f.Fuzz(func(t *testing.T, text []byte, label string, count uint64) {
		_, _ = ParseText(strings.NewReader(string(text)))

		// ParseText bounds a line at 1 MiB; stay well inside it.
		if len(label) > 64<<10 {
			t.Skip()
		}
		r := NewRegistry()
		r.Counter("fuzz_total", "Fuzzed.", "l", label).Add(count)
		var b strings.Builder
		r.Expose(&b)
		got, err := ParseText(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("ParseText(Expose): %v\n%q", err, b.String())
		}
		key := "fuzz_total" + renderLabels([]string{"l", label})
		if v, ok := got[key]; len(got) != 1 || !ok || v != float64(count) {
			t.Fatalf("ParseText(Expose) = %v, want {%s: %v}", got, key, float64(count))
		}
	})
}

func TestNilRegistryAndMetrics(t *testing.T) {
	var r *Registry
	r.Counter("a", "A.").Inc()
	r.Gauge("b", "B.").Set(1)
	r.Histogram("c", "C.").Record(time.Second)
	var b strings.Builder
	r.Expose(&b)
	if b.Len() != 0 {
		t.Errorf("nil registry exposed %q", b.String())
	}
	var c *Counter
	var g *Gauge
	c.Inc()
	g.Add(-1)
	if c.Value() != 0 || g.Value() != 0 {
		t.Error("nil counter/gauge hold values")
	}
}

func TestSpansSeededAndAccumulating(t *testing.T) {
	s := NewSpans(JobPhases()...)
	s.Record(PhaseSim, 2*time.Millisecond)
	s.Record(PhaseSim, 3*time.Millisecond) // per-round calls accumulate
	s.Record("custom", time.Millisecond)   // extras append after seeds
	snap := s.Snapshot()
	if len(snap) != len(JobPhases())+1 {
		t.Fatalf("snapshot has %d rows, want %d", len(snap), len(JobPhases())+1)
	}
	for i, p := range JobPhases() {
		if snap[i].Phase != p {
			t.Errorf("row %d = %s, want %s (seeded order)", i, snap[i].Phase, p)
		}
	}
	if got := s.Get(PhaseSim); got.Dur != 5*time.Millisecond || got.N != 2 {
		t.Errorf("sim span = %+v, want 5ms over 2 recordings", got)
	}
	if got := s.Get(PhaseLintScreen); got.Dur != 0 || got.N != 0 {
		t.Errorf("unrecorded seeded span = %+v, want zero row", got)
	}
	if snap[len(snap)-1].Phase != "custom" {
		t.Errorf("extra phase not appended last: %+v", snap)
	}
}

func TestSpansContextAndNil(t *testing.T) {
	if SpansOf(context.Background()) != nil {
		t.Fatal("empty context carries spans")
	}
	s := NewSpans(PhaseSim)
	ctx := WithSpans(context.Background(), s)
	if SpansOf(ctx) != s {
		t.Fatal("WithSpans/SpansOf roundtrip failed")
	}
	if WithSpans(context.Background(), nil) != context.Background() {
		t.Fatal("WithSpans(nil) should be a no-op")
	}
	var nilS *Spans
	nilS.Record(PhaseSim, time.Second)
	nilS.Since(PhaseSim, time.Now())
	if nilS.Snapshot() != nil {
		t.Fatal("nil spans snapshot not nil")
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "L.")
	c := r.Counter("n_total", "N.")
	s := NewSpans(PhaseSim)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Record(time.Duration(i) * time.Microsecond)
				c.Inc()
				s.Record(PhaseSim, time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || h.Count() != 8000 {
		t.Errorf("counter=%d hist=%d, want 8000", c.Value(), h.Count())
	}
	if sp := s.Get(PhaseSim); sp.N != 8000 {
		t.Errorf("span n=%d, want 8000", sp.N)
	}
}
