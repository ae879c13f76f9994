// Package obs is the zero-dependency telemetry core of the repo: atomic
// counters and gauges, log-bucketed latency histograms with quantile
// extraction, a registry that renders everything in Prometheus text
// exposition format (and ParseText, which reads that format back), and
// a per-job span recorder carried on the context (see span.go).
//
// Two contracts shape the API:
//
//   - Allocation-free when hot. Recording into a Counter, Gauge or
//     Histogram is a handful of atomic adds — no locks, no maps, no
//     allocation. Registry lookups (which do lock) happen at wiring
//     time or once per job, never per simulated event.
//   - Zero overhead when off. Every recording method is safe on a nil
//     receiver and returns immediately, so call sites follow the same
//     `if x != nil`-guard discipline as the kernel's commit probes and
//     the fault-injection hooks (cmd/repolint enforces it on kernel
//     files). A build that never wires telemetry pays a nil check and
//     nothing else.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric (Prometheus counter).
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n. Safe on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. Safe on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count. Safe on a nil receiver.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down (Prometheus gauge).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value. Safe on a nil receiver.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by delta (may be negative). Safe on a nil receiver.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current gauge value. Safe on a nil receiver.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// metric kinds as they appear in `# TYPE` exposition lines.
const (
	KindCounter = "counter"
	KindGauge   = "gauge"
	KindSummary = "summary"
)

// family is one named metric family: a help string, a kind, and one
// instance per distinct label set.
type family struct {
	name string
	help string
	kind string

	mu    sync.Mutex
	insts map[string]*instance // keyed by rendered label block
}

type instance struct {
	labels string // rendered `{k="v",...}` block, "" when unlabelled
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry owns metric families and renders them as Prometheus text.
// All methods are safe for concurrent use; Counter/Gauge/Histogram
// return the same instance for the same (name, labels) pair, so call
// sites may re-look-up instead of caching when off the hot path.
type Registry struct {
	mu    sync.Mutex
	order []string
	fams  map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// familyOf returns (creating if needed) the named family, panicking on
// a kind conflict — mixing kinds under one name is a programming error
// that would corrupt the exposition.
func (r *Registry) familyOf(name, help, kind string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, insts: make(map[string]*instance)}
		r.fams[name] = f
		r.order = append(r.order, name)
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, kind))
	}
	return f
}

func (f *family) instanceOf(labels []string) *instance {
	block := renderLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	in, ok := f.insts[block]
	if !ok {
		in = &instance{labels: block}
		switch f.kind {
		case KindCounter:
			in.c = new(Counter)
		case KindGauge:
			in.g = new(Gauge)
		case KindSummary:
			in.h = newHistogram()
		}
		f.insts[block] = in
	}
	return in
}

// Counter returns the counter for name and the given label pairs
// (k1, v1, k2, v2, ...), registering the family on first use.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.familyOf(name, help, KindCounter).instanceOf(labels).c
}

// Gauge returns the gauge for name and the given label pairs.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.familyOf(name, help, KindGauge).instanceOf(labels).g
}

// Histogram returns the latency histogram for name and the given label
// pairs. It is exposed as a Prometheus summary: quantile-labelled
// samples plus _sum and _count.
func (r *Registry) Histogram(name, help string, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.familyOf(name, help, KindSummary).instanceOf(labels).h
}

// Expose writes every registered family in Prometheus text exposition
// format (version 0.0.4), families in registration order and instances
// in sorted label order so scrapes diff cleanly.
func (r *Registry) Expose(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, 0, len(names))
	for _, n := range names {
		fams = append(fams, r.fams[n])
	}
	r.mu.Unlock()
	for _, f := range fams {
		f.mu.Lock()
		blocks := make([]string, 0, len(f.insts))
		for b := range f.insts {
			blocks = append(blocks, b)
		}
		sort.Strings(blocks)
		insts := make([]*instance, 0, len(blocks))
		for _, b := range blocks {
			insts = append(insts, f.insts[b])
		}
		f.mu.Unlock()
		writeHeader(w, f.name, f.help, f.kind)
		for _, in := range insts {
			switch f.kind {
			case KindCounter:
				fmt.Fprintf(w, "%s%s %d\n", f.name, in.labels, in.c.Value())
			case KindGauge:
				fmt.Fprintf(w, "%s%s %d\n", f.name, in.labels, in.g.Value())
			case KindSummary:
				in.h.expose(w, f.name, in.labels)
			}
		}
	}
}

// Sample is one exposition line of a harvested (non-registry) family:
// label pairs plus a value. See WriteFamily.
type Sample struct {
	Labels []string // k1, v1, k2, v2, ...
	Value  float64
}

// WriteFamily writes one complete counter/gauge family in exposition
// format. It is the escape hatch for metrics whose source of truth
// lives elsewhere (server atomics, FarmStats, faultinject
// counters): the caller harvests values at scrape time and this keeps
// the formatting and escaping in one place.
func WriteFamily(w io.Writer, name, help, kind string, samples ...Sample) {
	writeHeader(w, name, help, kind)
	for _, s := range samples {
		fmt.Fprintf(w, "%s%s %s\n", name, renderLabels(s.Labels), formatValue(s.Value))
	}
}

// ParseText reads a text exposition back into sample values, the inverse
// of Expose and WriteFamily: each sample line maps to its value, keyed by
// the sample name with its label block exactly as written
// (`llm4eda_jobs{state="done"}`). Comment and blank lines are skipped. A
// line without a value, a value that is not a number, or a sample that
// appears twice is an error.
func ParseText(r io.Reader) (map[string]float64, error) {
	vals := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("obs: line %d: malformed sample %q", n, line)
		}
		key := line[:i]
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("obs: line %d: bad value in %q", n, line)
		}
		if _, dup := vals[key]; dup {
			return nil, fmt.Errorf("obs: line %d: duplicate sample %s", n, key)
		}
		vals[key] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading exposition: %w", err)
	}
	return vals, nil
}

func writeHeader(w io.Writer, name, help, kind string) {
	fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(help))
	fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
}

// formatValue renders integral values without an exponent so counters
// read naturally, and everything else with full float precision.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// renderLabels turns (k1, v1, ...) pairs into a `{k1="v1",...}` block,
// empty for no labels. A trailing odd key gets an empty value rather
// than a panic: exposition must never take the server down.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		v := ""
		if i+1 < len(kv) {
			v = kv[i+1]
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format:
// backslash, double-quote and newline.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string: backslash and newline only (quotes
// are legal there).
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
