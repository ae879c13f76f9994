package perfbench

import (
	"math"
	"sort"
)

// TailLadder is the set of percentiles the tail latency is chosen from.
// Its steps are wide, so a run-to-run change in sample count rarely moves
// the choice.
var TailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// rank is the 1-based nearest-rank position of percentile p among n
// samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9)) // tolerate p*n/100 rounding up
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// Tail is the highest ladder percentile with at least ten samples beyond
// it, with its value and that count. With fewer than eleven samples no
// percentile qualifies and Tail returns the maximum with P = 100.
type Tail struct {
	P      float64 `json:"percentile"`
	Value  float64 `json:"value"`
	Beyond int     `json:"samples_beyond"`
	N      int     `json:"samples"`
}

// TailOf selects the tail percentile of samples (any order).
func TailOf(samples []float64) Tail {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	n := len(sorted)
	t := Tail{P: 100, N: n}
	if n > 0 {
		t.Value = sorted[n-1]
	}
	for _, p := range TailLadder {
		r := rank(n, p)
		if n-r < 10 {
			break
		}
		t = Tail{P: p, Value: sorted[r-1], Beyond: n - r, N: n}
	}
	return t
}

// Median is the nearest-rank median of samples (any order), 0 for no
// samples.
func Median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return sorted[rank(len(sorted), 50)-1]
}

// Mean is the arithmetic mean, 0 for no samples.
func Mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var s float64
	for _, v := range samples {
		s += v
	}
	return s / float64(len(samples))
}

// Ratio is num/den, 0 when den is 0.
func Ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// JobBreakdown is one done job of the traced run, in milliseconds.
// Submit is the POST handler (which holds the first spec check), Check
// the checks outside it (eda.Run's re-validation on the worker),
// Pipeline the Pipeline.Run call, and Lint, Compile and Sim the farm
// phases inside it. QueueWait and StoreWrite are the server's own job
// phases.
type JobBreakdown struct {
	Latency    float64
	Submit     float64
	QueueWait  float64
	Check      float64
	Pipeline   float64
	StoreWrite float64
	Lint       float64
	Compile    float64
	Sim        float64
}

// PipelineSelf is pipeline time outside the farm's lint, compile and
// sim phases: candidate generation, ranking and report assembly.
func (j JobBreakdown) PipelineSelf() float64 {
	return j.Pipeline - j.Lint - j.Compile - j.Sim
}

// Unattributed is client-observed latency that no measured span covers:
// transport, SSE delivery, report encoding and scheduling gaps. The
// queue wait starts inside the submit handler, so the two overlap by the
// handler's reply write and a tiny job can read slightly negative.
func (j JobBreakdown) Unattributed() float64 {
	return j.Latency - j.Submit - j.QueueWait - j.Check - j.Pipeline - j.StoreWrite
}

// Span is one timed call into a layer. Job is the Key of the job's spec;
// Parent names the span that caused it ("" for a job's top level).
// Times are Unix nanoseconds, comparable across the generator and host
// processes on one machine.
type Span struct {
	Job    string `json:"job"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// MS is the span's duration in milliseconds.
func (s Span) MS() float64 { return float64(s.End-s.Start) / 1e6 }

// Interval is one job's client-side submit-to-terminal window.
type Interval struct {
	Job        string
	Start, End int64
}

// Attribute assigns each span to the client job interval with the same
// key that contains the span's start, returning the spans per interval
// index. Spans outside every interval (warm-up, metric scrapes) are
// dropped. A key is never in flight twice at once, so at most one
// interval matches.
func Attribute(jobs []Interval, spans []Span) [][]Span {
	byKey := map[string][]int{}
	for i, j := range jobs {
		byKey[j.Job] = append(byKey[j.Job], i)
	}
	out := make([][]Span, len(jobs))
	for _, s := range spans {
		for _, i := range byKey[s.Job] {
			if s.Start >= jobs[i].Start && s.Start <= jobs[i].End {
				out[i] = append(out[i], s)
				break
			}
		}
	}
	return out
}
