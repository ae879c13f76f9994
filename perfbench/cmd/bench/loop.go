package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"llm4eda/eda"
	"llm4eda/eda/client"
	"llm4eda/perfbench"
)

// job is one submit-to-terminal round trip as the generator saw it.
type job struct {
	client, index int
	key           string
	spec          eda.Spec
	// Unix nanoseconds: submit call start and return, event stream start
	// (0 when the submit reply was already terminal), terminal status.
	start, submitted, streamed, end int64
	events                          int64
	state                           string
	cached                          bool
	// fault classifies an error: "rejected" (429/503 past the client's
	// retries), "submit" or "stream".
	fault  string
	err    error
	phases map[string]float64
	report json.RawMessage
}

func (j *job) latencyMS() float64 { return float64(j.end-j.start) / 1e6 }

// newClients builds one client per closed-loop client, each limited to
// one connection: its submit and its event stream take turns on it.
// release closes the idle connections.
func newClients(base string) (cls []*client.Client, release func()) {
	trs := make([]*http.Transport, perfbench.Clients)
	cls = make([]*client.Client, perfbench.Clients)
	for i := range cls {
		trs[i] = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		cls[i] = client.New(base, client.WithHTTPClient(&http.Client{Transport: trs[i]}))
	}
	return cls, func() {
		for _, tr := range trs {
			tr.CloseIdleConnections()
		}
	}
}

// roundTrip submits spec and takes the terminal status from the submit
// reply (a report-store hit) or from the event stream's end frame. It
// never polls.
func roundTrip(ctx context.Context, cl *client.Client, spec eda.Spec) *job {
	j := &job{spec: spec, key: perfbench.Key(eda.DefaultRegistry().Normalize(spec))}
	j.start = time.Now().UnixNano()
	st, err := cl.Submit(ctx, spec)
	j.submitted = time.Now().UnixNano()
	if err != nil {
		j.end, j.err, j.fault = j.submitted, err, "submit"
		if rejected(err) {
			j.fault = "rejected"
		}
		return j
	}
	if !st.Terminal() {
		j.streamed = time.Now().UnixNano()
		var n atomic.Int64
		st, err = cl.Events(ctx, st.ID, eda.SinkFunc(func(eda.Event) { n.Add(1) }))
		j.events = n.Load()
		if err != nil {
			j.end, j.err, j.fault = time.Now().UnixNano(), err, "stream"
			return j
		}
	}
	j.end = time.Now().UnixNano()
	j.state, j.cached, j.report = st.State, st.Cached, st.Report
	j.phases = make(map[string]float64, len(st.Phases))
	for _, p := range st.Phases {
		j.phases[p.Phase] = p.MS
	}
	return j
}

// rejected reports a 429 (queue full) or 503 (draining) reply that
// outlasted the client's retries.
func rejected(err error) bool {
	var ae *client.APIError
	return errors.As(err, &ae) &&
		(ae.StatusCode == http.StatusTooManyRequests || ae.StatusCode == http.StatusServiceUnavailable)
}

// runAll drives specs through the clients, client c taking specs c,
// c+Clients, ..., and returns the jobs in spec order.
func runAll(ctx context.Context, cls []*client.Client, specs []eda.Spec) []*job {
	out := make([]*job, len(specs))
	var wg sync.WaitGroup
	for c := range cls {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(specs); i += len(cls) {
				out[i] = roundTrip(ctx, cls[c], specs[i])
			}
		}(c)
	}
	wg.Wait()
	return out
}

// window is one timed closed-loop run.
type window struct {
	start, end int64 // end: the last terminal status of any client
	jobs       []*job
	// lastEnd is each client's last terminal status.
	lastEnd []int64
}

// closedLoop runs the timed window: every client submits its next timed
// spec as soon as the previous one is terminal, until the window's
// length has passed; the job in flight then finishes and is counted.
// onJob sees every job as it finishes, on the client's goroutine.
func closedLoop(ctx context.Context, cls []*client.Client, w *perfbench.Workload, seed uint64,
	length time.Duration, onJob func(*job)) *window {
	win := &window{start: time.Now().UnixNano(), lastEnd: make([]int64, len(cls))}
	deadline := time.Now().Add(length)
	perClient := make([][]*job, len(cls))
	var wg sync.WaitGroup
	for c := range cls {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := 0; time.Now().Before(deadline) && ctx.Err() == nil; n++ {
				j := roundTrip(ctx, cls[c], w.Timed(seed, c, n))
				j.client, j.index = c, perfbench.TimedIndex(c, n)
				if onJob != nil {
					onJob(j)
				}
				perClient[c] = append(perClient[c], j)
				win.lastEnd[c] = j.end
			}
		}(c)
	}
	wg.Wait()
	for c, js := range perClient {
		win.jobs = append(win.jobs, js...)
		if win.lastEnd[c] > win.end {
			win.end = win.lastEnd[c]
		}
	}
	return win
}

// throughput is done jobs per second, summed over clients, each client
// timed from the window start to its own last terminal status, so the
// job in flight at the deadline is counted in full rather than cut.
func (win *window) throughput() float64 {
	var jps float64
	for c, last := range win.lastEnd {
		done := 0
		for _, j := range win.jobs {
			if j.client == c && j.state == "done" {
				done++
			}
		}
		if last > win.start {
			jps += float64(done) / (float64(last-win.start) / 1e9)
		}
	}
	return jps
}

// done returns the jobs that finished in state done.
func (win *window) done() []*job {
	var out []*job
	for _, j := range win.jobs {
		if j.state == "done" {
			out = append(out, j)
		}
	}
	return out
}

// errorTally counts what error_ratio counts: failed or cancelled jobs,
// rejected submissions, submit and stream errors. Mismatches are added
// by the output check.
type errorTally struct {
	Failed     int `json:"failed"`
	Rejected   int `json:"rejected"`
	SubmitErrs int `json:"submit_errors"`
	StreamErrs int `json:"stream_errors"`
	Mismatches int `json:"report_mismatches"`
}

func (t *errorTally) add(jobs []*job) {
	for _, j := range jobs {
		switch {
		case j.fault == "rejected":
			t.Rejected++
		case j.fault == "submit":
			t.SubmitErrs++
		case j.fault == "stream":
			t.StreamErrs++
		case j.state != "done":
			t.Failed++
		}
	}
}

func (t *errorTally) total() int {
	return t.Failed + t.Rejected + t.SubmitErrs + t.StreamErrs + t.Mismatches
}

// firstErr describes the first failed job, for the error log.
func firstErr(jobs []*job) string {
	for _, j := range jobs {
		if j.err != nil {
			return fmt.Sprintf("%s %s: %v", j.fault, j.key, j.err)
		}
		if j.state != "done" {
			return fmt.Sprintf("job %s ended %s", j.key, j.state)
		}
	}
	return ""
}
