package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"

	"llm4eda/eda"
	"llm4eda/perfbench"
)

// reportCore is the part of a report the output check compares. It
// leaves out the report's run telemetry, which is not a function of the
// spec.
type reportCore struct {
	OK      bool               `json:"ok"`
	Summary string             `json:"summary"`
	Metrics map[string]float64 `json:"metrics"`
}

// reference runs spec in this process through eda.Run: the expected
// outcome of the same spec on the service.
func reference(ctx context.Context, spec eda.Spec) (reportCore, error) {
	rep, err := eda.Run(ctx, spec)
	if err != nil {
		return reportCore{}, err
	}
	return reportCore{OK: rep.OK, Summary: rep.Summary, Metrics: rep.Metrics}, nil
}

// compare reports why a service report differs from the reference, or
// "" when it matches.
func compare(j *job, want reportCore) string {
	if j.state != "done" {
		return fmt.Sprintf("%s: state %s", j.key, j.state)
	}
	var got reportCore
	if err := json.Unmarshal(j.report, &got); err != nil {
		return fmt.Sprintf("%s: undecodable report: %v", j.key, err)
	}
	if got.OK != want.OK || got.Summary != want.Summary || !reflect.DeepEqual(got.Metrics, want.Metrics) {
		return fmt.Sprintf("%s: service %+v, in-process %+v", j.key, got, want)
	}
	return ""
}

// checker compares service reports with in-process runs of the same
// specs, outside the timed window. Reference reports are computed once
// per spec.
type checker struct {
	refs       map[string]reportCore
	checked    int
	mismatches []string
}

func newChecker() *checker { return &checker{refs: map[string]reportCore{}} }

func (c *checker) check(ctx context.Context, j *job) error {
	want, ok := c.refs[j.key]
	if !ok {
		var err error
		if want, err = reference(ctx, j.spec); err != nil {
			return fmt.Errorf("in-process reference for %s: %w", j.key, err)
		}
		c.refs[j.key] = want
	}
	c.checked++
	if why := compare(j, want); why != "" {
		c.mismatches = append(c.mismatches, why)
	}
	return nil
}

// sample returns a cold window's check sample: the done jobs at timed
// indices 0, stride, 2*stride, ... below stride*count. Jobs that did not
// finish done are already counted as errors.
func sample(w *perfbench.Workload, jobs []*job) []*job {
	var out []*job
	for _, j := range jobs {
		if j.index%w.CheckStride == 0 && j.index < w.CheckStride*w.CheckCount && j.state == "done" {
			out = append(out, j)
		}
	}
	return out
}

// replayed records a hot-replay timed job's report bytes against the
// bytes the warm-up computed for the same spec.
func replayed(first map[string][]byte, j *job) string {
	if j.fault != "" {
		return ""
	}
	if !j.cached {
		return fmt.Sprintf("%s: timed job was not a report-store hit", j.key)
	}
	if want := first[j.key]; !bytes.Equal(j.report, want) {
		return fmt.Sprintf("%s: replayed report bytes differ from the first computed bytes", j.key)
	}
	return ""
}
