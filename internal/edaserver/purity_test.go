package edaserver_test

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"llm4eda/eda"
	"llm4eda/internal/edaserver"
	"llm4eda/internal/simfarm"
)

// puritySpecs are distinct quick specs across the farm-backed frameworks.
// The last two differ only in the scheduling-only Run.Workers and
// Run.Deadline, so they share a content address and must share bytes.
func puritySpecs() []eda.Spec {
	return []eda.Spec{
		{Framework: "vrank", Problem: "mux4", Run: eda.RunSpec{Seed: 3}, Params: map[string]float64{"k": 3}},
		{Framework: "vrank", Problem: "adder4", Run: eda.RunSpec{Seed: 4}, Params: map[string]float64{"k": 2}},
		{Framework: "autochip", Problem: "and4", Params: map[string]float64{"k": 2, "depth": 2}},
		{Framework: "crosscheck", Problem: "adder4", Params: map[string]float64{"vectors": 8}},
		{Framework: "xdebug", Problem: "mux2", Params: map[string]float64{"vectors": 8, "rounds": 4}},
		{Framework: "lint", Problem: "alu8", Params: map[string]float64{"rounds": 6}},
		{Framework: "vrank", Problem: "counter8", Run: eda.RunSpec{Seed: 9, Workers: 1},
			Params: map[string]float64{"k": 2}},
		{Framework: "vrank", Problem: "counter8", Run: eda.RunSpec{Seed: 9, Workers: 3, Deadline: time.Minute},
			Params: map[string]float64{"k": 2}},
	}
}

// TestReportBytesArePure: a report is a function of its normalized spec
// alone. Distinct specs submitted concurrently — to a one-worker server
// and to a GOMAXPROCS-worker server, the second on a farm the first has
// warmed — return exactly the bytes of a serial eda.Run of the same spec
// on a cold farm, whatever the submitter asked for in Run.Workers.
func TestReportBytesArePure(t *testing.T) {
	specs := puritySpecs()
	want := make([][]byte, len(specs))
	for i, spec := range specs {
		simfarm.Default().Purge()
		report, err := eda.Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("serial %s/%s: %v", spec.Framework, spec.Problem, err)
		}
		if want[i], err = report.JSON(); err != nil {
			t.Fatalf("JSON: %v", err)
		}
	}
	simfarm.Default().Purge()
	if n := len(want); !bytes.Equal(want[n-2], want[n-1]) {
		t.Errorf("Run.Workers/Deadline changed the report bytes:\n%s\nvs\n%s", want[n-2], want[n-1])
	}

	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			h := newHarness(t, edaserver.Options{Workers: workers, QueueDepth: len(specs)})
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			got := make([][]byte, len(specs))
			var wg sync.WaitGroup
			for i, spec := range specs {
				wg.Add(1)
				go func(i int, spec eda.Spec) {
					defer wg.Done()
					job, err := h.c.Submit(ctx, spec)
					if err == nil {
						job, err = h.c.Wait(ctx, job.ID)
					}
					if err != nil {
						t.Errorf("spec %d: %v", i, err)
						return
					}
					if job.State != "done" {
						t.Errorf("spec %d finished %s: %s", i, job.State, job.Error)
						return
					}
					got[i] = job.Report
				}(i, spec)
			}
			wg.Wait()
			for i, spec := range specs {
				if got[i] != nil && !bytes.Equal(got[i], want[i]) {
					t.Errorf("%s/%s (run %+v): service bytes differ from the serial cold-farm run:\n%s\nvs\n%s",
						spec.Framework, spec.Problem, spec.Run, got[i], want[i])
				}
			}
		})
	}
}
