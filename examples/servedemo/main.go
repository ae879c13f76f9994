// Command servedemo exercises a running llm4eda job service end to end:
// it submits one quick-scale job through the typed eda/client package,
// streams the job's progress events live over SSE, waits for the final
// report, resubmits the identical spec to demonstrate the cross-request
// report cache, runs a second job through the cross-level debugger while
// counting its per-round diagnosis frames off the SSE stream, runs a
// third job through the lint engine while counting its per-round screen
// verdicts, prints the server's queue and cache counters from
// /v1/metrics, and fails unless that final scrape shows a report-cache
// hit, a recorded job-latency p99 and no failed job. The
// `make serve-smoke` CI target runs exactly this against a freshly
// started `llm4eda serve`.
//
// Usage:
//
//	llm4eda serve &
//	go run ./examples/servedemo [-addr http://127.0.0.1:8372]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"llm4eda/eda"
	"llm4eda/eda/client"
	"llm4eda/internal/obs"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8372", "server base URL")
	framework := flag.String("framework", "vrank", "framework to run")
	problem := flag.String("problem", "mux4", "benchmark problem")
	flag.Parse()
	if err := run(*addr, *framework, *problem); err != nil {
		fmt.Fprintln(os.Stderr, "servedemo:", err)
		os.Exit(1)
	}
}

func run(addr, framework, problem string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	c := client.New(addr)

	// The server may still be binding its listener (serve-smoke starts it
	// in the background moments before us): poll metrics until it answers.
	if err := waitReady(ctx, c); err != nil {
		return fmt.Errorf("server at %s not ready: %w", addr, err)
	}

	spec := eda.Spec{
		Framework: framework,
		Problem:   problem,
		Params:    map[string]float64{"k": 3},
	}
	job, err := c.Submit(ctx, spec)
	if err != nil {
		return err
	}
	fmt.Printf("submitted %s (state %s)\n", job.ID, job.State)

	// Stream progress live; Events returns the terminal status with the
	// server's "end" frame.
	if _, err := c.Events(ctx, job.ID, eda.ProgressPrinter(os.Stdout, false)); err != nil {
		return fmt.Errorf("event stream: %w", err)
	}
	job, err = c.Wait(ctx, job.ID)
	if err != nil {
		return err
	}
	report, err := job.DecodeReport()
	if err != nil {
		return err
	}
	fmt.Printf("%s %s: %s (pipeline %.1f ms)\n", report.Framework, job.State, report.Summary, job.PhaseMS("pipeline"))
	if job.State != "done" {
		return fmt.Errorf("job finished %s: %s", job.State, job.Error)
	}

	// Same spec again: the content-addressed report store answers without
	// re-running anything.
	again, err := c.Submit(ctx, spec)
	if err != nil {
		return err
	}
	fmt.Printf("resubmitted as %s: state %s, cached=%v\n", again.ID, again.State, again.Cached)
	if !again.Cached {
		return fmt.Errorf("resubmission was not served from the report cache")
	}

	// A second job through the cross-level debugger: the service layer
	// inherits xdebug's per-round diagnosis events through the shared
	// event vocabulary, so the SSE stream carries one "diagnosis"
	// candidate frame per repair round. Count them off the wire.
	xspec := eda.Spec{
		Framework: "xdebug",
		Problem:   "mux2",
		Params:    map[string]float64{"vectors": 8, "rounds": 4},
	}
	xjob, err := c.Submit(ctx, xspec)
	if err != nil {
		return err
	}
	fmt.Printf("submitted %s (xdebug/mux2, state %s)\n", xjob.ID, xjob.State)
	diagnoses := 0
	progress := eda.ProgressPrinter(os.Stdout, true)
	counting := eda.SinkFunc(func(ev eda.Event) {
		if ev.Kind == eda.EventCandidate && ev.Framework == "xdebug" && ev.Phase == "diagnosis" {
			diagnoses++
		}
		progress.Emit(ev)
	})
	if _, err := c.Events(ctx, xjob.ID, counting); err != nil {
		return fmt.Errorf("xdebug event stream: %w", err)
	}
	xjob, err = c.Wait(ctx, xjob.ID)
	if err != nil {
		return err
	}
	if xjob.State != "done" {
		return fmt.Errorf("xdebug job finished %s: %s", xjob.State, xjob.Error)
	}
	if diagnoses == 0 {
		return fmt.Errorf("xdebug SSE stream carried no per-round diagnosis events")
	}
	fmt.Printf("xdebug diagnosis events over SSE: %d\n", diagnoses)

	// A third job through the lint engine: an error-class mutant is
	// rejected by the pre-simulation screen, and the per-round screen
	// verdicts ride the same SSE stream. Count them off the wire.
	lspec := eda.Spec{
		Framework: "lint",
		Problem:   "alu8",
		Params:    map[string]float64{"rounds": 6},
	}
	ljob, err := c.Submit(ctx, lspec)
	if err != nil {
		return err
	}
	fmt.Printf("submitted %s (lint/alu8, state %s)\n", ljob.ID, ljob.State)
	screens := 0
	lprogress := eda.ProgressPrinter(os.Stdout, true)
	lcounting := eda.SinkFunc(func(ev eda.Event) {
		if ev.Kind == eda.EventCandidate && ev.Framework == "lint" && ev.Phase == "screen" {
			screens++
		}
		lprogress.Emit(ev)
	})
	if _, err := c.Events(ctx, ljob.ID, lcounting); err != nil {
		return fmt.Errorf("lint event stream: %w", err)
	}
	ljob, err = c.Wait(ctx, ljob.ID)
	if err != nil {
		return err
	}
	if ljob.State != "done" {
		return fmt.Errorf("lint job finished %s: %s", ljob.State, ljob.Error)
	}
	if screens == 0 {
		return fmt.Errorf("lint SSE stream carried no screen verdict events")
	}
	fmt.Printf("lint screen events over SSE: %d\n", screens)

	text, err := c.Metrics(ctx)
	if err != nil {
		return err
	}
	m, err := obs.ParseText(strings.NewReader(text))
	if err != nil {
		return err
	}
	fmt.Printf("metrics: %g workers, queue depth %g, %g completed, report cache %g/%g hit/miss, sim result cache %g hits\n",
		m["llm4eda_workers"], m["llm4eda_queue_depth"], m[`llm4eda_jobs_finished_total{state="done"}`],
		m["llm4eda_report_cache_hits_total"], m["llm4eda_report_cache_misses_total"],
		m[`llm4eda_farm_hits_total{layer="result"}`])
	return checkMetrics(m)
}

// checkMetrics asserts the run's service-level invariants on the final
// /v1/metrics scrape, naming every one that does not hold.
func checkMetrics(m map[string]float64) error {
	var errs []error
	if hits := m["llm4eda_report_cache_hits_total"]; hits < 1 {
		errs = append(errs, fmt.Errorf("llm4eda_report_cache_hits_total = %g, want >= 1", hits))
	}
	if n := m["llm4eda_job_duration_seconds_count"]; n <= 0 {
		errs = append(errs, fmt.Errorf("llm4eda_job_duration_seconds_count = %g, want > 0", n))
	}
	if _, ok := m[`llm4eda_job_duration_seconds{quantile="0.99"}`]; !ok {
		errs = append(errs, fmt.Errorf("llm4eda_job_duration_seconds has no p99 sample"))
	}
	if failed, ok := m[`llm4eda_jobs_finished_total{state="failed"}`]; !ok || failed != 0 {
		errs = append(errs, fmt.Errorf(`llm4eda_jobs_finished_total{state="failed"} = %g (present=%v), want 0`, failed, ok))
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("metrics check: %w", err)
	}
	return nil
}

func waitReady(ctx context.Context, c *client.Client) error {
	deadline := time.Now().Add(15 * time.Second)
	for {
		probe, probeCancel := context.WithTimeout(ctx, time.Second)
		_, err := c.Metrics(probe)
		probeCancel()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
}
