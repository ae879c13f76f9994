package edaserver_test

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"llm4eda/eda"
	"llm4eda/eda/client"
	"llm4eda/internal/edaserver"
	"llm4eda/internal/obs"
	"llm4eda/internal/testutil"
)

// Sample names the tests read most, exactly as /v1/metrics exposes them.
const (
	mDone      = `llm4eda_jobs_finished_total{state="done"}`
	mFailed    = `llm4eda_jobs_finished_total{state="failed"}`
	mCancelled = `llm4eda_jobs_finished_total{state="cancelled"}`
)

// scrapeMetrics fetches /v1/metrics raw and returns the body plus every
// sample value, read through obs.ParseText and keyed by the full sample
// name (labels included). A malformed line fails the test.
func scrapeMetrics(t *testing.T, baseURL string) (string, map[string]float64) {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("scrape: content type %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	vals, err := obs.ParseText(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	return string(body), vals
}

// metrics scrapes the harness server's counters.
func (h *testHarness) metrics(t *testing.T) map[string]float64 {
	t.Helper()
	_, vals := scrapeMetrics(t, h.ts.URL)
	return vals
}

// TestMetricsScrapeFormat runs real traffic (a fresh job and a cached
// resubmission) and then asserts GET /v1/metrics is well-formed
// Prometheus text exposition covering the acceptance surface: job
// counters, phase latency summaries with p50/p99, queue depth and wait,
// report-cache and farm layers, VM tiers and resilience counters.
func TestMetricsScrapeFormat(t *testing.T) {
	defer testutil.GoroutineGuard(t)
	h := newHarness(t, edaserver.Options{Workers: 2, QueueDepth: 8})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	first, err := h.c.Submit(ctx, quickSpec(700))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if first, err = h.c.Wait(ctx, first.ID); err != nil || first.State != "done" {
		t.Fatalf("first job: state=%v err=%v", first.State, err)
	}
	second, err := h.c.Submit(ctx, quickSpec(700))
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if second, err = h.c.Wait(ctx, second.ID); err != nil || !second.Cached {
		t.Fatalf("resubmission not served cached: state=%v cached=%v err=%v",
			second.State, second.Cached, err)
	}

	body, vals := scrapeMetrics(t, h.ts.URL)

	// Structural validity: every sample line parses, every family has
	// exactly one HELP and one TYPE line, TYPE precedes its samples.
	sampleRe := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9eE+.-]+$`)
	typed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# TYPE "):
			fam := strings.Fields(line)[2]
			if typed[fam] {
				t.Errorf("duplicate TYPE line for family %s", fam)
			}
			typed[fam] = true
		case strings.HasPrefix(line, "# HELP "), line == "":
		default:
			if !sampleRe.MatchString(line) {
				t.Errorf("malformed sample line %q", line)
				continue
			}
			fam := line
			if i := strings.IndexAny(line, "{ "); i >= 0 {
				fam = line[:i]
			}
			base := strings.TrimSuffix(strings.TrimSuffix(fam, "_sum"), "_count")
			if !typed[fam] && !typed[base] {
				t.Errorf("sample %q appears before its TYPE line", line)
			}
		}
	}

	// Job counters: two submissions, two done (one cached).
	if got := vals["llm4eda_jobs_submitted_total"]; got != 2 {
		t.Errorf("jobs_submitted_total = %v, want 2", got)
	}
	if got := vals[`llm4eda_jobs_finished_total{state="done"}`]; got != 2 {
		t.Errorf(`jobs_finished_total{state="done"} = %v, want 2`, got)
	}
	if got := vals["llm4eda_job_duration_seconds_count"]; got != 2 {
		t.Errorf("job_duration_seconds_count = %v, want 2", got)
	}

	// Phase latency summaries with p50 and p99 quantiles. The fresh run
	// simulated, so the sim phase has one recording with nonzero time.
	for _, q := range []string{"0.5", "0.99"} {
		name := fmt.Sprintf(`llm4eda_job_phase_seconds{phase="sim",quantile=%q}`, q)
		if v, ok := vals[name]; !ok || v <= 0 {
			t.Errorf("%s = %v (present=%v), want > 0", name, v, ok)
		}
	}
	if got := vals[`llm4eda_job_phase_seconds_count{phase="sim"}`]; got != 1 {
		t.Errorf("sim phase count = %v, want 1 (cached job must not fold a zero sim)", got)
	}
	// Both jobs waited in the queue (the cached one was answered at
	// submit time and never queued — only the first folds a queue wait).
	if got := vals[`llm4eda_job_phase_seconds_count{phase="queue_wait"}`]; got != 1 {
		t.Errorf("queue_wait phase count = %v, want 1", got)
	}

	// Queue gauges and farm/cache families exist.
	for _, name := range []string{
		"llm4eda_queue_depth",
		"llm4eda_workers",
		`llm4eda_jobs{state="done"}`,
		`llm4eda_farm_hits_total{layer="result"}`,
		`llm4eda_farm_entries{layer="design"}`,
		"llm4eda_panics_total",
		"llm4eda_watchdog_kills_total",
		"llm4eda_transient_retries_total",
		"llm4eda_events_dropped_total",
	} {
		if _, ok := vals[name]; !ok {
			t.Errorf("exposition lacks %s", name)
		}
	}
	if got := vals[`llm4eda_jobs{state="done"}`]; got != 2 {
		t.Errorf(`jobs{state="done"} gauge = %v, want 2`, got)
	}
	// Report cache saw the resubmission: at least the submit-time hit.
	if got := vals["llm4eda_report_cache_hits_total"]; got < 1 {
		t.Errorf("report_cache_hits_total = %v, want >= 1", got)
	}
	// The farm ran a real simulation for the fresh run.
	if got := vals[`llm4eda_farm_computes_total{layer="result"}`]; got <= 0 {
		t.Errorf(`farm_computes_total{layer="result"} = %v, want > 0`, got)
	}
	// No chaos armed: the fault family must be absent entirely.
	if strings.Contains(body, "llm4eda_faults_fired_total") {
		t.Errorf("fault family present without an injector")
	}
}

// TestSpanBreakdownCompleteness checks the per-job phase contract:
// every terminal job reports all five canonical phases in flow order; a
// fresh run shows nonzero compile+sim, and a cached resubmission shows
// every phase present with zero sim time and zero recordings.
func TestSpanBreakdownCompleteness(t *testing.T) {
	defer testutil.GoroutineGuard(t)
	h := newHarness(t, edaserver.Options{Workers: 2, QueueDepth: 8})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	wantPhases := []string{"queue_wait", "lint_screen", "compile", "sim", "store_write"}
	checkPhases := func(t *testing.T, jb *client.Job) map[string]client.Phase {
		t.Helper()
		got := map[string]client.Phase{}
		for _, p := range jb.Phases {
			got[p.Phase] = p
		}
		for i, want := range wantPhases {
			if _, ok := got[want]; !ok {
				t.Errorf("job %s (%s) breakdown lacks phase %s: %+v", jb.ID, jb.State, want, jb.Phases)
				continue
			}
			if i < len(jb.Phases) && jb.Phases[i].Phase != want {
				t.Errorf("job %s phase[%d] = %s, want %s (flow order)", jb.ID, i, jb.Phases[i].Phase, want)
			}
		}
		return got
	}

	fresh, err := h.c.Submit(ctx, quickSpec(701))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if fresh, err = h.c.Wait(ctx, fresh.ID); err != nil || fresh.State != "done" {
		t.Fatalf("fresh job: state=%v err=%v", fresh.State, err)
	}
	ph := checkPhases(t, fresh)
	if ph["sim"].N == 0 || ph["sim"].MS <= 0 {
		t.Errorf("fresh run sim phase = %+v, want recorded nonzero time", ph["sim"])
	}
	if ph["compile"].N == 0 {
		t.Errorf("fresh run compile phase = %+v, want recorded", ph["compile"])
	}
	if ph["store_write"].N != 1 {
		t.Errorf("fresh run store_write N = %d, want 1", ph["store_write"].N)
	}
	if ph["queue_wait"].N != 1 {
		t.Errorf("fresh run queue_wait N = %d, want 1", ph["queue_wait"].N)
	}
	// vrank runs candidates through the pipeline; the eda.Run wrapper
	// adds its own pipeline span on top of the canonical five.
	if pp, ok := ph["pipeline"]; !ok || pp.MS <= 0 {
		t.Errorf("fresh run lacks a pipeline span: %+v", fresh.Phases)
	}

	cached, err := h.c.Submit(ctx, quickSpec(701))
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if cached, err = h.c.Wait(ctx, cached.ID); err != nil || !cached.Cached {
		t.Fatalf("resubmission not cached: state=%v cached=%v err=%v", cached.State, cached.Cached, err)
	}
	cph := checkPhases(t, cached)
	if cph["sim"].N != 0 || cph["sim"].MS != 0 {
		t.Errorf("cached job sim phase = %+v, want zero time and zero recordings", cph["sim"])
	}
	if cached.QueueWaitMS != 0 {
		t.Errorf("cached-at-submit job queue_wait_ms = %v, want 0 (never queued)", cached.QueueWaitMS)
	}

	// The terminal SSE end frame carries the same breakdown.
	resp, err := http.Get(h.ts.URL + "/v1/jobs/" + fresh.ID + "/events")
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	defer resp.Body.Close()
	var sawEndPhases bool
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "data: ") && strings.Contains(line, `"phases"`) &&
			strings.Contains(line, `"queue_wait"`) {
			sawEndPhases = true
		}
	}
	if !sawEndPhases {
		t.Errorf("SSE stream's end frame carried no phase breakdown")
	}
}

// TestQueueWaitSurfaced saturates a one-worker server so the second job
// measurably queues, then checks the wait surfaces per job and in the
// queue_wait phase quantiles of /v1/metrics.
func TestQueueWaitSurfaced(t *testing.T) {
	defer testutil.GoroutineGuard(t)
	reg, release := blockingRegistry(t)
	h := newHarness(t, edaserver.Options{Workers: 1, QueueDepth: 8, Registry: reg})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	blockSpec := func(seed uint64) eda.Spec {
		return eda.Spec{Framework: "block", Run: eda.RunSpec{Seed: seed}}
	}
	first, err := h.c.Submit(ctx, blockSpec(1))
	if err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	second, err := h.c.Submit(ctx, blockSpec(2))
	if err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	time.Sleep(50 * time.Millisecond) // let the second job sit queued
	close(release)
	for _, id := range []string{first.ID, second.ID} {
		if _, err := h.c.Wait(ctx, id); err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
	}
	fin, err := h.c.Get(ctx, second.ID)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if fin.QueueWaitMS < 40 {
		t.Errorf("second job queue_wait_ms = %v, want >= 40 (sat behind the blocked worker)", fin.QueueWaitMS)
	}
	m := h.metrics(t)
	p50 := m[`llm4eda_job_phase_seconds{phase="queue_wait",quantile="0.5"}`]
	p99 := m[`llm4eda_job_phase_seconds{phase="queue_wait",quantile="0.99"}`]
	if p99 <= 0 {
		t.Errorf("queue_wait p99 = %vs, want > 0", p99)
	}
	if p50 > p99 {
		t.Errorf("queue wait p50 %vs > p99 %vs", p50, p99)
	}
}

// TestStatsRouteGone: /v1/metrics is the service's only counter surface;
// the retired JSON stats view answers 404.
func TestStatsRouteGone(t *testing.T) {
	h := newHarness(t, edaserver.Options{Workers: 1})
	resp, err := http.Get(h.ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/stats = %d, want 404", resp.StatusCode)
	}
}
