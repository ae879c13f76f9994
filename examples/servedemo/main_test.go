package main

import (
	"strings"
	"testing"
)

func TestCheckMetrics(t *testing.T) {
	healthy := func() map[string]float64 {
		return map[string]float64{
			"llm4eda_report_cache_hits_total":               1,
			"llm4eda_job_duration_seconds_count":            4,
			`llm4eda_job_duration_seconds{quantile="0.99"}`: 0.02,
			`llm4eda_jobs_finished_total{state="failed"}`:   0,
		}
	}
	if err := checkMetrics(healthy()); err != nil {
		t.Fatalf("healthy scrape: %v", err)
	}
	for name, tc := range map[string]struct {
		mutate func(map[string]float64)
		want   string
	}{
		"cache never hit": {func(m map[string]float64) { m["llm4eda_report_cache_hits_total"] = 0 },
			"llm4eda_report_cache_hits_total"},
		"no job latency": {func(m map[string]float64) { m["llm4eda_job_duration_seconds_count"] = 0 },
			"llm4eda_job_duration_seconds_count"},
		"no p99": {func(m map[string]float64) { delete(m, `llm4eda_job_duration_seconds{quantile="0.99"}`) },
			"no p99 sample"},
		"failed job": {func(m map[string]float64) { m[`llm4eda_jobs_finished_total{state="failed"}`] = 2 },
			`llm4eda_jobs_finished_total{state="failed"} = 2`},
		"failed family missing": {func(m map[string]float64) { delete(m, `llm4eda_jobs_finished_total{state="failed"}`) },
			`present=false`},
	} {
		m := healthy()
		tc.mutate(m)
		err := checkMetrics(m)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: checkMetrics = %v, want an error naming %q", name, err, tc.want)
		}
	}
}
