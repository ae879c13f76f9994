package perfbench

import (
	"bufio"
	"strconv"
	"strings"
)

// Metric names one reported number and its unit.
type Metric struct {
	Name, Unit string
}

// EndToEnd are the metrics of an untraced run, as a caller of the
// service sees them. error_ratio is reported beside them (it is 0 on a
// healthy tree, and the result line's failed/attempted carries it).
var EndToEnd = []Metric{
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"cpu_ms_per_job", "ms"},
	{"peak_rss_mb", "MB"},
}

// PerLayer are the metrics of a traced run. Times are means per done job
// of the traced window unless the name says otherwise.
var PerLayer = []Metric{
	{"client.submit_ms", "ms"},
	{"client.stream_ms", "ms"},
	{"client.events_per_job", "count"},
	{"client.cpu_ms_per_job", "ms"},
	{"edaserver.submit_ms", "ms"},
	{"edaserver.queue_wait_ms", "ms"},
	{"edaserver.queue_wait_tail_ms", "ms"},
	{"edaserver.store_write_ms", "ms"},
	{"edaserver.report_cache_hit_ratio", "ratio"},
	{"edaserver.report_cache_hits", "count"},
	{"edaserver.report_cache_misses", "count"},
	{"edaserver.server_job_ms", "ms"},
	{"edaserver.unattributed_ms", "ms"},
	{"eda.check_ms", "ms"},
	{"eda.check_calls_per_job", "count"},
	{"eda.pipeline_ms", "ms"},
	{"eda.pipeline_self_ms", "ms"},
	{"simfarm.lint_ms", "ms"},
	{"simfarm.compile_ms", "ms"},
	{"simfarm.sim_ms", "ms"},
	{"simfarm.parses_hit_ratio", "ratio"},
	{"simfarm.parses_lookups", "count"},
	{"simfarm.designs_hit_ratio", "ratio"},
	{"simfarm.designs_lookups", "count"},
	{"simfarm.results_hit_ratio", "ratio"},
	{"simfarm.results_lookups", "count"},
	{"simfarm.lints_hit_ratio", "ratio"},
	{"simfarm.lints_lookups", "count"},
	{"simfarm.computes_per_job", "count"},
	{"simfarm.evictions_per_job", "count"},
	{"simfarm.lint_rejects_per_job", "count"},
	{"trace.overhead_pct", "%"},
}

// FarmLayers maps the farm's cache-layer label in /v1/metrics to the
// name the per-layer metrics use.
var FarmLayers = []struct{ Label, Name string }{
	{"parse", "parses"}, {"design", "designs"}, {"result", "results"}, {"lint", "lints"},
}

// scraped are the /v1/metrics families the benchmark reads. Everything
// else in the exposition (the VM tier counters among it) is skipped, so
// the benchmark depends on no other family.
var scraped = map[string]bool{
	"llm4eda_job_duration_seconds_sum":   true,
	"llm4eda_job_duration_seconds_count": true,
	"llm4eda_report_cache_hits_total":    true,
	"llm4eda_report_cache_misses_total":  true,
	"llm4eda_farm_hits_total":            true,
	"llm4eda_farm_misses_total":          true,
	"llm4eda_farm_computes_total":        true,
	"llm4eda_farm_evictions_total":       true,
	"llm4eda_farm_lint_rejects_total":    true,
}

// ParseMetrics reads the scraped families from a Prometheus text
// exposition. Keys are the sample name with its label set as written,
// e.g. `llm4eda_farm_hits_total{layer="parse"}`.
func ParseMetrics(text string) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sample, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		name, _, _ := strings.Cut(sample, "{")
		if !scraped[name] {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			continue
		}
		out[sample] = v
	}
	return out
}

// Delta is after minus before, per sample.
func Delta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}
