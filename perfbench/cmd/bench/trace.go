package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"

	"llm4eda/perfbench"
)

// Span names the traced host records (see cmd/host).
const (
	spanSubmit   = "edaserver.POST /v1/jobs"
	spanCheck    = "eda.check"
	spanPipeline = "eda.pipeline"
)

// clientSpans are the generator's own spans of a window: the submit
// call and, for jobs not answered in the submit reply, the event stream.
func clientSpans(jobs []*job) []perfbench.Span {
	var out []perfbench.Span
	for _, j := range jobs {
		out = append(out, perfbench.Span{Job: j.key, Name: "client.submit", Start: j.start, End: j.submitted})
		if j.streamed != 0 {
			out = append(out, perfbench.Span{Job: j.key, Name: "client.events", Start: j.streamed, End: j.end})
		}
	}
	return out
}

// breakdown joins one done job's client record, its server spans and
// its server-reported phases.
func breakdown(j *job, spans []perfbench.Span) (b perfbench.JobBreakdown, checkMS float64, checks int) {
	b.Latency = j.latencyMS()
	for _, s := range spans {
		switch s.Name {
		case spanSubmit:
			b.Submit += s.MS()
		case spanCheck:
			checkMS += s.MS()
			checks++
			if s.Parent != spanSubmit {
				b.Check += s.MS()
			}
		case spanPipeline:
			b.Pipeline += s.MS()
		}
	}
	// Phase names as the job status wire form carries them.
	b.QueueWait = j.phases["queue_wait"]
	b.StoreWrite = j.phases["store_write"]
	b.Lint = j.phases["lint_screen"]
	b.Compile = j.phases["compile"]
	b.Sim = j.phases["sim"]
	return b, checkMS, checks
}

// layerInputs is what the per-layer metrics are computed from.
type layerInputs struct {
	win         *window
	hostSpans   []perfbench.Span
	scrape      map[string]float64 // /v1/metrics delta over the window
	genCPUMS    float64            // generator CPU over the window
	untracedJPS float64
}

// perLayer computes every per-layer metric of a traced window.
func perLayer(in layerInputs) (map[string]float64, error) {
	done := in.win.done()
	if len(done) == 0 {
		return nil, fmt.Errorf("traced window finished no job")
	}
	ivs := make([]perfbench.Interval, len(done))
	for i, j := range done {
		ivs[i] = perfbench.Interval{Job: j.key, Start: j.start, End: j.end}
	}
	attributed := perfbench.Attribute(ivs, in.hostSpans)
	var (
		submitC, streamC, events                  []float64
		submit, qwait, store, unattr, check, nchk []float64
		pipe, self, lint, compile, sim            []float64
	)
	for i, j := range done {
		b, checkMS, checks := breakdown(j, attributed[i])
		submitC = append(submitC, float64(j.submitted-j.start)/1e6)
		stream := 0.0
		if j.streamed != 0 {
			stream = float64(j.end-j.streamed) / 1e6
		}
		streamC = append(streamC, stream)
		events = append(events, float64(j.events))
		submit = append(submit, b.Submit)
		qwait = append(qwait, b.QueueWait)
		store = append(store, b.StoreWrite)
		unattr = append(unattr, b.Unattributed())
		check = append(check, checkMS)
		nchk = append(nchk, float64(checks))
		pipe = append(pipe, b.Pipeline)
		self = append(self, b.PipelineSelf())
		lint = append(lint, b.Lint)
		compile = append(compile, b.Compile)
		sim = append(sim, b.Sim)
	}
	n := float64(len(done))
	d := in.scrape
	m := map[string]float64{
		"client.submit_ms":             perfbench.Mean(submitC),
		"client.stream_ms":             perfbench.Mean(streamC),
		"client.events_per_job":        perfbench.Mean(events),
		"client.cpu_ms_per_job":        in.genCPUMS / n,
		"edaserver.submit_ms":          perfbench.Mean(submit),
		"edaserver.queue_wait_ms":      perfbench.Mean(qwait),
		"edaserver.queue_wait_tail_ms": perfbench.TailOf(qwait).Value,
		"edaserver.store_write_ms":     perfbench.Mean(store),
		"edaserver.unattributed_ms":    perfbench.Mean(unattr),
		"eda.check_ms":                 perfbench.Mean(check),
		"eda.check_calls_per_job":      perfbench.Mean(nchk),
		"eda.pipeline_ms":              perfbench.Mean(pipe),
		"eda.pipeline_self_ms":         perfbench.Mean(self),
		"simfarm.lint_ms":              perfbench.Mean(lint),
		"simfarm.compile_ms":           perfbench.Mean(compile),
		"simfarm.sim_ms":               perfbench.Mean(sim),
	}
	hits, misses := d["llm4eda_report_cache_hits_total"], d["llm4eda_report_cache_misses_total"]
	m["edaserver.report_cache_hits"] = hits
	m["edaserver.report_cache_misses"] = misses
	m["edaserver.report_cache_hit_ratio"] = perfbench.Ratio(hits, hits+misses)
	m["edaserver.server_job_ms"] = 1000 * perfbench.Ratio(d["llm4eda_job_duration_seconds_sum"],
		d["llm4eda_job_duration_seconds_count"])
	var computes, evictions float64
	for _, l := range perfbench.FarmLayers {
		label := `{layer="` + l.Label + `"}`
		h, ms := d["llm4eda_farm_hits_total"+label], d["llm4eda_farm_misses_total"+label]
		m["simfarm."+l.Name+"_hit_ratio"] = perfbench.Ratio(h, h+ms)
		m["simfarm."+l.Name+"_lookups"] = h + ms
		computes += d["llm4eda_farm_computes_total"+label]
		evictions += d["llm4eda_farm_evictions_total"+label]
	}
	m["simfarm.computes_per_job"] = computes / n
	m["simfarm.evictions_per_job"] = evictions / n
	m["simfarm.lint_rejects_per_job"] = d["llm4eda_farm_lint_rejects_total"] / n
	m["trace.overhead_pct"] = 100 * perfbench.Ratio(in.untracedJPS-in.win.throughput(), in.untracedJPS)
	return m, nil
}

// frame is one row of the CPU profile's cumulative top list.
type frame struct {
	Func   string `json:"func"`
	CumS   string `json:"cum"`
	CumPct string `json:"cum_pct"`
}

// topFrames lists the profile's ten heaviest frames by cumulative time,
// read with `go tool pprof`.
func topFrames(bin, profile string) ([]frame, error) {
	var out bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-top", "-cum", "-nodecount=10", bin, profile)
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(out.String()))
	}
	var frames []frame
	header := false
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !header {
			header = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) >= 6 {
			frames = append(frames, frame{Func: strings.Join(f[5:], " "), CumS: f[3], CumPct: f[4]})
		}
	}
	return frames, nil
}

// writeSpans writes the run's spans, client and host, as one JSON file.
func writeSpans(path string, spans ...[]perfbench.Span) error {
	var all []perfbench.Span
	for _, s := range spans {
		all = append(all, s...)
	}
	b, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// readSpans reads the spans file the host wrote on exit.
func readSpans(path string) ([]perfbench.Span, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spans []perfbench.Span
	return spans, json.Unmarshal(b, &spans)
}
