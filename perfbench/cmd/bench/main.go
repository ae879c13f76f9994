// Command bench is the llm4eda service benchmark. It boots the server
// under test in its own process, drives one workload through a closed
// loop of perfbench.Clients clients for -seconds, checks the reports the
// service returned against in-process runs of the same specs, and prints
// one JSON result line last on standard output.
//
//	bench -server BIN -host BIN -out DIR --workload cold-mix --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of `llm4eda serve`.
// With --trace 1 it runs the same traffic twice, against `llm4eda serve`
// and against the traced host (cmd/host), and reports the per-layer
// metrics of the traced window. run.sh builds both binaries and passes
// them in.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"llm4eda/perfbench"
)

// setupBoots is how many times a --trace 0 run boots the server to
// measure set-up; setup_s is the median.
const setupBoots = 5

// runBudget bounds one invocation, inside the 180 s a run may take.
const runBudget = 170 * time.Second

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

type runner struct {
	w         *perfbench.Workload
	seed      uint64
	length    time.Duration
	serverBin string
	hostBin   string
	outDir    string
	root      string // the checkout the benchmark runs in
	tag       string // file-name prefix of this run's outputs
	env       []string

	attempted int
	tally     errorTally
	check     *checker
}

func run() error {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "timed window length")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	serverBin := flag.String("server", "", "llm4eda binary built from the tree under test")
	hostBin := flag.String("host", "", "traced host binary (cmd/host)")
	outDir := flag.String("out", "", "directory for result, span, profile and log files")
	flag.Parse()
	if *serverBin == "" || *hostBin == "" || *outDir == "" {
		return errors.New("-server, -host and -out are required")
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	w, err := perfbench.Lookup(*workload)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	r := &runner{
		w: w, seed: *seed, length: time.Duration(*seconds) * time.Second,
		serverBin: *serverBin, hostBin: *hostBin, outDir: *outDir, root: root,
		tag: fmt.Sprintf("%s-seed%d-trace%d", w.Name, *seed, *trace),
		// The server's GOMAXPROCS is set, not left to its default, so the
		// recorded value is the one it ran with.
		env:   append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", runtime.NumCPU())),
		check: newChecker(),
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()

	d := &detail{Trace: *trace, Provenance: provenance{
		Rev: revision(root), GoVersion: runtime.Version(), CPUModel: cpuModel(),
		NProc: runtime.NumCPU(), ServerGOMAXPROCS: runtime.NumCPU(),
		GeneratorGOMAXPROC: runtime.GOMAXPROCS(0),
		Workload:           w.Name, Seed: *seed, Clients: perfbench.Clients,
		RunSeconds: float64(*seconds),
	}}
	var metrics map[string]float64
	if *trace == 0 {
		metrics, err = r.endToEnd(ctx, d)
	} else {
		metrics, err = r.traced(ctx, d)
	}
	if err != nil {
		return err
	}
	return r.report(d, metrics)
}

// detail is everything a run records beside its metrics. It is printed
// as the line before the result line and written to <out>/<tag>.json.
type detail struct {
	Provenance provenance       `json:"provenance"`
	Trace      int              `json:"trace"`
	Metrics    map[string]value `json:"metrics"`
	ErrorRatio value            `json:"error_ratio"`
	Errors     errorTally       `json:"errors"`
	Attempted  int              `json:"attempted"`
	// LatencyTail records which percentile latency_tail_ms is and how
	// many samples lie beyond it.
	LatencyTail  *perfbench.Tail `json:"latency_tail,omitempty"`
	SetupSamples []float64       `json:"setup_samples_s,omitempty"`
	Windows      []windowInfo    `json:"windows"`
	Checked      int             `json:"reports_checked"`
	Mismatches   []string        `json:"mismatches,omitempty"`
	TopFrames    []frame         `json:"profile_top_cum,omitempty"`
	Files        []string        `json:"files,omitempty"`
}

// value is one reported number with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// windowInfo records one server's warm-up and timed window.
type windowInfo struct {
	Server      string  `json:"server"`
	WarmupJobs  int     `json:"warmup_jobs"`
	WarmupS     float64 `json:"warmup_s"`
	Jobs        int     `json:"jobs"`
	Done        int     `json:"done"`
	Cached      int     `json:"cached"`
	WindowS     float64 `json:"window_s"`
	JobsPerS    float64 `json:"jobs_per_s"`
	FirstError  string  `json:"first_error,omitempty"`
	GeneratorMS float64 `json:"generator_cpu_ms"`
}

// measured is one server's warm-up and timed window.
type measured struct {
	win         *window
	serverCPUMS float64
	genCPUMS    float64
	peakRSSMB   float64
	scrape      map[string]float64
	info        windowInfo
}

// start boots a server process, its standard error going to a log file.
func (r *runner) start(name, bin string, args ...string) (*server, error) {
	log, err := os.Create(filepath.Join(r.outDir, r.tag+"-"+name+".log"))
	if err != nil {
		return nil, err
	}
	defer log.Close() // the child holds its own descriptor
	return startServer(bin, args, r.env, log)
}

// measure warms srv up and runs the timed window on it. With scrape set
// it reads /v1/metrics around the window; atWindow runs just before the
// window opens.
func (r *runner) measure(ctx context.Context, srv *server, name string, scrape bool, atWindow func() error) (*measured, error) {
	cls, release := newClients(srv.base)
	defer release()
	m := &measured{info: windowInfo{Server: name}}

	t := time.Now()
	warm := runAll(ctx, cls, r.w.Warmup(r.seed))
	m.info.WarmupS, m.info.WarmupJobs = time.Since(t).Seconds(), len(warm)
	r.attempted += len(warm)
	r.tally.add(warm)
	first := map[string][]byte{}
	for _, j := range warm {
		first[j.key] = j.report
	}

	var before map[string]float64
	if scrape {
		text, err := cls[0].Metrics(ctx)
		if err != nil {
			return nil, fmt.Errorf("scraping /v1/metrics: %w", err)
		}
		before = perfbench.ParseMetrics(text)
	}
	if atWindow != nil {
		if err := atWindow(); err != nil {
			return nil, err
		}
	}
	cpu0, err := srv.cpuMS()
	if err != nil {
		return nil, err
	}
	gen0 := selfCPUMS()
	var mu sync.Mutex
	var onJob func(*job)
	if r.w.Hot {
		onJob = func(j *job) {
			if why := replayed(first, j); why != "" {
				mu.Lock()
				r.check.mismatches = append(r.check.mismatches, why)
				mu.Unlock()
			}
		}
	}
	m.win = closedLoop(ctx, cls, r.w, r.seed, r.length, onJob)
	gen1 := selfCPUMS()
	cpu1, err := srv.cpuMS()
	if err != nil {
		return nil, err
	}
	if m.peakRSSMB, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}
	if scrape {
		text, err := cls[0].Metrics(ctx)
		if err != nil {
			return nil, fmt.Errorf("scraping /v1/metrics: %w", err)
		}
		m.scrape = perfbench.Delta(before, perfbench.ParseMetrics(text))
	}
	if ctx.Err() != nil {
		return nil, fmt.Errorf("run budget exceeded: %w", ctx.Err())
	}
	m.serverCPUMS, m.genCPUMS = cpu1-cpu0, gen1-gen0
	r.attempted += len(m.win.jobs)
	r.tally.add(m.win.jobs)

	done := m.win.done()
	m.info.Jobs, m.info.Done = len(m.win.jobs), len(done)
	for _, j := range done {
		if j.cached {
			m.info.Cached++
		}
	}
	m.info.WindowS = float64(m.win.end-m.win.start) / 1e9
	m.info.JobsPerS = m.win.throughput()
	if m.info.FirstError = firstErr(warm); m.info.FirstError == "" {
		m.info.FirstError = firstErr(m.win.jobs)
	}
	m.info.GeneratorMS = m.genCPUMS

	// The output check runs after the window, on the idle server.
	checked := warm
	if !r.w.Hot {
		checked = sample(r.w, m.win.jobs)
	}
	for _, j := range checked {
		if err := r.check.check(ctx, j); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// endToEnd measures the untraced server: set-up over several boots,
// then one warm-up and timed window.
func (r *runner) endToEnd(ctx context.Context, d *detail) (map[string]float64, error) {
	var srv *server
	for k := 0; k < setupBoots; k++ {
		s, err := r.start("serve", r.serverBin, "serve", "-addr", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		cls, release := newClients(s.base)
		j := roundTrip(ctx, cls[0], r.w.Probe)
		release()
		r.attempted++
		r.tally.add([]*job{j})
		d.SetupSamples = append(d.SetupSamples, float64(j.end-s.exec.UnixNano())/1e9)
		if k < setupBoots-1 {
			if err := s.stop(); err != nil {
				return nil, err
			}
		} else {
			srv = s
		}
	}
	m, err := r.measure(ctx, srv, "serve", false, nil)
	if err != nil {
		srv.kill()
		return nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}
	d.Windows = append(d.Windows, m.info)
	d.Provenance.GeneratorCPUShare = m.genCPUMS / (m.info.WindowS * 1000)

	done := m.win.done()
	if len(done) == 0 {
		return nil, fmt.Errorf("no job finished in the timed window (%s)", m.info.FirstError)
	}
	lat := make([]float64, len(done))
	for i, j := range done {
		lat[i] = j.latencyMS()
	}
	tail := perfbench.TailOf(lat)
	d.LatencyTail = &tail
	return map[string]float64{
		"setup_s":         perfbench.Median(d.SetupSamples),
		"jobs_per_s":      m.win.throughput(),
		"latency_p50_ms":  perfbench.Median(lat),
		"latency_tail_ms": tail.Value,
		"cpu_ms_per_job":  m.serverCPUMS / float64(len(done)),
		"peak_rss_mb":     m.peakRSSMB,
	}, nil
}

// traced runs the same traffic on `llm4eda serve` and on the traced
// host, and computes the per-layer metrics of the host's window.
func (r *runner) traced(ctx context.Context, d *detail) (map[string]float64, error) {
	srv, err := r.start("serve", r.serverBin, "serve", "-addr", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	plain, err := r.measure(ctx, srv, "serve", false, nil)
	if err != nil {
		srv.kill()
		return nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}
	d.Windows = append(d.Windows, plain.info)

	spansPath := filepath.Join(r.outDir, r.tag+"-host-spans.json")
	profPath := filepath.Join(r.outDir, r.tag+"-host-cpu.pprof")
	host, err := r.start("host", r.hostBin, "-addr", "127.0.0.1:0", "-spans", spansPath, "-profile", profPath)
	if err != nil {
		return nil, err
	}
	startProfile := func() error { return host.cmd.Process.Signal(syscall.SIGUSR1) }
	tr, err := r.measure(ctx, host, "host", true, startProfile)
	if err != nil {
		host.kill()
		return nil, err
	}
	if err := host.stop(); err != nil {
		return nil, fmt.Errorf("traced host: %w", err)
	}
	d.Windows = append(d.Windows, tr.info)
	d.Provenance.GeneratorCPUShare = tr.genCPUMS / (tr.info.WindowS * 1000)

	hostSpans, err := readSpans(spansPath)
	if err != nil {
		return nil, fmt.Errorf("reading host spans: %w", err)
	}
	allSpans := filepath.Join(r.outDir, r.tag+"-spans.json")
	if err := writeSpans(allSpans, clientSpans(tr.win.jobs), hostSpans); err != nil {
		return nil, err
	}
	if d.TopFrames, err = topFrames(r.hostBin, profPath); err != nil {
		return nil, err
	}
	for _, f := range []string{allSpans, profPath} {
		if rel, err := filepath.Rel(r.root, f); err == nil {
			f = rel
		}
		d.Files = append(d.Files, f)
	}
	return perLayer(layerInputs{win: tr.win, hostSpans: hostSpans, scrape: tr.scrape,
		genCPUMS: tr.genCPUMS, untracedJPS: plain.win.throughput()})
}

// report prints the detail line and the result line, and writes the
// detail file.
func (r *runner) report(d *detail, metrics map[string]float64) error {
	defs := perfbench.EndToEnd
	if d.Trace == 1 {
		defs = perfbench.PerLayer
	}
	d.Metrics = make(map[string]value, len(defs))
	for _, m := range defs {
		v, ok := metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not computed", m.Name)
		}
		d.Metrics[m.Name] = value{v, m.Unit}
	}
	r.tally.Mismatches = len(r.check.mismatches)
	d.Errors, d.Attempted, d.Checked = r.tally, r.attempted, r.check.checked
	d.ErrorRatio = value{perfbench.Ratio(float64(r.tally.total()), float64(r.attempted)), "ratio"}
	sort.Strings(r.check.mismatches)
	if len(r.check.mismatches) > 5 {
		r.check.mismatches = r.check.mismatches[:5]
	}
	d.Mismatches = r.check.mismatches

	b, err := json.Marshal(d)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(r.outDir, r.tag+".json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	res, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.tally.Mismatches == 0, r.attempted, r.tally.total(), d.Metrics})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", b, res)
	return nil
}
