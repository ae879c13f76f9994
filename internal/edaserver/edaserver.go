// Package edaserver turns the one-shot eda front door into a long-running
// JSON service: the queued, shareable, streamable job layer the paper's
// Fig. 6 agent-as-a-service vision needs in front of the compute
// substrate. One Server embeds an eda.Registry and exposes
//
//	POST   /v1/jobs             validate an eda.Spec, enqueue it
//	GET    /v1/jobs/{id}        job status + the final eda.Report
//	DELETE /v1/jobs/{id}        cancel (queued jobs never start;
//	                            running jobs get their context cancelled)
//	GET    /v1/jobs/{id}/events stream the run's core events as SSE
//	GET    /v1/metrics          every counter, gauge and latency summary
//	                            (job flow, queue, report store, simfarm
//	                            caches) in Prometheus text format
//
// Jobs land on a bounded queue sharded by the spec's content key, so
// identical specs serialize on one worker in submission order while
// distinct specs run in parallel; a full queue (the bound is global
// across shards) rejects with 429 and Retry-After (backpressure, never
// unbounded buffering). Every job runs
// through eda.Run against the one process-wide simfarm.Farm, so identical
// candidate designs compiled by different requests hit the design/result
// caches across requests; on top of that sits an LRU-bounded
// content-addressed report store — resubmitting a spec that normalizes
// identically (same framework, seed, tier, payload and params; Workers
// and Deadline are scheduling knobs, not result inputs) returns the
// cached report verbatim, checked both at submission and again when the
// job reaches a worker. Shutdown stops intake (503), lets in-flight jobs
// drain, fails queued-but-unstarted jobs as cancelled, and force-cancels
// the stragglers only when the caller's context expires.
package edaserver

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"llm4eda/eda"
	"llm4eda/internal/core"
	"llm4eda/internal/faultinject"
	"llm4eda/internal/obs"
	"llm4eda/internal/simfarm"
)

// Options configure one Server. Zero values select defaults sized for a
// single-host deployment.
type Options struct {
	// Workers is the number of queue shards, each drained by one worker
	// goroutine (default GOMAXPROCS). A job's shard is chosen by its
	// spec's content key, so identical specs keep submission order.
	Workers int
	// QueueDepth bounds queued-but-unstarted jobs across all shards
	// (default 64). Submissions beyond it are rejected with 429.
	QueueDepth int
	// ReportCap bounds the content-addressed report store (default 256).
	ReportCap int
	// EventHistory bounds each job's event replay ring (default 4096);
	// an SSE subscriber arriving late replays at most this many events.
	EventHistory int
	// Registry resolves frameworks (default eda.DefaultRegistry()).
	Registry *eda.Registry
	// Farm is the shared simulation-cache farm surfaced by /v1/metrics
	// (default simfarm.Default(), the same farm eda.Run executes on).
	Farm *simfarm.Farm
	// Watchdog, when positive, arms a per-job staleness watchdog: a
	// running job that emits no event for longer than this window is
	// declared wedged and cancelled, finishing failed with a *WedgeError
	// detail. 0 disables (the default — pipelines may legitimately go
	// quiet for long stretches at full experiment scale).
	Watchdog time.Duration
	// Faults is the chaos-test injector, fired at the server.job,
	// server.sse and server.store hook points and carried into each
	// job's context for the layers below. Nil in production: every hook
	// is a nil check and nothing else.
	Faults *faultinject.Injector
	// Metrics is the telemetry registry behind GET /v1/metrics — the
	// job-latency and per-phase histograms record into it, and the
	// scrape handler harvests everything else (server counters, farm
	// stats, fault counters) live. Default: a fresh registry per
	// server; pass one to aggregate several servers into one scrape.
	Metrics *obs.Registry
	// Log receives structured job-lifecycle logs, every record carrying
	// the job id for correlation. Default: discard.
	Log *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.ReportCap <= 0 {
		o.ReportCap = 256
	}
	if o.EventHistory <= 0 {
		o.EventHistory = 4096
	}
	if o.Registry == nil {
		o.Registry = eda.DefaultRegistry()
	}
	if o.Farm == nil {
		o.Farm = simfarm.Default()
	}
	if o.Metrics == nil {
		o.Metrics = obs.NewRegistry()
	}
	if o.Log == nil {
		o.Log = slog.New(slog.DiscardHandler)
	}
	return o
}

// Server is the HTTP job service. Create one with New, mount it anywhere
// (it implements http.Handler), and stop it with Shutdown.
type Server struct {
	opts Options
	mux  *http.ServeMux

	// baseCtx parents every job context; baseCancel is the force-cancel
	// lever of a timed-out Shutdown.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	// intakeMu orders submissions against drain: enqueue sends under
	// RLock after checking draining, Shutdown flips draining and closes
	// the shard channels under Lock, so no send can race a close.
	intakeMu sync.RWMutex
	draining bool
	shards   []chan *job
	wg       sync.WaitGroup

	// queued counts jobs accepted onto the shards but not yet popped by
	// a worker — the global QueueDepth bound and the llm4eda_queue_depth
	// gauge.
	queued atomic.Int64

	// mu guards the job table. Lock ordering: mu before job.mu.
	mu   sync.Mutex
	jobs map[string]*job
	seq  uint64
	// retired lists finished jobs in the order they finished, with the
	// bytes each retains; retiredBytes is their sum. Past jobBudget the
	// oldest are evicted from the table (their ids then answer 404).
	// Live jobs are never on the list, so never evicted.
	retired      []retiredJob
	retiredBytes int64

	store *reportStore

	submitted atomic.Uint64
	completed atomic.Uint64
	failed    atomic.Uint64
	cancelled atomic.Uint64
	rejected  atomic.Uint64

	// Resilience counters (all surfaced by /v1/metrics): pipeline panics
	// recovered into failed jobs, watchdog kills of wedged jobs,
	// transient-failure retries harvested from completed reports, and
	// report-store writes that failed (injected — the in-memory store
	// itself cannot fail, but the hook models a remote store tier).
	panics        atomic.Uint64
	watchdogKills atomic.Uint64
	retries       atomic.Uint64
	storeFails    atomic.Uint64

	// metrics holds the latency histograms (job duration, per-phase
	// breakdown) that fold in at each job's terminal transition; log is
	// the structured job-lifecycle logger. Both always non-nil.
	metrics *serverMetrics
	log     *slog.Logger
}

// New builds a server and starts its worker pool.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:    opts,
		mux:     http.NewServeMux(),
		jobs:    make(map[string]*job),
		store:   newReportStore(opts.ReportCap),
		metrics: newServerMetrics(opts.Metrics),
		log:     opts.Log,
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	// Every shard can buffer the full global bound: the bound itself is
	// enforced by the queued counter, so a hot content key (all jobs on
	// one shard) still gets the whole advertised QueueDepth.
	s.shards = make([]chan *job, opts.Workers)
	for i := range s.shards {
		s.shards[i] = make(chan *job, opts.QueueDepth)
		s.wg.Add(1)
		go s.worker(s.shards[i])
	}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	return s
}

// ServeHTTP dispatches to the /v1 API.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Shutdown drains the server: intake stops (submissions answer 503),
// queued-but-unstarted jobs finish as cancelled without running, and
// in-flight jobs run to completion. When ctx expires first, the in-flight
// jobs' contexts are cancelled — eda.Run returns within one simulation
// job — and Shutdown still waits for the workers before returning
// ctx.Err(). A drained server returns nil and stays mounted: reads keep
// working, writes stay rejected.
func (s *Server) Shutdown(ctx context.Context) error {
	s.intakeMu.Lock()
	first := !s.draining
	s.draining = true
	if first {
		for _, sh := range s.shards {
			close(sh)
		}
	}
	s.intakeMu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-done
		return ctx.Err()
	}
}

func (s *Server) isDraining() bool {
	s.intakeMu.RLock()
	defer s.intakeMu.RUnlock()
	return s.draining
}

var (
	errQueueFull = errors.New("edaserver: job queue full")
	errDraining  = errors.New("edaserver: server is shutting down")
)

// enqueue places a queued job on its content-key shard without blocking.
// The QueueDepth bound is global across shards (reserve-then-send on the
// queued counter); each shard channel is sized to hold the full bound,
// so the select's default arm is unreachable in practice and exists only
// as a safety net.
func (s *Server) enqueue(jb *job) error {
	s.intakeMu.RLock()
	defer s.intakeMu.RUnlock()
	if s.draining {
		return errDraining
	}
	if s.queued.Add(1) > int64(s.opts.QueueDepth) {
		s.queued.Add(-1)
		return errQueueFull
	}
	// Mark the reservation before the send: once the job is in the
	// channel a worker may pop it at any moment and must find the slot
	// marked so it releases exactly once. The same stamp starts the
	// queue-wait clock the pop (or a queued-state cancel) stops.
	jb.mu.Lock()
	jb.queuedSlot = true
	jb.enqueued = time.Now()
	jb.mu.Unlock()
	select {
	case s.shards[shardOf(jb.key, len(s.shards))] <- jb:
		return nil
	default:
		jb.mu.Lock()
		jb.queuedSlot = false
		jb.mu.Unlock()
		s.queued.Add(-1)
		return errQueueFull
	}
}

// releaseSlotLocked returns the job's QueueDepth reservation, once.
// Callers hold jb.mu.
func (s *Server) releaseSlotLocked(jb *job) {
	if jb.queuedSlot {
		jb.queuedSlot = false
		s.queued.Add(-1)
	}
}

func (s *Server) worker(ch chan *job) {
	defer s.wg.Done()
	for jb := range ch {
		s.runJob(jb)
	}
}

// runJob drives one popped job to a terminal state.
func (s *Server) runJob(jb *job) {
	jb.mu.Lock()
	s.releaseSlotLocked(jb)
	if jb.state != stateQueued {
		// Cancelled while queued; the cancel path already finalized it.
		jb.mu.Unlock()
		return
	}
	// The pop ends the queue wait (lock order: jb.mu, then the spans
	// lock inside Record — same direction as status()).
	jb.queueWait = time.Since(jb.enqueued)
	jb.spans.Record(obs.PhaseQueueWait, jb.queueWait)
	if s.isDraining() {
		jb.finishLocked(stateCancelled, nil, false, "server shut down before the job started")
		jb.mu.Unlock()
		s.cancelled.Add(1)
		s.jobFinished(jb, stateCancelled, false)
		jb.events.Emit(eda.Event{Kind: eda.EventNote, Framework: jb.spec.Framework,
			Detail: "job cancelled: server shutting down"})
		s.retire(jb)
		return
	}
	// Pop-time dedup: an identical job queued ahead of us (same content
	// key, therefore same shard) may have completed while we waited.
	if e, ok := s.store.peek(jb.key); ok {
		jb.mu.Unlock()
		s.completeFromCache(jb, e)
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	ctx = faultinject.With(ctx, s.opts.Faults)
	ctx = obs.WithSpans(ctx, jb.spans)
	jb.cancel = cancel
	jb.state = stateRunning
	jb.mu.Unlock()
	s.log.Debug("job started", "job", jb.id, "framework", jb.spec.Framework,
		"queue_wait", jb.queueWait)

	var wdStop chan struct{}
	if s.opts.Watchdog > 0 {
		jb.events.touch() // the staleness clock starts at job start
		wdStop = make(chan struct{})
		go s.watchdog(jb, cancel, wdStop)
	}
	report, err := s.runPipeline(ctx, jb)
	if wdStop != nil {
		close(wdStop)
	}
	cancel()

	var reportJSON []byte
	var reportOK bool
	if report != nil {
		reportOK = report.OK
		if b, jerr := report.JSON(); jerr == nil {
			reportJSON = b
		} else if err == nil {
			err = fmt.Errorf("edaserver: report encoding failed: %w", jerr)
		}
		// Transient failures the candidate loops absorbed surface as a
		// report metric; fold them into the server-wide counter.
		if n, ok := report.Metrics[eda.MetricTransientRetries]; ok && n > 0 {
			s.retries.Add(uint64(n))
		}
	}
	jb.mu.Lock()
	wedged, wedgeIdle, userCancel := jb.wedged, jb.wedgeIdle, jb.userCancel
	switch {
	case err == nil && reportJSON != nil:
		jb.finishLocked(stateDone, reportJSON, false, "")
		jb.mu.Unlock()
		// The store write is part of the job's span breakdown, so it
		// happens before the terminal fold into the aggregate histograms.
		s.storeReport(jb, &reportEntry{json: reportJSON, ok: reportOK, summary: report.Summary})
		s.completed.Add(1)
		s.jobFinished(jb, stateDone, false)
	case errors.Is(err, context.Canceled) && userCancel:
		// The client's DELETE wins even when the watchdog raced it.
		jb.finishLocked(stateCancelled, reportJSON, false, err.Error())
		jb.mu.Unlock()
		s.cancelled.Add(1)
		s.jobFinished(jb, stateCancelled, false)
	case wedged && err != nil:
		// The watchdog cancelled a stalled run: terminally failed, with
		// the structured staleness detail, not "cancelled" — nobody asked
		// for this job to stop, it stopped responding.
		werr := &WedgeError{Idle: wedgeIdle, Window: s.opts.Watchdog}
		jb.finishLocked(stateFailed, reportJSON, false, werr.Error())
		jb.mu.Unlock()
		s.failed.Add(1)
		s.watchdogKills.Add(1)
		s.log.Warn("watchdog killed wedged job", "job", jb.id, "idle", wedgeIdle)
		s.jobFinished(jb, stateFailed, false)
	case errors.Is(err, context.Canceled):
		// Client DELETE or forced shutdown; a partial report still
		// travels with the terminal status when the pipeline made one.
		jb.finishLocked(stateCancelled, reportJSON, false, err.Error())
		jb.mu.Unlock()
		s.cancelled.Add(1)
		s.jobFinished(jb, stateCancelled, false)
	default:
		detail := "pipeline returned no report"
		if err != nil {
			detail = err.Error()
		}
		jb.finishLocked(stateFailed, reportJSON, false, detail)
		jb.mu.Unlock()
		s.failed.Add(1)
		s.jobFinished(jb, stateFailed, false)
	}
	s.retire(jb)
}

// runPipeline executes the job's spec with panic isolation: a panic
// anywhere in the pipeline stack — a kernel bug on a pathological
// candidate, or the injected fault standing in for one — is recovered
// into a *core.PanicError carrying the (truncated) stack, so one bad
// job costs one failed report, never the process.
func (s *Server) runPipeline(ctx context.Context, jb *job) (report *eda.Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			s.log.Error("pipeline panic recovered", "job", jb.id, "panic", fmt.Sprint(r))
			stack := debug.Stack()
			if len(stack) > maxPanicStack {
				stack = stack[:maxPanicStack]
			}
			report, err = nil, &core.PanicError{Val: r, Stack: stack}
		}
	}()
	if s.opts.Faults != nil {
		if ferr := s.opts.Faults.Fire(ctx, faultinject.PointServerJob); ferr != nil {
			return nil, ferr
		}
	}
	return eda.Run(ctx, jb.spec, eda.WithRegistry(s.opts.Registry), eda.WithSink(jb.events))
}

// maxPanicStack bounds the stack carried into a terminal report.
const maxPanicStack = 8 << 10

// jobFinished folds one terminal job into the aggregate telemetry:
// submit-to-terminal latency into the job-duration histogram, each
// phase that actually ran into its per-phase histogram (pre-seeded
// zero rows stay per-job detail — folding them would pull every
// aggregate's percentiles toward zero), and one structured log line.
// Called exactly once per job, after its terminal transition.
func (s *Server) jobFinished(jb *job, state string, cached bool) {
	elapsed := time.Since(jb.created)
	s.metrics.jobDur.Record(elapsed)
	for _, sp := range jb.spans.Snapshot() {
		if sp.N > 0 {
			s.metrics.phase(sp.Phase).Record(sp.Dur)
		}
	}
	s.log.Info("job finished", "job", jb.id, "state", state, "cached", cached,
		"elapsed", elapsed, "queue_wait", jb.spans.Get(obs.PhaseQueueWait).Dur,
		"sim", jb.spans.Get(obs.PhaseSim).Dur)
}

// storeReport adds a finished report to the cross-request store, unless
// the injected store fault drops the write (modelling a failed write to
// a remote report tier). A dropped write only costs recomputation on
// the next identical submission — never correctness. The write (fault
// hook included — an injected delay is store latency) is the job's
// store_write phase.
func (s *Server) storeReport(jb *job, e *reportEntry) {
	start := time.Now()
	defer jb.spans.Since(obs.PhaseStoreWrite, start)
	if s.opts.Faults != nil {
		if ferr := s.opts.Faults.Fire(nil, faultinject.PointServerStore); ferr != nil {
			s.storeFails.Add(1)
			s.log.Warn("report-store write failed", "job", jb.id, "err", ferr)
			return
		}
	}
	s.store.add(jb.key, e)
}

// WedgeError is the structured terminal detail of a watchdog kill: the
// job emitted no event for longer than the staleness window.
type WedgeError struct {
	// Idle is how long the job had been silent when the watchdog fired.
	Idle time.Duration
	// Window is the configured staleness window (Options.Watchdog).
	Window time.Duration
}

func (e *WedgeError) Error() string {
	return fmt.Sprintf("watchdog: job wedged — no event emitted for %v (staleness window %v)",
		e.Idle.Round(time.Millisecond), e.Window)
}

// watchdog polls the job's staleness clock (the broadcaster's lastEmit,
// an atomic — no locks on the poll) and, when the job has been silent
// past the window, marks it wedged and cancels its context. The worker
// observes the wedged mark when eda.Run returns and finishes the job
// failed with a *WedgeError detail. stop ends the watchdog when the job
// finishes on its own.
func (s *Server) watchdog(jb *job, cancel context.CancelFunc, stop <-chan struct{}) {
	window := s.opts.Watchdog
	probe := window / 8
	if probe < 5*time.Millisecond {
		probe = 5 * time.Millisecond
	}
	t := time.NewTicker(probe)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			idle := jb.events.idle()
			if idle < window {
				continue
			}
			jb.mu.Lock()
			if jb.state != stateRunning {
				jb.mu.Unlock()
				return
			}
			jb.wedged, jb.wedgeIdle = true, idle
			jb.mu.Unlock()
			cancel()
			return
		}
	}
}

// completeFromCache finishes a job with a stored report: the same bytes
// the original run produced, so concurrent identical submissions observe
// byte-identical reports.
func (s *Server) completeFromCache(jb *job, e *reportEntry) {
	jb.mu.Lock()
	if jb.state != stateQueued {
		// A cancel won the race between the store probe and completion;
		// leave the terminal state it set.
		jb.mu.Unlock()
		return
	}
	jb.finishLocked(stateDone, e.json, true, "")
	jb.mu.Unlock()
	s.completed.Add(1)
	s.jobFinished(jb, stateDone, true)
	jb.events.Emit(eda.Event{Kind: eda.EventNote, Framework: jb.spec.Framework,
		Detail: "report served from the cross-request report cache"})
	jb.events.Emit(eda.Event{Kind: eda.EventRunEnd, Framework: jb.spec.Framework,
		OK: e.ok, Detail: e.summary})
	s.retire(jb)
}

// newJob registers a fresh queued job.
func (s *Server) newJob(spec eda.Spec, key string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	jb := &job{
		id:      fmt.Sprintf("j%08d", s.seq),
		key:     key,
		spec:    spec,
		created: time.Now().UTC(),
		state:   stateQueued,
		events:  newBroadcaster(s.opts.EventHistory),
		spans:   obs.NewSpans(obs.JobPhases()...),
	}
	s.jobs[jb.id] = jb
	return jb
}

// unregister drops a job that never made it onto the queue.
func (s *Server) unregister(jb *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.jobs, jb.id)
}

// jobBudget bounds the bytes the job table retains for finished jobs:
// report bytes, replay-ring events and a fixed per-job overhead. A
// finished job weighs a few KB (about 5 KB averaged over the
// agent/autochip/lint/vrank mix), so the table keeps the last few
// hundred finished jobs: seconds of history at full throughput, where
// clients read a job within one 50 ms poll or hold its SSE stream.
const jobBudget = 2 << 20

// retiredJob is one finished job on the retention list.
type retiredJob struct {
	id    string
	bytes int64
}

// retire closes a terminal job's event stream and appends the job to the
// retention list, then evicts the oldest finished jobs while the list is
// over budget, always keeping the job just retired. Each job retires
// exactly once, on its terminal path; eviction pops from the front, so
// it is amortized O(1) per job.
func (s *Server) retire(jb *job) {
	jb.events.close()
	n := jb.retainedBytes()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.retired = append(s.retired, retiredJob{id: jb.id, bytes: n})
	s.retiredBytes += n
	for s.retiredBytes > jobBudget && len(s.retired) > 1 {
		old := s.retired[0]
		s.retired[0] = retiredJob{} // release the id before reslicing
		s.retired = s.retired[1:]
		s.retiredBytes -= old.bytes
		delete(s.jobs, old.id)
	}
}

func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// queueDepth reports the queued-but-unstarted jobs across all shards.
func (s *Server) queueDepth() int {
	if n := s.queued.Load(); n > 0 {
		return int(n)
	}
	return 0
}
