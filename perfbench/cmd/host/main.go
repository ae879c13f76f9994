// Command host serves the llm4eda job API for the benchmark's traced
// run. It builds the server exactly as `llm4eda serve` does, except that
// the registry holds every default pipeline with its Check and Run
// wrapped in a span recorder, and the HTTP handler records one span per
// route. Spans stay in memory and are written to -spans when the host
// stops.
//
//	host -addr 127.0.0.1:0 -spans spans.json -profile cpu.pprof
//
// SIGUSR1 starts the CPU profile (the generator sends it as its timed
// window opens); SIGTERM or SIGINT drains the server, stops the profile
// and writes the spans.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime/pprof"
	"strings"
	"sync"
	"syscall"
	"time"

	"llm4eda/eda"
	"llm4eda/internal/edaserver"
	"llm4eda/perfbench"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "host:", err)
		os.Exit(1)
	}
}

// recorder keeps spans in memory. inPost tracks, per job key, whether a
// submit handler is running, so a spec check made inside it gets the
// submit span as parent.
type recorder struct {
	mu     sync.Mutex
	spans  []perfbench.Span
	inPost map[string]int
	jobKey map[string]string // job id -> key, learned from submit replies
}

func (r *recorder) add(s perfbench.Span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) parentOf(key string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.inPost[key] > 0 {
		return routeSubmit
	}
	return ""
}

const routeSubmit = "edaserver.POST /v1/jobs"

// wrapRegistry re-registers every default pipeline with timed Check and
// Run functions.
func wrapRegistry(rec *recorder) (*eda.Registry, error) {
	def := eda.DefaultRegistry()
	reg := eda.NewRegistry()
	for _, name := range def.Names() {
		p, _ := def.Lookup(name)
		w := *p
		if check := p.Check; check != nil {
			w.Check = func(spec eda.Spec) error {
				key := perfbench.Key(spec)
				parent := rec.parentOf(key)
				start := time.Now().UnixNano()
				err := check(spec)
				rec.add(perfbench.Span{Job: key, Name: "eda.check", Parent: parent,
					Start: start, End: time.Now().UnixNano()})
				return err
			}
		}
		run := p.Run
		w.Run = func(ctx context.Context, spec eda.Spec) (*eda.Report, error) {
			start := time.Now().UnixNano()
			rep, err := run(ctx, spec)
			rec.add(perfbench.Span{Job: perfbench.Key(spec), Name: "eda.pipeline",
				Start: start, End: time.Now().UnixNano()})
			return rep, err
		}
		if err := reg.Register(w); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// teeWriter keeps a copy of a submit reply so the job id can be read.
type teeWriter struct {
	http.ResponseWriter
	body bytes.Buffer
}

func (t *teeWriter) Write(b []byte) (int, error) {
	t.body.Write(b)
	return t.ResponseWriter.Write(b)
}

// Flush keeps SSE streaming working through the wrapper.
func (t *teeWriter) Flush() {
	if f, ok := t.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// traced times Server.ServeHTTP per route. A submit's key comes from
// its decoded, normalized body; other job routes find it by job id.
func traced(srv *edaserver.Server, reg *eda.Registry, rec *recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route, key := routeOf(r), ""
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			var spec eda.Spec
			if json.Unmarshal(body, &spec) == nil {
				key = perfbench.Key(reg.Normalize(spec))
			}
			rec.mu.Lock()
			rec.inPost[key]++
			rec.mu.Unlock()
			tw := &teeWriter{ResponseWriter: w}
			start := time.Now().UnixNano()
			srv.ServeHTTP(tw, r)
			end := time.Now().UnixNano()
			var reply struct {
				ID string `json:"id"`
			}
			_ = json.Unmarshal(tw.body.Bytes(), &reply) // a rejected submit has no id
			rec.mu.Lock()
			rec.inPost[key]--
			if reply.ID != "" {
				rec.jobKey[reply.ID] = key
			}
			rec.spans = append(rec.spans, perfbench.Span{Job: key, Name: route, Start: start, End: end})
			rec.mu.Unlock()
			return
		}
		if rest, ok := strings.CutPrefix(r.URL.Path, "/v1/jobs/"); ok {
			id, _, _ := strings.Cut(rest, "/")
			rec.mu.Lock()
			key = rec.jobKey[id]
			rec.mu.Unlock()
		}
		start := time.Now().UnixNano()
		srv.ServeHTTP(w, r)
		rec.add(perfbench.Span{Job: key, Name: route, Start: start, End: time.Now().UnixNano()})
	})
}

// routeOf names a request by method and route pattern.
func routeOf(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/v1/jobs":
	case strings.HasPrefix(p, "/v1/jobs/") && strings.HasSuffix(p, "/events"):
		p = "/v1/jobs/{id}/events"
	case strings.HasPrefix(p, "/v1/jobs/"):
		p = "/v1/jobs/{id}"
	}
	return "edaserver." + r.Method + " " + p
}

func run(args []string) error {
	fs := flag.NewFlagSet("host", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:0", "listen address")
	spansPath := fs.String("spans", "", "file the spans are written to on exit")
	profPath := fs.String("profile", "", "file the CPU profile is written to")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *spansPath == "" || *profPath == "" {
		return errors.New("-spans and -profile are required")
	}
	rec := &recorder{inPost: map[string]int{}, jobKey: map[string]string{}}
	reg, err := wrapRegistry(rec)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The same options `llm4eda serve` passes, so traced and untraced
	// runs differ only by the wrappers.
	srv := edaserver.New(edaserver.Options{
		Registry: reg,
		Log:      slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelInfo})),
	})
	httpSrv := &http.Server{Handler: traced(srv, reg, rec)}
	fmt.Printf("host: listening on http://%s\n", ln.Addr())

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGUSR1, syscall.SIGTERM, os.Interrupt)
	defer signal.Stop(sigCh)

	var prof *os.File
	for stop := false; !stop; {
		select {
		case err := <-errCh:
			return err
		case sig := <-sigCh:
			if sig != syscall.SIGUSR1 {
				stop = true
				break
			}
			if prof == nil {
				if prof, err = os.Create(*profPath); err != nil {
					return err
				}
				if err := pprof.StartCPUProfile(prof); err != nil {
					return err
				}
			}
		}
	}
	if prof != nil {
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			return err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		return err
	}
	rec.mu.Lock()
	b, err := json.Marshal(rec.spans)
	rec.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(*spansPath, b, 0o644)
}
