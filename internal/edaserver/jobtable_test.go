package edaserver

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"llm4eda/eda"
)

// TestJobTableBoundedByBytes submits more finished jobs than the job
// table's byte budget holds, with one job still running: the retained
// bytes stay within the budget, the newest finished job and the running
// job are always kept, and the oldest finished jobs answer 404.
func TestJobTableBoundedByBytes(t *testing.T) {
	reg := eda.NewRegistry()
	release := make(chan struct{})
	for _, p := range []eda.Pipeline{
		{Name: "fat", Run: func(context.Context, eda.Spec) (*eda.Report, error) {
			t.Error("fat ran; every submission should be a report-store hit")
			return nil, nil
		}},
		{Name: "park", Run: func(ctx context.Context, spec eda.Spec) (*eda.Report, error) {
			select {
			case <-release:
				return &eda.Report{OK: true, Summary: "released"}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}},
	} {
		if err := reg.Register(p); err != nil {
			t.Fatal(err)
		}
	}
	s := New(Options{Workers: 1, Registry: reg})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()

	submit := func(spec eda.Spec) JobStatus {
		t.Helper()
		body, _ := json.Marshal(spec)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		var st JobStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || st.ID == "" {
			t.Fatalf("submit %s: %d %s", spec.Framework, rec.Code, rec.Body.String())
		}
		return st
	}
	state := func(id string) string {
		jb := s.lookup(id)
		if jb == nil {
			return "evicted"
		}
		jb.mu.Lock()
		defer jb.mu.Unlock()
		return jb.state
	}

	parked := submit(eda.Spec{Framework: "park"})
	for deadline := time.Now().Add(10 * time.Second); state(parked.ID) != stateRunning; {
		if time.Now().After(deadline) {
			t.Fatalf("parked job stuck in %q", state(parked.ID))
		}
		time.Sleep(time.Millisecond)
	}

	// Every fat submission is answered from the store: 16 KB of report
	// bytes and a 16 KB run-end event detail per finished job, so about
	// 64 jobs fill the budget.
	fat := s.opts.Registry.Normalize(eda.Spec{Framework: "fat"})
	summary := strings.Repeat("s", 16<<10)
	s.store.add(contentKey(fat), &reportEntry{json: []byte(`"` + summary + `"`), ok: true, summary: summary})
	var ids []string
	for i := 0; i < 400; i++ {
		st := submit(fat)
		if st.State != stateDone || !st.Cached {
			t.Fatalf("fat job %d: state %q cached %v", i, st.State, st.Cached)
		}
		ids = append(ids, st.ID)
		s.mu.Lock()
		retained, n := s.retiredBytes, len(s.retired)
		s.mu.Unlock()
		if retained > jobBudget {
			t.Fatalf("after %d jobs the table retains %d bytes in %d jobs, budget %d", i+1, retained, n, jobBudget)
		}
		if state(st.ID) != stateDone {
			t.Fatalf("newest finished job %s evicted", st.ID)
		}
		if state(parked.ID) != stateRunning {
			t.Fatalf("running job evicted after %d submissions", i+1)
		}
	}
	if state(ids[0]) != "evicted" {
		t.Fatal("400 finished jobs fit the budget; nothing was evicted")
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+ids[0], nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("GET of an evicted job: %d, want 404", rec.Code)
	}

	close(release)
	for deadline := time.Now().Add(10 * time.Second); state(parked.ID) != stateDone; {
		if time.Now().After(deadline) {
			t.Fatalf("released job stuck in %q", state(parked.ID))
		}
		time.Sleep(time.Millisecond)
	}
}
