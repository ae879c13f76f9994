package simfarm

import (
	"sync/atomic"
	"testing"
)

// TestStatsConcurrentWithRunMany hammers Stats() from several goroutines
// while RunMany drives a batch through every cache layer — the exact load
// shape of edaserver /v1/metrics scrapes polling the shared farm under
// traffic. The race detector (make test-race covers this package) is the
// real assertion; the monotonicity checks pin that lock-free snapshots
// still read sane counter values mid-flight.
func TestStatsConcurrentWithRunMany(t *testing.T) {
	f := New()
	var stop atomic.Bool
	const pollers = 4
	done := make(chan struct{}, pollers)
	for w := 0; w < pollers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			var last FarmStats
			for !stop.Load() {
				s := f.Stats()
				// Counters only grow; Len never goes negative.
				if s.Results.Hits < last.Results.Hits || s.Results.Misses < last.Results.Misses ||
					s.Designs.Computes < last.Designs.Computes {
					t.Errorf("counters went backwards: %+v after %+v", s, last)
					return
				}
				if s.Parses.Len < 0 || s.Designs.Len < 0 || s.Results.Len < 0 {
					t.Errorf("negative cache length: %+v", s)
					return
				}
				last = s
			}
		}()
	}

	// 64 jobs over 16 distinct candidates: plenty of concurrent hits,
	// misses and singleflight computes on every layer.
	jobs := make([]Job, 64)
	for i := range jobs {
		jobs[i] = Job{DUT: tinyDUT(i % 16), TB: tinyTB, Top: "tb"}
	}
	results := f.RunMany(jobs, 8)
	stop.Store(true)
	for w := 0; w < pollers; w++ {
		<-done
	}

	for i, r := range results {
		if !r.Passed() {
			t.Fatalf("job %d failed: %+v", i, r)
		}
	}
	s := f.Stats()
	if s.Results.Computes != 16 {
		t.Errorf("result computes = %d, want 16 (one per distinct candidate)", s.Results.Computes)
	}
	if s.Results.Hits+s.Results.Misses == 0 {
		t.Error("no result-cache traffic recorded")
	}
	if got := s.Results.Len; got != 16 {
		t.Errorf("result cache len = %d, want 16", got)
	}
}
