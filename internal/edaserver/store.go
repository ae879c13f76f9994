package edaserver

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"llm4eda/eda"
)

// contentKey derives the content address of a normalized spec: every
// field that determines the run's deterministic outcome — framework,
// seed, tier, payload and params — and nothing that is pure scheduling
// (Workers changes wall clock only, the engine pins bit-identical results
// across worker counts; Deadline only decides whether the run finishes).
// Specs must already be registry-normalized so defaulted and explicit
// tiers/seeds share one address.
func contentKey(spec eda.Spec) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%d\x00%s\x00%s\x00%s\x00%s\x00",
		spec.Framework, spec.Run.Seed, spec.Run.Tier, spec.Problem, spec.Kernel, spec.Source)
	for _, v := range spec.Vectors {
		fmt.Fprintf(h, "v%v\x00", v)
	}
	keys := make([]string, 0, len(spec.Params))
	for k := range spec.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "p%s=%g\x00", k, spec.Params[k])
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// reportEntry is one stored outcome: the shared wire bytes plus the two
// fields the cached-completion path needs to synthesize its run-end
// event without re-decoding the report.
type reportEntry struct {
	json    []byte
	ok      bool
	summary string
}

// reportStore is the LRU-bounded content-addressed report cache behind
// same-spec resubmission. Only cleanly completed runs are stored; entries
// are immutable and handed back by pointer.
type reportStore struct {
	mu   sync.Mutex
	cap  int
	m    map[string]*list.Element
	ll   *list.List // front = most recently used
	hits atomic.Uint64
	miss atomic.Uint64
}

type storeEntry struct {
	key string
	val *reportEntry
}

func newReportStore(capacity int) *reportStore {
	if capacity <= 0 {
		capacity = 1
	}
	return &reportStore{
		cap: capacity,
		m:   make(map[string]*list.Element),
		ll:  list.New(),
	}
}

func (s *reportStore) get(key string) (*reportEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.m[key]
	if !ok {
		s.miss.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	s.ll.MoveToFront(el)
	return el.Value.(*storeEntry).val, true
}

// peek is the worker's pop-time re-probe: a real serve counts as a hit,
// but an absence records no second miss — the submit-time get already
// counted this job's miss, and double-counting would halve the hit rate
// /v1/metrics reports.
func (s *reportStore) peek(key string) (*reportEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.m[key]
	if !ok {
		return nil, false
	}
	s.hits.Add(1)
	s.ll.MoveToFront(el)
	return el.Value.(*storeEntry).val, true
}

func (s *reportStore) add(key string, e *reportEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.m[key]; ok {
		el.Value.(*storeEntry).val = e
		s.ll.MoveToFront(el)
		return
	}
	s.m[key] = s.ll.PushFront(&storeEntry{key: key, val: e})
	for s.ll.Len() > s.cap {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		delete(s.m, oldest.Value.(*storeEntry).key)
	}
}

func (s *reportStore) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}
