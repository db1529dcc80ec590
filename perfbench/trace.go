package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// tracer keeps the spans of one traced pass in memory. Every method is safe
// on a nil *tracer, which is how untraced passes run: the calls stay in
// place and record nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	next  uint64
	spans []spanRec
}

// spanRec is one finished span. Parent is the id of the span that caused
// it (0 for a root); spans of one job share their root's id as Parent.
type spanRec struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

type span struct {
	t      *tracer
	sid    uint64
	parent uint64
	name   string
	start  time.Time
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) start(name string, parent uint64) *span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return &span{t: t, sid: id, parent: parent, name: name, start: time.Now()}
}

func (s *span) id() uint64 {
	if s == nil {
		return 0
	}
	return s.sid
}

func (s *span) end() {
	if s == nil {
		return
	}
	s.t.add(spanRec{ID: s.sid, Parent: s.parent, Name: s.name,
		StartNS: s.start.Sub(s.t.t0).Nanoseconds(), EndNS: time.Since(s.t.t0).Nanoseconds()})
}

// record adds a span whose interval was measured elsewhere (a server-side
// phase read from job timestamps).
func (t *tracer) record(name string, parent uint64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	t.add(spanRec{ID: id, Parent: parent, Name: name,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds()})
}

func (t *tracer) add(r spanRec) {
	t.mu.Lock()
	t.spans = append(t.spans, r)
	t.mu.Unlock()
}

// durations groups span durations (ms) by name.
func (t *tracer) durations() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string][]float64{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(s.EndNS-s.StartNS)/1e6)
	}
	return out
}

// write saves the span log as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
