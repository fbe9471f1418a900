package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one cycle or request share
// Op; Parent is the enclosing span's ID (0 for a root).
type span struct {
	ID, Parent int
	Op         int
	Lane       int // client or caller index: one row in a trace viewer
	Name       string
	Start, End time.Duration // since the tracer's origin
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced paths can share code with traced ones.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	ops    int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// newOp returns a fresh op ID for one cycle or request.
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, op, parent, lane int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Lane: lane, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return s.dur()
}

// selfTime is span id's duration minus the part of it its direct children
// cover; overlapping children (concurrent clients) count once.
func (t *tracer) selfTime(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return selfTime(t.spans, id)
}

// childSelfTime sums the self times of span id's direct children: for a
// round whose children are cycles and whose grandchildren are layer calls,
// the part of the cycles that no layer span covers.
func (t *tracer) childSelfTime(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var r time.Duration
	for _, s := range t.spans {
		if s.Parent == id {
			r += selfTime(t.spans, s.ID)
		}
	}
	return r
}

func selfTime(spans []span, id int) time.Duration {
	parent := spans[id-1]
	var kids [][2]time.Duration
	for _, s := range spans {
		if s.Parent == id {
			kids = append(kids, [2]time.Duration{max(s.Start, parent.Start), min(s.End, parent.End)})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i][0] < kids[j][0] })
	covered := time.Duration(0)
	var cur [2]time.Duration
	open := false
	for _, k := range kids {
		if k[1] <= k[0] {
			continue
		}
		if open && k[0] <= cur[1] {
			cur[1] = max(cur[1], k[1])
			continue
		}
		if open {
			covered += cur[1] - cur[0]
		}
		cur, open = k, true
	}
	if open {
		covered += cur[1] - cur[0]
	}
	return parent.dur() - covered
}

// writeChrome writes the spans as Chrome trace-event JSON ("X" complete
// events, microsecond timestamps), which Perfetto and chrome://tracing
// open directly.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64(s.dur().Nanoseconds()) / 1e3,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "op": s.Op},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
