package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one recorded interval: a call into a layer, an operation, or a
// kernel. Spans of one operation share its Op id; Parent is the id of the
// span that caused it (0 for a root).
type span struct {
	ID, Parent, Op int64
	Name           string
	Start, End     time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced phases run.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// openSpan is a span that has begun and not yet ended.
type openSpan struct {
	t *tracer
	span
}

// begin opens a span named name under parent for operation op.
func (t *tracer) begin(name string, parent, op int64) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{t: t, span: span{ID: t.ids.Add(1), Parent: parent, Op: op, Name: name, Start: time.Since(t.epoch)}}
}

// end closes the span and records it.
func (o openSpan) end() {
	if o.t == nil {
		return
	}
	o.End = time.Since(o.t.epoch)
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.span)
	o.t.mu.Unlock()
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// that interval its child spans cover. Children of one span never overlap
// here (every operation calls into the layers one after another), so the
// covered part is the sum of the children clipped to the parent.
func selfTimes(spans []span) map[int64]time.Duration {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] += s.End - s.Start
	}
	for _, c := range spans {
		p, ok := byID[c.Parent]
		if !ok {
			continue
		}
		lo, hi := max(c.Start, p.Start), min(c.End, p.End)
		if hi > lo {
			self[p.ID] -= hi - lo
		}
	}
	return self
}

// spanSums totals self time per span name and counts spans per name.
func spanSums(spans []span) (selfByName map[string]float64, countByName map[string]int) {
	self := selfTimes(spans)
	selfByName = make(map[string]float64)
	countByName = make(map[string]int)
	for _, s := range spans {
		selfByName[s.Name] += self[s.ID].Seconds()
		countByName[s.Name]++
	}
	return selfByName, countByName
}

// traceEvent is one Chrome trace-event "complete" event.
type traceEvent struct {
	Name string           `json:"name"`
	Cat  string           `json:"cat"`
	Ph   string           `json:"ph"`
	Ts   float64          `json:"ts"`
	Dur  float64          `json:"dur"`
	Pid  int              `json:"pid"`
	Tid  int64            `json:"tid"`
	Args map[string]int64 `json:"args"`
}

// writeChromeTrace writes spans as Chrome trace-event JSON (viewable in
// Perfetto or chrome://tracing), one track per operation.
func writeChromeTrace(path string, spans []span, header map[string]any) error {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	events := make([]traceEvent, 0, len(spans))
	for _, s := range spans {
		cat, _, _ := strings.Cut(s.Name, ".")
		events = append(events, traceEvent{
			Name: s.Name, Cat: cat, Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Op,
			Args: map[string]int64{"id": s.ID, "parent": s.Parent, "op": s.Op},
		})
	}
	doc := map[string]any{"traceEvents": events, "displayTimeUnit": "ms", "otherData": header}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("trace output %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace output %s: %w", path, err)
	}
	return nil
}
