package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call: an op, or a layer call made on the op's inputs.
// IDs start at 1; Parent 0 means a root span.
type span struct {
	ID     int
	Parent int
	Op     int
	Name   string
	Start  time.Duration // since the tracer's epoch
	End    time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; write exports them once, at the end.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, op int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: time.Since(t.epoch)})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = time.Since(t.epoch)
	return s.dur()
}

// timed runs fn inside a span and returns the span's duration.
func (t *tracer) timed(name string, parent, op int, fn func()) time.Duration {
	id := t.begin(name, parent, op)
	fn()
	return t.end(id)
}

// traceEvent is one Chrome trace-event "complete" event; Perfetto and
// chrome://tracing open a file of them directly.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

func (t *tracer) write(path string) error {
	tf := traceFile{DisplayTimeUnit: "ms", TraceEvents: make([]traceEvent, len(t.spans))}
	for i, s := range t.spans {
		tf.TraceEvents[i] = traceEvent{
			Name: s.Name, Cat: "perfbench", Ph: "X",
			TS:  float64(s.Start) / 1e3,
			Dur: float64(s.dur()) / 1e3,
			PID: 1, TID: 1,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "op": s.Op},
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(tf); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sums, per span name, each span's duration minus the time its
// direct children cover (children never overlap: one caller, one thread).
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]time.Duration, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[s.Name] += s.dur() - child[s.ID]
	}
	return out
}
