package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"qlec/internal/obs"
)

// timing accumulates calls across one layer boundary: how many, and how
// long they took in total.
type timing struct {
	n  int64
	ns int64
}

func (t *timing) add(d time.Duration) { t.n++; t.ns += int64(d) }

func (t *timing) merge(o timing) { t.n += o.n; t.ns += o.ns }

// meanSeconds is the mean duration per call; 0 when nothing was timed.
func (t timing) meanSeconds() float64 {
	if t.n == 0 {
		return 0
	}
	return float64(t.ns) / float64(t.n) / 1e9
}

// tracer keeps the traced run's spans in memory and writes them out as
// Chrome trace_event JSON (readable by qlectrace -chrome) when the run
// ends. Each cell or request gets one span ID; the spans of the calls
// made on its behalf are its children.
type tracer struct {
	traceID string
	next    atomic.Uint64
	mu      sync.Mutex
	spans   []obs.SpanRecord
}

func newTracer(seed uint64) *tracer {
	return &tracer{traceID: fmt.Sprintf("%016x%016x", seed, uint64(time.Now().UnixNano()))}
}

// newSpanID reserves a span ID, so a parent's ID can be handed to its
// children before the parent's own span is recorded.
func (t *tracer) newSpanID() string {
	return fmt.Sprintf("%016x", t.next.Add(1))
}

// span records one complete span; an empty id gets a fresh one.
func (t *tracer) span(id, parent, name, cat string, start, end time.Time, args map[string]any) {
	if id == "" {
		id = t.newSpanID()
	}
	rec := obs.SpanRecord{
		TraceID: t.traceID, SpanID: id, Parent: parent,
		Name: name, Cat: cat, Instance: "perfbench", Phase: "X",
		StartUS: start.UnixMicro(), DurUS: end.Sub(start).Microseconds(), Args: args,
	}
	t.mu.Lock()
	t.spans = append(t.spans, rec)
	t.mu.Unlock()
}

// adopt records a span the program itself recorded (a fleet peer's
// cell span) as a child of parent, keeping its instance as its lane.
func (t *tracer) adopt(rec obs.SpanRecord, parent string) {
	rec.TraceID, rec.SpanID, rec.Parent = t.traceID, t.newSpanID(), parent
	t.mu.Lock()
	t.spans = append(t.spans, rec)
	t.mu.Unlock()
}

// write saves the spans under dir as trace-<workload>-<seed>.json and
// returns the path.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-%d.json", workload, seed))
	fh, err := os.Create(path)
	if err != nil {
		return "", err
	}
	t.mu.Lock()
	err = obs.WriteChromeTrace(fh, t.spans)
	t.mu.Unlock()
	if cerr := fh.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
