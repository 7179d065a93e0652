package obs

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// SpanRecord is one span (or instant) of a distributed trace in a
// peer-neutral form: absolute unix-microsecond timestamps plus the
// instance that recorded it. Peers exchange []SpanRecord over
// GET /v1/fleet/trace/{traceID}; WriteChromeTrace stitches records from
// many peers into one timeline with a lane per instance.
type SpanRecord struct {
	TraceID  string         `json:"traceId"`
	SpanID   string         `json:"spanId,omitempty"`
	Parent   string         `json:"parent,omitempty"`
	Name     string         `json:"name"`
	Cat      string         `json:"cat,omitempty"`
	Instance string         `json:"instance"`
	Phase    string         `json:"phase"`   // "X" complete span, "i" instant
	StartUS  int64          `json:"startUs"` // unix microseconds
	DurUS    int64          `json:"durUs,omitempty"`
	Args     map[string]any `json:"args,omitempty"`
}

// MaxTraceSpans bounds the records one trace keeps on one daemon, so a
// million-round lifespan run cannot exhaust memory; past it further
// records are counted, and Spans reports the count.
const MaxTraceSpans = 20000

// TraceStore is the one span store: every span and instant this process
// records — submissions, queue waits, job and per-round spans, cells,
// steals, cache hops — grouped by trace ID. Traces age out FIFO past
// the store's cap (held traces excepted; see Hold) and each keeps at
// most MaxTraceSpans records. Every qlecd peer keeps its own store, and
// whoever serves a merged view fans out to collect.
type TraceStore struct {
	instance string
	traces   *FIFO[string, traceSpans]
}

// traceSpans is one trace's records plus the count dropped at the cap.
type traceSpans struct {
	spans   []SpanRecord
	dropped int
}

// NewTraceStore returns a store labelling every span with instance and
// keeping at most maxTraces unheld traces (min 1).
func NewTraceStore(instance string, maxTraces int) *TraceStore {
	return &TraceStore{instance: instance, traces: NewFIFO[string, traceSpans](maxTraces)}
}

// Span records a complete span under sc's trace. No-op on an invalid
// context or nil store, so callers never need to guard.
func (s *TraceStore) Span(sc SpanContext, name, cat string, start, end time.Time, args map[string]any) {
	if s == nil || !sc.Valid() {
		return
	}
	dur := end.Sub(start).Microseconds()
	if dur < 1 {
		dur = 1 // zero-duration spans render invisibly in trace viewers
	}
	s.add(SpanRecord{
		TraceID: sc.TraceID, SpanID: sc.SpanID, Parent: sc.Parent,
		Name: name, Cat: cat, Instance: s.instance, Phase: "X",
		StartUS: start.UnixMicro(), DurUS: dur, Args: args,
	})
}

// Instant records a point event under sc's trace at time now.
func (s *TraceStore) Instant(sc SpanContext, name, cat string, args map[string]any) {
	if s == nil || !sc.Valid() {
		return
	}
	s.add(SpanRecord{
		TraceID: sc.TraceID, SpanID: sc.SpanID, Parent: sc.Parent,
		Name: name, Cat: cat, Instance: s.instance, Phase: "i",
		StartUS: time.Now().UnixMicro(), Args: args,
	})
}

func (s *TraceStore) add(r SpanRecord) {
	s.traces.Update(r.TraceID, func(t *traceSpans) {
		if len(t.spans) >= MaxTraceSpans {
			t.dropped++
			return
		}
		t.spans = append(t.spans, r)
	})
}

// Spans returns a copy of the records held for one trace. A trace that
// hit MaxTraceSpans ends with an "events dropped (trace cap reached)"
// instant carrying the drop count, so a cut-off trace never looks
// complete.
func (s *TraceStore) Spans(traceID string) []SpanRecord {
	if s == nil {
		return nil
	}
	t, ok := s.traces.Get(traceID)
	if !ok {
		return nil
	}
	// Records below len(t.spans) are never rewritten once appended, so
	// copying them outside the store's lock is safe.
	out := append(make([]SpanRecord, 0, len(t.spans)+1), t.spans...)
	if t.dropped > 0 {
		out = append(out, SpanRecord{
			TraceID: traceID, Name: "events dropped (trace cap reached)", Cat: "meta",
			Instance: s.instance, Phase: "i", StartUS: out[len(out)-1].StartUS,
			Args: map[string]any{"dropped": t.dropped},
		})
	}
	return out
}

// Len reports the number of traces held.
func (s *TraceStore) Len() int {
	if s == nil {
		return 0
	}
	return s.traces.Len()
}

// Hold keeps traceID from being evicted until release is called — qlecd
// holds a job's trace while the job runs, so cache-hit traffic cannot
// age out the spans of work in flight.
func (s *TraceStore) Hold(traceID string) (release func()) {
	if s == nil || traceID == "" {
		return func() {}
	}
	return s.traces.Hold(traceID)
}

// traceEvent is one entry in the Chrome trace_event format. ph "X" is a
// complete span (ts+dur), "i" an instant, "M" metadata.
type traceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts"`            // microseconds since trace start
	Dur   int64          `json:"dur,omitempty"` // microseconds
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"` // instant scope
	Args  map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace merges span records — typically gathered from
// several peers — into one Chrome trace_event JSON document. Each
// instance becomes its own process lane (pid) named via process_name
// metadata; timestamps are rebased to the earliest span so the timeline
// starts at zero.
func WriteChromeTrace(w io.Writer, spans []SpanRecord) error {
	instances := make([]string, 0, 4)
	seen := make(map[string]bool)
	base := int64(0)
	for i, r := range spans {
		if !seen[r.Instance] {
			seen[r.Instance] = true
			instances = append(instances, r.Instance)
		}
		if i == 0 || r.StartUS < base {
			base = r.StartUS
		}
	}
	sort.Strings(instances)
	pid := make(map[string]int, len(instances))
	events := make([]traceEvent, 0, len(spans)+len(instances))
	for i, inst := range instances {
		pid[inst] = i + 1
		events = append(events, traceEvent{
			Name: "process_name", Cat: "__metadata", Phase: "M",
			PID: i + 1, TID: 1,
			Args: map[string]any{"name": inst},
		})
	}
	ordered := append([]SpanRecord(nil), spans...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].StartUS < ordered[j].StartUS })
	for _, r := range ordered {
		ev := traceEvent{
			Name: r.Name, Cat: r.Cat, Phase: r.Phase,
			TS: r.StartUS - base, Dur: r.DurUS,
			PID: pid[r.Instance], TID: 1,
		}
		if ev.Phase == "" {
			ev.Phase = "X"
		}
		if ev.Phase == "i" {
			ev.Scope = "t"
		}
		if r.SpanID != "" || r.Parent != "" || r.TraceID != "" {
			ev.Args = map[string]any{}
			for k, v := range r.Args {
				ev.Args[k] = v
			}
			if r.TraceID != "" {
				ev.Args["trace"] = r.TraceID
			}
			if r.SpanID != "" {
				ev.Args["span"] = r.SpanID
			}
			if r.Parent != "" {
				ev.Args["parentSpan"] = r.Parent
			}
		} else {
			ev.Args = r.Args
		}
		events = append(events, ev)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{events, "ms"})
}
