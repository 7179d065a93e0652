package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceStoreChromeExport(t *testing.T) {
	st := NewTraceStore("qlecd-a", 4)
	job := NewSpanContext()
	start := time.Now()
	st.Span(job, "job j1", "job", start, start.Add(50*time.Millisecond),
		map[string]any{"kind": "one"})
	round := job.Child()
	st.Span(round, "round 0", "sim", start, start.Add(10*time.Millisecond), nil)
	st.Instant(job.Child(), "cell 1/4", "sweep", map[string]any{"done": 1})

	spans := st.Spans(job.TraceID)
	if len(spans) != 3 {
		t.Fatalf("got %d records, want 3", len(spans))
	}
	if r := spans[1]; r.TraceID != job.TraceID || r.Parent != job.SpanID || r.Instance != "qlecd-a" {
		t.Errorf("round record = %+v, want trace %s parented on %s", r, job.TraceID, job.SpanID)
	}

	var b strings.Builder
	if err := WriteChromeTrace(&b, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			Dur   int64          `json:"dur"`
			PID   int            `json:"pid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	// process_name metadata for the one lane, then the three records.
	if len(doc.TraceEvents) != 4 || doc.TraceEvents[0].Phase != "M" {
		t.Fatalf("got %d events (first %+v), want lane metadata + 3", len(doc.TraceEvents), doc.TraceEvents[0])
	}
	phases := map[string]string{}
	for _, ev := range doc.TraceEvents[1:] {
		phases[ev.Name] = ev.Phase
		if ev.PID != 1 {
			t.Errorf("%s pid = %d, want 1", ev.Name, ev.PID)
		}
		if ev.Name == "job j1" && (ev.Dur < 45000 || ev.Dur > 55000) {
			t.Errorf("job span dur = %dµs, want ~50000µs", ev.Dur)
		}
		if ev.Name == "round 0" && ev.Args["parentSpan"] != job.SpanID {
			t.Errorf("round span args = %v, want parentSpan %s", ev.Args, job.SpanID)
		}
	}
	if phases["job j1"] != "X" || phases["round 0"] != "X" || phases["cell 1/4"] != "i" {
		t.Errorf("phases = %v, want job/round X and cell i", phases)
	}
}

func TestTraceStoreSpanCapReportsDrops(t *testing.T) {
	st := NewTraceStore("qlecsim", 1)
	sc := NewSpanContext()
	for i := 0; i < MaxTraceSpans+15; i++ {
		st.Instant(sc, "ev", "test", nil)
	}
	spans := st.Spans(sc.TraceID)
	// The cap, plus the drop-count instant at the end.
	if len(spans) != MaxTraceSpans+1 {
		t.Fatalf("got %d records, want %d", len(spans), MaxTraceSpans+1)
	}
	last := spans[len(spans)-1]
	if last.Name != "events dropped (trace cap reached)" || last.Phase != "i" || last.Args["dropped"] != 15 {
		t.Errorf("last record = %+v, want the drop instant with dropped=15", last)
	}
	// An uncut trace carries no drop instant.
	other := NewSpanContext()
	st.Instant(other, "ev", "test", nil)
	if got := st.Spans(other.TraceID); len(got) != 1 {
		t.Errorf("uncut trace = %d records, want 1", len(got))
	}
}

func TestTraceStoreEvictsTracesFIFO(t *testing.T) {
	st := NewTraceStore("qlecd", 2)
	a, b, c := NewSpanContext(), NewSpanContext(), NewSpanContext()
	release := st.Hold(a.TraceID)
	for _, sc := range []SpanContext{a, b, c} {
		st.Instant(sc, "submit", "submit", nil)
	}
	if st.Spans(a.TraceID) == nil || st.Spans(b.TraceID) == nil || st.Len() != 3 {
		t.Fatalf("held trace or the unheld within the cap evicted (len %d)", st.Len())
	}
	release()
	d := NewSpanContext()
	st.Instant(d, "submit", "submit", nil)
	if st.Spans(a.TraceID) != nil || st.Len() != 2 {
		t.Errorf("released oldest trace survived (len %d), want FIFO eviction", st.Len())
	}
}

func TestTraceStoreNilAndInvalidNoop(t *testing.T) {
	var nilStore *TraceStore
	sc := NewSpanContext()
	nilStore.Span(sc, "x", "y", time.Now(), time.Now(), nil) // must not panic
	nilStore.Instant(sc, "x", "y", nil)
	nilStore.Hold(sc.TraceID)()
	if nilStore.Spans(sc.TraceID) != nil || nilStore.Len() != 0 {
		t.Error("nil store reported records")
	}

	st := NewTraceStore("qlecd", 4)
	st.Span(SpanContext{}, "x", "y", time.Now(), time.Now(), nil)
	st.Instant(SpanContext{TraceID: "not-hex"}, "x", "y", nil)
	if st.Len() != 0 {
		t.Errorf("invalid span contexts recorded %d traces, want 0", st.Len())
	}
}

// TestTraceStoreConcurrent records, reads, holds and evicts from many
// goroutines at once, as qlecd's handlers, workers and executors do;
// run it under -race.
func TestTraceStoreConcurrent(t *testing.T) {
	st := NewTraceStore("qlecd", 2)
	shared := NewSpanContext()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				own := NewSpanContext()
				release := st.Hold(own.TraceID)
				st.Instant(own, "submit", "submit", nil)
				st.Span(shared.Child(), "round", "sim", time.Now(), time.Now(), nil)
				if len(st.Spans(own.TraceID)) != 1 {
					t.Error("held trace lost its record")
				}
				_ = st.Spans(shared.TraceID)
				release()
				_ = st.Len()
			}
		}()
	}
	wg.Wait()
	// Released traces linger until the next new trace evicts them.
	st.Instant(NewSpanContext(), "submit", "submit", nil)
	if n := st.Len(); n != 2 {
		t.Errorf("Len = %d once every hold is released and a trace arrives, want the cap 2", n)
	}
}
