package sim

import (
	"encoding/json"
	"fmt"
	"io"

	"qlec/internal/packet"
)

// TraceKind classifies trace events.
type TraceKind string

// Trace event kinds, one per observable packet transition.
const (
	// TraceGenerate: a node produced a packet.
	TraceGenerate TraceKind = "generate"
	// TraceSend: a transmission attempt started.
	TraceSend TraceKind = "send"
	// TraceAccept: the target accepted the packet (ACK).
	TraceAccept TraceKind = "accept"
	// TraceReject: the attempt failed (link loss, full queue, dead
	// target).
	TraceReject TraceKind = "reject"
	// TraceService: a head fused the packet.
	TraceService TraceKind = "service"
	// TraceDeliver: the packet reached the base station.
	TraceDeliver TraceKind = "deliver"
	// TraceDrop: the packet was abandoned.
	TraceDrop TraceKind = "drop"
)

// TraceEvent is one observable packet transition. Node/Target use node
// ids with network.BSID (−1) for the base station; Target is meaningful
// for send/accept/reject only. Reason is set on drop events.
type TraceEvent struct {
	Time    float64   `json:"t"`
	Kind    TraceKind `json:"kind"`
	Round   int       `json:"round"`
	Packet  packet.ID `json:"pkt"`
	Node    int       `json:"node"`
	Target  int       `json:"target,omitempty"`
	Attempt int       `json:"attempt,omitempty"`
	Reason  string    `json:"reason,omitempty"`
}

// Tracer receives every trace event. Implementations must be fast; the
// engine calls them on its hot path. A nil tracer (the default) costs
// one branch per event.
type Tracer func(TraceEvent)

// SetTracer installs a tracer. Call before Run; passing nil disables
// tracing.
func (e *Engine) SetTracer(t Tracer) { e.tracer = t }

// JSONLTracer returns a Tracer writing one JSON object per line to w,
// plus a flush function returning the first write error encountered.
func JSONLTracer(w io.Writer) (Tracer, func() error) {
	var firstErr error
	enc := json.NewEncoder(w)
	tracer := func(ev TraceEvent) {
		if firstErr != nil {
			return
		}
		if err := enc.Encode(ev); err != nil {
			firstErr = fmt.Errorf("sim: trace write: %w", err)
		}
	}
	return tracer, func() error { return firstErr }
}

// CountingTracer tallies events by kind — the cheap tracer used in
// tests and quick diagnostics.
type CountingTracer struct {
	Counts map[TraceKind]int
}

// NewCountingTracer returns an empty tally.
func NewCountingTracer() *CountingTracer {
	return &CountingTracer{Counts: make(map[TraceKind]int)}
}

// Trace implements Tracer (use ct.Trace as the function value).
func (ct *CountingTracer) Trace(ev TraceEvent) { ct.Counts[ev.Kind]++ }
