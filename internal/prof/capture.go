package prof

import (
	"bytes"
	"context"
	"fmt"
	"runtime/pprof"
	"sync"
	"time"

	"qlec/internal/obs"
)

// ValidKind reports whether kind names a capturable profile.
func ValidKind(kind string) bool {
	switch kind {
	case "cpu", "heap", "goroutine", "block", "mutex":
		return true
	}
	return false
}

// cpuMu serialises CPU captures: the runtime allows only one
// StartCPUProfile per process, and a -cpuprofile flag may already
// hold it for the process lifetime.
var cpuMu sync.Mutex

// Capture takes one profile of the given kind. CPU captures sample
// for d (clamped to [100ms, 30s], default 2s) and honour ctx
// cancellation; the lookup kinds are instantaneous. The returned
// artifact has no ID until it is added to a Store.
func Capture(ctx context.Context, kind string, d time.Duration) (*Artifact, error) {
	now := time.Now()
	switch kind {
	case "cpu":
		if d <= 0 {
			d = 2 * time.Second
		}
		if d < 100*time.Millisecond {
			d = 100 * time.Millisecond
		}
		if d > 30*time.Second {
			d = 30 * time.Second
		}
		data, err := captureCPU(ctx, d)
		if err != nil {
			return nil, err
		}
		return &Artifact{
			Kind: "cpu", CreatedAt: now,
			DurationSeconds: d.Seconds(), Data: data,
		}, nil
	case "heap", "goroutine", "block", "mutex":
		p := pprof.Lookup(kind)
		if p == nil {
			return nil, fmt.Errorf("prof: unknown profile %q", kind)
		}
		var buf bytes.Buffer
		// debug=0 writes gzipped protobuf, the same format as cpu
		// captures; block/mutex stay empty unless the daemon enabled
		// the corresponding runtime rates (-pprof-block / -pprof-mutex).
		if err := p.WriteTo(&buf, 0); err != nil {
			return nil, err
		}
		return &Artifact{Kind: kind, CreatedAt: now, Data: buf.Bytes()}, nil
	default:
		return nil, fmt.Errorf("prof: invalid profile kind %q", kind)
	}
}

func captureCPU(ctx context.Context, d time.Duration) ([]byte, error) {
	if !cpuMu.TryLock() {
		return nil, fmt.Errorf("prof: a cpu capture is already running")
	}
	defer cpuMu.Unlock()
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		// Typically "cpu profiling already in use" from a -cpuprofile
		// flag held for the whole process.
		return nil, err
	}
	select {
	case <-ctx.Done():
	case <-time.After(d):
	}
	pprof.StopCPUProfile()
	return buf.Bytes(), nil
}

// AutoCapturer snapshots a CPU+heap profile pair when an anomaly
// trigger fires (advisor scale-up flip, SLO burn), deduped per reason
// and rate-limited by MinGap so a flapping advisor cannot flood the
// store.
type AutoCapturer struct {
	store  *Store
	ctx    context.Context
	cpuDur time.Duration
	minGap time.Duration
	total  *obs.CounterVec

	mu       sync.Mutex
	last     map[string]time.Time
	inFlight bool
	wg       sync.WaitGroup
}

// NewAutoCapturer wires auto-capture into st. ctx bounds in-flight
// CPU sampling at shutdown; minGap <= 0 defaults to 5 minutes.
func NewAutoCapturer(ctx context.Context, st *Store, reg *obs.Registry, minGap time.Duration) *AutoCapturer {
	if minGap <= 0 {
		minGap = 5 * time.Minute
	}
	a := &AutoCapturer{
		store:  st,
		ctx:    ctx,
		cpuDur: 2 * time.Second,
		minGap: minGap,
		last:   make(map[string]time.Time),
	}
	if reg != nil {
		a.total = reg.CounterVec("qlecd_profiles_autocaptured_total",
			"Profiles captured automatically on anomaly triggers.",
			"reason")
	}
	return a
}

// SetCPUDuration overrides the CPU sampling window for auto
// captures (default 2s). Not safe to call once triggers may fire.
func (a *AutoCapturer) SetCPUDuration(d time.Duration) {
	if d > 0 {
		a.cpuDur = d
	}
}

// Trigger requests an async CPU+heap capture tagged with reason.
// Returns true when a capture was started, false when suppressed
// (rate limit for that reason, or one already in flight). Nil-safe.
func (a *AutoCapturer) Trigger(reason string) bool {
	if a == nil {
		return false
	}
	a.mu.Lock()
	now := time.Now()
	if a.inFlight || now.Sub(a.last[reason]) < a.minGap {
		a.mu.Unlock()
		return false
	}
	a.last[reason] = now
	a.inFlight = true
	a.wg.Add(1)
	a.mu.Unlock()

	go func() {
		defer a.wg.Done()
		defer func() {
			a.mu.Lock()
			a.inFlight = false
			a.mu.Unlock()
		}()
		if cpu, err := Capture(a.ctx, "cpu", a.cpuDur); err == nil {
			cpu.Reason = reason
			a.store.Add(cpu)
			if a.total != nil {
				a.total.With(reason).Inc()
			}
		}
		if heap, err := Capture(a.ctx, "heap", 0); err == nil {
			heap.Reason = reason
			a.store.Add(heap)
			if a.total != nil {
				a.total.With(reason).Inc()
			}
		}
	}()
	return true
}

// Wait blocks until in-flight captures finish (test/shutdown helper).
func (a *AutoCapturer) Wait() {
	if a == nil {
		return
	}
	a.wg.Wait()
}
