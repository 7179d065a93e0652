package main

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopCountsFromDueTime: with one slot, a request due while the
// slot is busy waits for it, and both its lag and its latency include
// that wait.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const work = 40 * time.Millisecond
	out := openLoop(context.Background(), []time.Duration{0, 0}, 1, func(context.Context, int) {
		time.Sleep(work)
	})
	if out[0].latency < work {
		t.Errorf("first latency %v < work %v", out[0].latency, work)
	}
	if out[1].lag < work {
		t.Errorf("second request lag %v, want >= %v (it waited for the slot)", out[1].lag, work)
	}
	if out[1].latency < 2*work {
		t.Errorf("second request latency %v, want >= %v (wait plus work)", out[1].latency, 2*work)
	}
}

// TestOpenLoopSendsOnSchedule: an idle generator sends each request at
// its due time, whether or not earlier ones finished, so lag stays small.
func TestOpenLoopSendsOnSchedule(t *testing.T) {
	dues := []time.Duration{0, 30 * time.Millisecond, 60 * time.Millisecond}
	started := make([]time.Duration, len(dues))
	t0 := time.Now()
	out := openLoop(context.Background(), dues, 4, func(_ context.Context, i int) {
		started[i] = time.Since(t0)
		time.Sleep(50 * time.Millisecond) // longer than the gap: requests overlap
	})
	for i, s := range out {
		if s.lag < 0 || s.lag > 20*time.Millisecond {
			t.Errorf("request %d lag %v, want within [0, 20ms]", i, s.lag)
		}
		if started[i] < dues[i] {
			t.Errorf("request %d started at %v, before its due time %v", i, started[i], dues[i])
		}
	}
}

// TestOpenLoopBoundsInFlight: never more than slots requests run at once.
func TestOpenLoopBoundsInFlight(t *testing.T) {
	const slots = 3
	var cur, peak atomic.Int64
	dues := make([]time.Duration, 40)
	openLoop(context.Background(), dues, slots, func(context.Context, int) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		cur.Add(-1)
	})
	if p := peak.Load(); p > slots || p < 2 {
		t.Errorf("peak in flight %d, want between 2 and %d", p, slots)
	}
}

// TestClosedLoopKeepsSlotsBusy: the closed loop issues requests in
// order, never runs more than slots at once, keeps them all busy, and
// stops issuing once its time is up.
func TestClosedLoopKeepsSlotsBusy(t *testing.T) {
	const slots, dur, work = 3, 60 * time.Millisecond, 5 * time.Millisecond
	var cur, peak atomic.Int64
	next := 0
	n, wall := closedLoop(context.Background(), dur, slots, func(i int) func(context.Context) {
		if i != next {
			t.Errorf("issued request %d, want %d", i, next)
		}
		next++
		return func(context.Context) {
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			time.Sleep(work)
			cur.Add(-1)
		}
	})
	if p := peak.Load(); p != slots {
		t.Errorf("peak in flight %d, want %d", p, slots)
	}
	if n != next || n < slots {
		t.Errorf("returned %d requests, issued %d", n, next)
	}
	if wall < dur || wall > dur+10*work+50*time.Millisecond {
		t.Errorf("wall %v, want just over %v", wall, dur)
	}
}
