package main

import (
	"context"
	"sync"
	"time"
)

// sent is one open-loop request's timing, all relative to its due time:
// lag is how late it was sent (the generator waited for a free slot or
// overslept), latency is when it finished.
type sent struct {
	lag, latency time.Duration
}

// openLoop issues request i at dues[i] after the call, whether or not
// earlier requests have finished, with at most slots in flight: a
// request due while every slot is busy waits for one, and that wait
// counts in its lag and its latency. It returns once every request has
// finished, with timings in request order.
func openLoop(ctx context.Context, dues []time.Duration, slots int, fn func(ctx context.Context, i int)) []sent {
	out := make([]sent, len(dues))
	sem := make(chan struct{}, slots)
	var wg sync.WaitGroup
	start := time.Now()
	for i, due := range dues {
		if d := time.Until(start.Add(due)); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
			}
		}
		if ctx.Err() != nil {
			break
		}
		sem <- struct{}{}
		lag := time.Since(start) - due
		wg.Add(1)
		go func(i int, due, lag time.Duration) {
			defer wg.Done()
			fn(ctx, i)
			out[i] = sent{lag: lag, latency: time.Since(start) - due}
			<-sem
		}(i, due, lag)
	}
	wg.Wait()
	return out
}

// closedLoop keeps slots requests in flight until dur has passed since
// the call: each finished request frees its slot for the next. issue is
// called on the caller's goroutine, in order, and returns the work of
// request i, which runs on its own goroutine. closedLoop returns the
// number of requests issued and the wall time until the last finished.
func closedLoop(ctx context.Context, dur time.Duration, slots int, issue func(i int) func(context.Context)) (int, time.Duration) {
	sem := make(chan struct{}, slots)
	var wg sync.WaitGroup
	start := time.Now()
	n := 0
	for ; ctx.Err() == nil; n++ {
		sem <- struct{}{}
		if time.Since(start) >= dur {
			break
		}
		work := issue(n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(ctx)
			<-sem
		}()
	}
	wg.Wait()
	return n, time.Since(start)
}
