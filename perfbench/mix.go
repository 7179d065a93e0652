package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"qlec/internal/experiment"
	"qlec/internal/metrics"
	"qlec/internal/service"
	"qlec/internal/service/client"
)

// mixRate is the offered load of qlecd-mix in requests per second. On a
// 2-core Xeon it keeps the two job workers about half busy.
const mixRate = 40

// mixLatencyLimit is the latency behind goodput_rps: a request counts
// when its result is in hand within this long of its due time.
const mixLatencyLimit = 500 * time.Millisecond

// mixCapacityShare is the share of the measured time qlecd-mix spends
// in its closed-loop capacity phase, after the open-loop phase.
const mixCapacityShare = 0.3

// mixCapacitySlots is the capacity phase's requests in flight per job
// worker: enough that a worker that finishes finds the next job queued.
const mixCapacitySlots = 2

// mixDirectSample checks every mixDirectSample-th miss against a direct
// experiment.Config.RunOne of the same config.
const mixDirectSample = 8

// daemon is one in-process qlecd: a service.Server behind a real
// loopback listener, with a client for it.
type daemon struct {
	srv *service.Server
	ts  *httptest.Server
	cl  *client.Client
	dir string
}

// qlecdOptions are qlecd's flag defaults (cmd/qlecd) with the store in
// dir and the operational log discarded.
func qlecdOptions(dir string) service.Options {
	return service.Options{
		DataDir:               dir,
		Workers:               2,
		QueueLimit:            256,
		MaxRetries:            1,
		TraceHistory:          64,
		AuditHistory:          64,
		ProfileHistory:        32,
		RuntimeSampleInterval: 10 * time.Second,
		AutoProfileMinGap:     5 * time.Minute,
	}
}

func startDaemon(scratch string) (*daemon, error) {
	dir, err := os.MkdirTemp(scratch, "qlecd-")
	if err != nil {
		return nil, err
	}
	srv, err := service.New(qlecdOptions(dir))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	return &daemon{srv: srv, ts: ts, cl: client.New(ts.URL), dir: dir}, nil
}

// stop drains the daemon, closes its listener and deletes its store.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Drain(ctx)
	d.ts.Close()
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// mixOutcome is what one qlecd-mix request observed.
type mixOutcome struct {
	job     *service.Job
	result  []byte // the result payload's JSON
	cells   int    // simulation cells the request asked for
	err     error
	submit  time.Duration // traced only: client.Submit
	stream  time.Duration // traced only: client.Events until terminal
	fetch   time.Duration // traced only: client.Result
	resSize int           // traced only: result envelope bytes
}

// doMix sends one request. Untraced, a KindOne request goes through
// client.RunOne exactly as a user would call it; traced, and for
// sweeps, the same calls are made one by one so each can be timed.
func doMix(ctx context.Context, cl *client.Client, req service.Request, traced bool) mixOutcome {
	var o mixOutcome
	if req.Kind == service.KindOne && !traced {
		res, job, err := cl.RunOne(ctx, req, nil)
		o.job, o.err, o.cells = job, err, 1
		if err == nil {
			o.result, o.err = json.Marshal(res)
		}
		return o
	}
	t0 := time.Now()
	job, err := cl.Submit(ctx, req)
	o.submit = time.Since(t0)
	if err != nil {
		o.err = err
		return o
	}
	if !job.State.Terminal() {
		t1 := time.Now()
		err := cl.Events(ctx, job.ID, func(service.Event) bool { return true })
		o.stream = time.Since(t1)
		if err != nil {
			o.err = err
			return o
		}
		if job, err = cl.Wait(ctx, job.ID, 0); err != nil {
			o.err = err
			return o
		}
	}
	o.job = job
	if job.State != service.StateDone {
		o.err = fmt.Errorf("job %s ended %s: %s", job.ID, job.State, job.Error)
		return o
	}
	t2 := time.Now()
	env, err := cl.Result(ctx, job.Hash)
	o.fetch = time.Since(t2)
	if err != nil {
		o.err = err
		return o
	}
	if b, err := json.Marshal(env); err == nil {
		o.resSize = len(b)
	}
	switch {
	case req.Kind == service.KindOne && env.One != nil:
		o.cells = 1
		o.result, o.err = json.Marshal(env.One)
	case req.Kind == service.KindFig3 && env.Fig3 != nil:
		o.cells = len(req.Protocols) * len(req.Config.Lambdas) * len(req.Config.Seeds)
		o.result, o.err = json.Marshal(env.Fig3)
	default:
		o.err = fmt.Errorf("job %s: result payload does not match kind %q", job.ID, req.Kind)
	}
	return o
}

// checkMix checks one request's output: hits must repeat the primed
// result byte for byte; every result must satisfy the invariants.
func checkMix(mr mixRequest, o mixOutcome, primed map[string][]byte) error {
	if o.err != nil {
		return o.err
	}
	switch mr.Kind {
	case kindHit:
		if want := primed[o.job.Hash]; !bytes.Equal(o.result, want) {
			return fmt.Errorf("hit %s: result differs from the first result for its hash", o.job.Hash)
		}
	case kindMiss:
		var res metrics.Result
		if err := json.Unmarshal(o.result, &res); err != nil {
			return err
		}
		if err := checkResult(&res, float64(mr.Req.Config.N)*float64(mr.Req.Config.InitialEnergy)); err != nil {
			return fmt.Errorf("miss %s: %w", o.job.Hash, err)
		}
	case kindSweep:
		var sweep []experiment.SweepResult
		if err := json.Unmarshal(o.result, &sweep); err != nil {
			return err
		}
		for _, s := range sweep {
			for _, p := range s.Points {
				if !(p.PDR.Mean >= 0 && p.PDR.Mean <= 1) {
					return fmt.Errorf("sweep %s: %s λ=%v PDR %v outside [0,1]", o.job.Hash, s.Protocol, p.Lambda, p.PDR.Mean)
				}
			}
		}
	}
	return nil
}

// mixPhase is one load phase's measurements. With --trace 1 every
// other request is traced, so traced and untraced requests share the
// server's state and load, and their ratio is the tracing overhead.
type mixPhase struct {
	reqs   []mixRequest
	traced []bool
	outs   []mixOutcome
	sent   []sent
	wall   time.Duration
	start  time.Time
	used   usage
}

// pick returns f of each successful request of kind whose traced flag
// is traced.
func (p *mixPhase) pick(kind mixKind, traced bool, f func(int) float64) []float64 {
	var xs []float64
	for i, mr := range p.reqs {
		if mr.Kind == kind && p.traced[i] == traced && p.outs[i].err == nil {
			xs = append(xs, f(i))
		}
	}
	return xs
}

// latencies is due time → result in hand.
func (p *mixPhase) latencies(kind mixKind, traced bool) []float64 {
	return p.pick(kind, traced, func(i int) float64 { return p.sent[i].latency.Seconds() })
}

// requestTimes is the client's time from sending a request to having
// its result: request JSON, Normalize and Hash, the cache peek, queue
// wait, execution with its audit and observers, the event stream and
// the result fetch. Unlike latencies it leaves out the load generator's
// own wait for a free slot.
func (p *mixPhase) requestTimes(kind mixKind, traced bool) []float64 {
	return p.pick(kind, traced, func(i int) float64 { return (p.sent[i].latency - p.sent[i].lag).Seconds() })
}

// execTimes is the service-side execution time, job StartedAt to
// FinishedAt.
func (p *mixPhase) execTimes(kind mixKind, traced bool) []float64 {
	return p.pick(kind, traced, func(i int) float64 {
		j := p.outs[i].job
		return j.FinishedAt.Sub(j.StartedAt).Seconds()
	})
}

// runMixPhase drives one open-loop load phase against d and checks
// every output.
func (r *run) runMixPhase(ctx context.Context, d *daemon, reqs []mixRequest, primed map[string][]byte) mixPhase {
	p := mixPhase{reqs: reqs, traced: make([]bool, len(reqs)), outs: make([]mixOutcome, len(reqs))}
	dues := make([]time.Duration, len(reqs))
	for i, mr := range reqs {
		dues[i] = mr.Due
		p.traced[i] = r.trace && i%2 == 1
	}
	u0 := readUsage()
	p.start = time.Now()
	p.sent = openLoop(ctx, dues, r.nproc, func(ctx context.Context, i int) {
		p.outs[i] = doMix(ctx, d.cl, reqs[i].Req, p.traced[i])
	})
	p.wall = time.Since(p.start)
	p.used = readUsage().since(u0)
	for i, mr := range reqs {
		r.op(checkMix(mr, p.outs[i], primed))
	}
	return p
}

// runMixCapacity is the closed-loop capacity phase: requests drawn from
// the same mix as the open-loop schedule, mixCapacitySlots per job
// worker in flight, for dur. It checks every output and returns the
// simulation cells completed per wall second.
func (r *run) runMixCapacity(ctx context.Context, d *daemon, gen *mixGen, dur time.Duration, primed map[string][]byte) float64 {
	var mu sync.Mutex
	var reqs []mixRequest
	var outs []mixOutcome
	slots := mixCapacitySlots * qlecdOptions("").Workers
	_, wall := closedLoop(ctx, dur, slots, func(i int) func(context.Context) {
		mr := gen.next()
		mu.Lock()
		reqs, outs = append(reqs, mr), append(outs, mixOutcome{})
		mu.Unlock()
		return func(ctx context.Context) {
			o := doMix(ctx, d.cl, mr.Req, false)
			mu.Lock()
			outs[i] = o
			mu.Unlock()
		}
	})
	cells := 0
	for i, mr := range reqs {
		err := checkMix(mr, outs[i], primed)
		if err == nil {
			cells += outs[i].cells
		}
		r.op(err)
	}
	r.addReport("capacity_requests", float64(len(reqs)), "count", len(reqs),
		fmt.Sprintf("closed loop, %d in flight, %v", slots, dur))
	return float64(cells) / wall.Seconds()
}

// runQlecdMix is the qlecd-mix workload: an in-process standalone
// qlecd with its flag defaults, driven over loopback HTTP by an
// open-loop Poisson schedule of paper-scale KindOne requests (half
// repeats of primed configs, which hit the cache, and fresh seeds,
// which simulate and write cache and store) plus a few small fresh-seed
// KindFig3 sweeps. cell_s_mean is the open-loop misses' request time;
// cells_per_s is the service's capacity, from a closed-loop phase of the
// same mix that follows, since the open-loop rate is fixed by the
// schedule.
func runQlecdMix(ctx context.Context, r *run) error {
	gen := newMixGen(r.seed)
	capDur := time.Duration(mixCapacityShare * float64(r.seconds))
	reqs := gen.schedule(mixRate, r.seconds-capDur)
	var d *daemon
	var primed map[string][]byte
	stop, err := r.setupMedian(func() (func() error, error) {
		var err error
		if d, err = startDaemon(r.scratch); err != nil {
			return nil, err
		}
		// The hot configs are primed all at once, so the job workers
		// run them back to back: a chain of one request after another
		// would time the host's wake-up latency more than the program.
		outs := make([]mixOutcome, len(gen.Hot))
		var wg sync.WaitGroup
		for i, req := range gen.Hot {
			wg.Add(1)
			go func() {
				defer wg.Done()
				outs[i] = doMix(ctx, d.cl, req, false)
			}()
		}
		wg.Wait()
		primed = map[string][]byte{}
		for _, o := range outs {
			if o.err != nil {
				return d.stop, o.err
			}
			primed[o.job.Hash] = o.result
		}
		return d.stop, nil
	})
	if err != nil {
		return err
	}
	defer func() {
		if err := stop(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: qlecd-mix: stop daemon:", err)
		}
	}()

	ph := r.runMixPhase(ctx, d, reqs, primed)
	cells, good := 0, 0
	for i, o := range ph.outs {
		if o.err == nil {
			cells += o.cells
			if ph.sent[i].latency <= mixLatencyLimit {
				good++
			}
		}
	}
	missTimes := ph.requestTimes(kindMiss, false)
	r.setPerCell(ph.used, cells)
	r.addReport("open_cells_per_s", float64(cells)/ph.wall.Seconds(), "1/s", cells, "simulated cells of the open-loop phase")
	r.addReport("offered_rps", float64(len(reqs))/(r.seconds-capDur).Seconds(), "1/s", len(reqs),
		fmt.Sprintf("open loop, Poisson, at most %d in flight", r.nproc))
	r.addReport("goodput_rps", float64(good)/ph.wall.Seconds(), "1/s", good,
		fmt.Sprintf("latency limit %v from the due time", mixLatencyLimit))
	r.reportLatency("hit_latency_s", ph.latencies(kindHit, false))
	r.reportLatency("miss_latency_s", ph.latencies(kindMiss, false))
	r.reportLatency("miss_request_s", missTimes)
	r.addReport("miss_request_s_mean", mean(missTimes), "s", len(missTimes), "")
	r.reportLatency("miss_exec_s", ph.execTimes(kindMiss, false))
	r.reportLatency("sweep_latency_s", ph.latencies(kindSweep, false))
	lags := make([]float64, len(ph.sent))
	for i, s := range ph.sent {
		lags[i] = s.lag.Seconds()
	}
	r.reportLatency("loadgen.lag_s", lags)

	// A fixed sample of misses must equal the same config run directly.
	nMiss := 0
	for i, mr := range reqs {
		if mr.Kind != kindMiss || ph.outs[i].err != nil {
			continue
		}
		if nMiss++; nMiss%mixDirectSample != 1 {
			continue
		}
		b, _, err := runDirect(ctx, mr.Req)
		if err == nil && !bytes.Equal(b, ph.outs[i].result) {
			err = fmt.Errorf("miss %s: service result differs from a direct RunOne", ph.outs[i].job.Hash)
		}
		r.op(err)
	}

	r.setE2E("cells_per_s", r.runMixCapacity(ctx, d, gen, capDur, primed))

	if r.trace {
		if err := r.mixLayers(ctx, ph); err != nil {
			return err
		}
		// Tracing changes only the client side (split Submit, Events and
		// Result calls instead of RunOne), so compare request times.
		r.setLayer("trace_overhead", mean(ph.requestTimes(kindMiss, true))/mean(missTimes))
	}
	return nil
}

// runDirect runs a KindOne request's config in-process through
// experiment.Config.RunOne and returns the result's JSON and the run's
// wall time.
func runDirect(ctx context.Context, req service.Request) ([]byte, time.Duration, error) {
	t0 := time.Now()
	res, err := req.Config.RunOne(ctx, req.Protocols[0], req.Lambda, req.Seed, req.Lifespan)
	d := time.Since(t0)
	if err != nil {
		return nil, d, err
	}
	b, err := json.Marshal(res)
	return b, d, err
}

// mixLayers turns the traced requests of a load phase into the service
// per-layer metrics, re-running each traced miss in-process for the
// direct baseline.
func (r *run) mixLayers(ctx context.Context, p mixPhase) error {
	tr := newTracer(r.seed)
	var submitHit, submitMiss, result, wait, exec, stream, cpu, alloc, sweepExec, direct, tax, lags []float64
	var sizes []float64
	hits, coalesced, oneReqs := 0, 0, 0
	for i, mr := range p.reqs {
		o := p.outs[i]
		lags = append(lags, p.sent[i].lag.Seconds())
		if !p.traced[i] || o.err != nil {
			continue
		}
		j := o.job
		due := p.start.Add(mr.Due)
		tr.span("", "", fmt.Sprintf("%s %s", mr.Kind, j.Hash[:12]), "request", due, due.Add(p.sent[i].latency), map[string]any{
			"job": j.ID, "cacheHit": j.CacheHit, "submit_us": o.submit.Microseconds(),
			"stream_us": o.stream.Microseconds(), "result_us": o.fetch.Microseconds(),
			"lag_us": p.sent[i].lag.Microseconds(),
		})
		result = append(result, o.fetch.Seconds())
		sizes = append(sizes, float64(o.resSize))
		switch mr.Kind {
		case kindHit, kindMiss:
			oneReqs++
			if j.CacheHit {
				hits++
			} else if mr.Kind == kindHit {
				coalesced++
			}
		}
		switch mr.Kind {
		case kindHit:
			submitHit = append(submitHit, o.submit.Seconds())
		case kindMiss:
			submitMiss = append(submitMiss, o.submit.Seconds())
			stream = append(stream, o.stream.Seconds())
			wait = append(wait, j.StartedAt.Sub(j.CreatedAt).Seconds())
			e := j.FinishedAt.Sub(j.StartedAt).Seconds()
			exec = append(exec, e)
			if j.Resources != nil {
				cpu = append(cpu, j.Resources.CPUSeconds)
				alloc = append(alloc, float64(j.Resources.AllocBytes)/1e6)
			}
			// The direct baseline runs after the load phase, alone.
			_, dd, err := runDirect(ctx, mr.Req)
			if err != nil {
				return err
			}
			direct = append(direct, dd.Seconds())
			tax = append(tax, e-dd.Seconds())
		case kindSweep:
			sweepExec = append(sweepExec, j.FinishedAt.Sub(j.StartedAt).Seconds())
		}
	}
	r.setLayer("svc.submit_s.hit", median(submitHit))
	r.setLayer("svc.submit_s.miss", median(submitMiss))
	r.setLayer("svc.result_s", median(result))
	r.setLayer("svc.result_bytes", mean(sizes))
	r.setLayer("svc.queue_wait_s", median(wait))
	r.setLayer("svc.exec_s", median(exec))
	r.setLayer("svc.stream_s", median(stream))
	r.setLayer("svc.direct_s", median(direct))
	r.setLayer("svc.tax_s", median(tax))
	r.setLayer("svc.job_cpu_s", median(cpu))
	r.setLayer("svc.job_alloc_mb", median(alloc))
	r.setLayer("svc.hit_ratio", float64(hits)/float64(oneReqs))
	r.setLayer("svc.coalesced", float64(coalesced))
	r.setLayer("svc.sweep_exec_s", median(sweepExec))
	r.setLayer("loadgen.lag_s_p90", quantile(lags, 0.9))
	return r.writeTrace(tr)
}
