package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qlec/internal/experiment"
	"qlec/internal/fleet"
	"qlec/internal/obs"
	"qlec/internal/service"
	"qlec/internal/service/client"
)

// fleetConfigs is the number of paper KindFig3 configs (60 cells each)
// in one fleet-batch batch.
const fleetConfigs = 1

// routeTimer times the fleet-internal requests a peer serves, by route.
// It wraps the peers' handlers with --trace 1 and records only while
// on, that is during the traced phase.
type routeTimer struct {
	on    atomic.Bool
	mu    sync.Mutex
	times map[string][]float64
}

func (t *routeTimer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		route := ""
		switch {
		case req.Method == http.MethodPost && req.URL.Path == "/v1/fleet/steal":
			route = "steal"
		case req.Method == http.MethodPut && strings.HasPrefix(req.URL.Path, "/v1/fleet/cache/"):
			route = "cache_put"
		}
		t0 := time.Now()
		h.ServeHTTP(w, req)
		if route != "" && t.on.Load() {
			d := time.Since(t0).Seconds()
			t.mu.Lock()
			t.times[route] = append(t.times[route], d)
			t.mu.Unlock()
		}
	})
}

func (t *routeTimer) samples(route string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.times[route]
}

// peer is one in-process fleet daemon on a real loopback listener.
type peer struct {
	daemon
	url string
}

// startPeer boots a fleet-mode daemon with qlecd's defaults and one
// cell worker, joining through join when set. The listener exists
// before the server so the server can advertise its address.
func startPeer(scratch, join string, timer *routeTimer) (*peer, error) {
	dir, err := os.MkdirTemp(scratch, "qlecd-peer-")
	if err != nil {
		return nil, err
	}
	var h atomic.Value // http.Handler, set once the server exists
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hh, _ := h.Load().(http.Handler); hh != nil {
			hh.ServeHTTP(w, r)
			return
		}
		http.Error(w, "booting", http.StatusServiceUnavailable)
	}))
	url := "http://" + ts.Listener.Addr().String()
	opt := qlecdOptions(dir)
	opt.Fleet = service.FleetOptions{Self: url, Join: join, CellWorkers: 1}
	srv, err := service.New(opt)
	if err != nil {
		ts.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	var handler http.Handler = srv.Handler()
	if timer != nil {
		handler = timer.wrap(handler)
	}
	h.Store(handler)
	ts.Start()
	return &peer{daemon: daemon{srv: srv, ts: ts, cl: client.New(url), dir: dir}, url: url}, nil
}

// awaitRoster waits until every peer sees every other peer ready. It
// polls far more often than the few milliseconds convergence takes, so
// setup_s is not rounded up to a poll interval.
func awaitRoster(ctx context.Context, peers []*peer) error {
	fc := fleet.NewClient(5 * time.Second)
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for {
		converged := true
		for _, p := range peers {
			st, err := fc.Status(ctx, p.url)
			if err != nil {
				return err
			}
			ready := 0
			for _, ps := range st.Peers {
				if !ps.Self && ps.Ready {
					ready++
				}
			}
			converged = converged && ready == len(peers)-1
		}
		if converged {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("fleet roster did not converge: %w", ctx.Err())
		case <-time.After(200 * time.Microsecond):
		}
	}
}

// fleets is the fleet-batch system under test: a 2-peer fleet and the
// fleet of one it is compared with.
type fleets struct {
	two   []*peer
	one   *peer
	timer *routeTimer
}

func startFleets(ctx context.Context, scratch string, traced bool) (*fleets, error) {
	f := &fleets{}
	if traced {
		f.timer = &routeTimer{times: map[string][]float64{}}
	}
	p1, err := startPeer(scratch, "", f.timer)
	if err != nil {
		return nil, err
	}
	f.two = []*peer{p1}
	p2, err := startPeer(scratch, p1.url, f.timer)
	if err != nil {
		f.stop()
		return nil, err
	}
	f.two = append(f.two, p2)
	if f.one, err = startPeer(scratch, "", nil); err != nil {
		f.stop()
		return nil, err
	}
	if err := awaitRoster(ctx, f.two); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

func (f *fleets) stop() error {
	var errs []error
	for _, p := range append(f.two, f.one) {
		if p != nil {
			if err := p.stop(); err != nil {
				errs = append(errs, err)
			}
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("stop fleet: %v", errs)
	}
	return nil
}

// batchRun is one batch's outcome on one fleet.
type batchRun struct {
	wall     time.Duration
	batch    *service.Batch
	results  [][]byte         // per config: the result envelope's JSON
	cells    []obs.SpanRecord // the peers' cell execute spans
	assemble time.Duration
}

// runBatch submits configs to coordinator, waits for the batch's
// terminal state and collects its results and cell spans from peers.
// Configs that did not finish done have no result; checkBatch reports
// them.
func runBatch(ctx context.Context, coordinator *peer, peers []*peer, configs []service.Request) (batchRun, error) {
	var br batchRun
	t0 := time.Now()
	b, err := coordinator.cl.SubmitBatch(ctx, configs)
	if err != nil {
		return br, err
	}
	if err := coordinator.cl.BatchEvents(ctx, b.ID, func(service.Event) bool { return true }); err != nil {
		return br, err
	}
	if b, err = coordinator.cl.Batch(ctx, b.ID); err != nil {
		return br, err
	}
	br.wall = time.Since(t0)
	br.batch = b
	br.results = make([][]byte, len(b.Configs))
	for i, c := range b.Configs {
		if c.State != service.StateDone {
			continue
		}
		env, err := coordinator.cl.Result(ctx, c.Hash)
		if err != nil {
			return br, err
		}
		if br.results[i], err = json.Marshal(env); err != nil {
			return br, err
		}
	}
	fc := fleet.NewClient(5 * time.Second)
	var lastEnd int64
	for _, p := range peers {
		spans, err := fc.TraceSpans(ctx, p.url, b.TraceID)
		if err != nil {
			return br, err
		}
		for _, s := range spans {
			if s.Cat == "cell" && s.Phase == "X" {
				br.cells = append(br.cells, s)
				lastEnd = max(lastEnd, s.StartUS+s.DurUS)
			}
		}
	}
	if lastEnd > 0 {
		br.assemble = b.FinishedAt.Sub(time.UnixMicro(lastEnd))
	}
	return br, nil
}

// checkConfig checks config i of a 2-peer batch: done, and the Figure
// 3 invariants hold. With one, the fleet-of-one run of the same batch,
// it must be done there too with a byte-identical envelope.
func checkConfig(i int, two batchRun, one *batchRun) error {
	runs := []batchRun{two}
	if one != nil {
		runs = append(runs, *one)
	}
	for _, b := range runs {
		if c := b.batch.Configs[i]; c.State != service.StateDone {
			return fmt.Errorf("batch %s config %d ended %s: %s", b.batch.ID, i, c.State, c.Error)
		}
	}
	if one != nil && !bytes.Equal(two.results[i], one.results[i]) {
		return fmt.Errorf("config %d: the 2-peer envelope differs from the fleet-of-one envelope", i)
	}
	var env service.ResultEnvelope
	if err := json.Unmarshal(two.results[i], &env); err != nil {
		return err
	}
	if env.Fig3 == nil {
		return fmt.Errorf("config %d: envelope has no Figure 3 payload", i)
	}
	for _, s := range env.Fig3 {
		for _, p := range s.Points {
			if !(p.PDR.Mean >= 0 && p.PDR.Mean <= 1) {
				return fmt.Errorf("config %d: %s λ=%v PDR %v outside [0,1]", i, s.Protocol, p.Lambda, p.PDR.Mean)
			}
		}
	}
	return nil
}

// fleetPhase is one measured phase: fresh-seed batches on the 2-peer
// fleet, the first of them also run on the fleet of one for the
// scaling reference and the byte-identity check.
type fleetPhase struct {
	two   []batchRun
	one   batchRun
	cells int   // cells run on the 2-peer fleet
	used  usage // by the process over the phase, both fleets
}

func (f *fleets) phase(ctx context.Context, r *run, pool *seedPool, d time.Duration) (fleetPhase, error) {
	var ph fleetPhase
	u0 := readUsage()
	for t0 := time.Now(); len(ph.two) == 0 || time.Since(t0) < d; {
		configs := fleetBatch(pool, fleetConfigs)
		two, err := runBatch(ctx, f.two[0], f.two, configs)
		if err != nil {
			return ph, err
		}
		var one *batchRun
		if len(ph.two) == 0 {
			if ph.one, err = runBatch(ctx, f.one, []*peer{f.one}, configs); err != nil {
				return ph, err
			}
			one = &ph.one
		}
		for c := range configs {
			r.op(checkConfig(c, two, one))
		}
		ph.two = append(ph.two, two)
		ph.cells += two.batch.CellsTotal
	}
	ph.used = readUsage().since(u0)
	return ph, nil
}

// throughput is cells per second of batch wall time.
func throughput(runs []batchRun) float64 {
	cells, wall := 0, time.Duration(0)
	for _, b := range runs {
		cells += b.batch.CellsTotal
		wall += b.wall
	}
	return float64(cells) / wall.Seconds()
}

func cellSeconds(runs []batchRun) []float64 {
	var xs []float64
	for _, b := range runs {
		for _, s := range b.cells {
			xs = append(xs, float64(s.DurUS)/1e6)
		}
	}
	return xs
}

// runFleetBatch is the fleet-batch workload: a batch of fresh-seed
// paper KindFig3 configs submitted to peer 1 of a 2-peer in-process
// fleet (each peer one cell worker, qlecd's other defaults), against
// the same batch on a fleet of one for the scaling reference.
func runFleetBatch(ctx context.Context, r *run) error {
	untraced, traced := r.phases()
	// Each set-up ends with one paper-scale KindOne through peer 1, the
	// cold first request a fresh fleet pays once. Booting alone takes a
	// few milliseconds of system calls whose time swings with the host.
	warm := paperOne(experiment.QLEC, 8, newSeedPool(r.seed, "fleet/warm").next())
	var f *fleets
	stop, err := r.setupMedian(func() (func() error, error) {
		var err error
		if f, err = startFleets(ctx, r.scratch, r.trace); err != nil {
			return nil, err
		}
		if _, _, err := f.two[0].cl.RunOne(ctx, warm, nil); err != nil {
			return f.stop, fmt.Errorf("warm-up request: %w", err)
		}
		return f.stop, nil
	})
	if err != nil {
		return err
	}
	defer func() {
		if err := stop(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: fleet-batch:", err)
		}
	}()
	pool := newSeedPool(r.seed, "fleet")
	ph, err := f.phase(ctx, r, pool, untraced)
	if err != nil {
		return err
	}
	cells := cellSeconds(ph.two)
	two, one := throughput(ph.two), throughput([]batchRun{ph.one})
	r.setE2E("cells_per_s", two)
	r.setPerCell(ph.used, ph.cells+ph.one.batch.CellsTotal)
	r.addReport("cells_per_s", two, "1/s", ph.cells, fmt.Sprintf("2 peers × 1 cell worker, %d paper KindFig3 config(s) per batch", fleetConfigs))
	r.addReport("cells_per_s.fleet_of_one", one, "1/s", ph.one.batch.CellsTotal, "the first batch, run again on a fleet of one")
	r.addReport("scaling_eff", two/(2*one), "ratio", len(ph.two), "2-peer cells/s ÷ (2 × fleet-of-one cells/s)")
	r.reportLatency("cell_s", cells)
	r.addReport("cell_s_mean", mean(cells), "s", len(cells), "")

	if traced > 0 {
		before, err := scrapeFleet(ctx, f.two)
		if err != nil {
			return err
		}
		f.timer.on.Store(true)
		tp, err := f.phase(ctx, r, pool, traced)
		f.timer.on.Store(false)
		if err != nil {
			return err
		}
		after, err := scrapeFleet(ctx, f.two)
		if err != nil {
			return err
		}
		d := func(name string) float64 { return after[name] - before[name] }
		steals := f.timer.samples("steal")
		r.setLayer("fleet.remote_share", d("qlecd_fleet_cells_stolen_in_total")/d("qlecd_fleet_cells_executed_total"))
		if len(steals) > 0 {
			r.setLayer("fleet.steal_yield", d("qlecd_fleet_cells_stolen_out_total")/float64(len(steals)))
			r.setLayer("fleet.steal_rtt_s", median(steals))
		}
		if n := d("qlecd_fleet_cell_wait_seconds_count"); n > 0 {
			r.setLayer("fleet.cell_wait_s", d("qlecd_fleet_cell_wait_seconds_sum")/n)
		}
		if puts := f.timer.samples("cache_put"); len(puts) > 0 {
			r.setLayer("fleet.cache_put_s", median(puts))
		}
		r.setLayer("fleet.lease_expiries", d("qlecd_fleet_lease_expiries_total"))
		var asm []float64
		tr := newTracer(r.seed)
		for _, b := range tp.two {
			asm = append(asm, b.assemble.Seconds())
			id := tr.newSpanID()
			end := b.batch.FinishedAt
			tr.span(id, "", "batch "+b.batch.ID, "batch", end.Add(-b.wall), end, map[string]any{
				"cells": b.batch.CellsTotal, "assemble_us": b.assemble.Microseconds(),
			})
			for _, c := range b.cells {
				tr.adopt(c, id)
			}
		}
		r.setLayer("fleet.assemble_s", median(asm))
		r.setLayer("trace_overhead", mean(cellSeconds(tp.two))/mean(cells))
		if err := r.writeTrace(tr); err != nil {
			return err
		}
	}
	return nil
}

// scrapeFleet sums each counter and histogram sum/count series of the
// fleet's /metrics expositions over peers and label sets.
func scrapeFleet(ctx context.Context, peers []*peer) (map[string]float64, error) {
	fc := fleet.NewClient(5 * time.Second)
	out := map[string]float64{}
	for _, p := range peers {
		text, err := fc.MetricsText(ctx, p.url)
		if err != nil {
			return nil, err
		}
		exp, err := obs.ParseExposition(bytes.NewReader(text))
		if err != nil {
			return nil, err
		}
		for _, fam := range exp.Families {
			if !strings.HasPrefix(fam.Name, "qlecd_fleet_") {
				continue
			}
			for _, s := range fam.Samples {
				if !strings.HasSuffix(s.Name, "_bucket") {
					out[s.Name] += s.Value
				}
			}
		}
	}
	return out, nil
}
