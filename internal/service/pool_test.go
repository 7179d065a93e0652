package service_test

// Cell-pool tests for a standalone daemon — a fleet of one. Sweeps and
// batches drain through the same pool, executors, billing and progress
// series as on a multi-daemon fleet, and a daemon without a self URL
// refuses to take part in a fleet.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"qlec/internal/experiment"
	"qlec/internal/fleet"
	"qlec/internal/obs"
	"qlec/internal/service"
)

// poolSweepCfg is a small real sweep configuration: a handful of cells,
// each a few milliseconds.
func poolSweepCfg() experiment.Config {
	cfg := tinyCfg()
	cfg.Rounds = 8
	cfg.Seeds = []uint64{1, 2}
	cfg.Lambdas = []float64{4, 2}
	return cfg
}

// TestStandaloneSweepsMatchHarness: each sweep kind run on a standalone
// daemon serves an envelope byte-identical to the harness's direct
// run, streams per-cell progress, and bills the job the sum of its
// cells — accounted under kind="cell", never under the sweep's kind.
func TestStandaloneSweepsMatchHarness(t *testing.T) {
	qlec := []experiment.ProtocolID{experiment.QLEC}
	cases := []struct {
		name string
		req  service.Request
	}{
		{"fig3", service.Request{Kind: service.KindFig3, Config: poolSweepCfg(),
			Protocols: []experiment.ProtocolID{experiment.QLEC, experiment.FCM, experiment.KMeans}}},
		{"ksweep", service.Request{Kind: service.KindKSweep, Config: poolSweepCfg(),
			Protocols: qlec, Lambda: 4, Ks: []int{2, 3}}},
		{"nsweep", service.Request{Kind: service.KindNSweep, Config: poolSweepCfg(),
			Protocols: qlec, Lambda: 4, Ns: []int{12, 20}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := runReference(t, tc.req)
			_, cl, base := newObsTestServer(t, service.Options{Workers: 1})
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			j, err := cl.Submit(ctx, tc.req)
			if err != nil {
				t.Fatal(err)
			}
			events := collectEvents(t, cl, j.ID)
			done, err := cl.Job(ctx, j.ID)
			if err != nil {
				t.Fatal(err)
			}
			if done.State != service.StateDone {
				t.Fatalf("%s job %s (error %q), want done", tc.name, done.State, done.Error)
			}
			env, err := cl.Result(ctx, done.Hash)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(env)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("standalone %s envelope differs from the harness run\ndaemon:  %.200s\nharness: %.200s", tc.name, got, want)
			}

			var last *service.SweepProgress
			for _, e := range events {
				if e.Type == service.EventSweep {
					last = e.Sweep
				}
			}
			if last == nil || last.Total == 0 || last.Done != last.Total {
				t.Errorf("last sweep progress = %+v, want every cell done", last)
			}
			if done.Resources == nil || done.Resources.AllocBytes == 0 {
				t.Errorf("sweep job resources = %+v, want the summed cell bills", done.Resources)
			}

			exp, err := obs.ParseExposition(strings.NewReader(scrape(t, base)))
			if err != nil {
				t.Fatal(err)
			}
			if g := exp.Family("qlec_sweep_cells_total"); g == nil || len(g.Samples) != 1 || g.Samples[0].Value != float64(last.Total) {
				t.Errorf("qlec_sweep_cells_total = %+v, want %d", g, last.Total)
			}
			f := exp.Family("qlecd_job_alloc_bytes_total")
			if f == nil {
				t.Fatal("qlecd_job_alloc_bytes_total absent after an executed sweep")
			}
			cells := 0.0
			for _, s := range f.Samples {
				if k := s.Label("kind"); k != "cell" {
					t.Errorf("sweep cost accounted under kind=%q, want only kind=\"cell\"", k)
				}
				cells += s.Value
			}
			if cells <= 0 {
				t.Error("no positive kind=\"cell\" alloc bill after a sweep")
			}
		})
	}
}

// TestExecutorWakesOnOffer: with the steal poll pushed out to an hour,
// only the wake-up on offer can start local cells — a sweep and a
// batch must still finish promptly.
func TestExecutorWakesOnOffer(t *testing.T) {
	_, cl, base := newObsTestServer(t, service.Options{
		Workers: 1,
		Fleet:   service.FleetOptions{StealInterval: time.Hour},
	})
	// The one executor must already have found the pool empty and gone
	// idle, so only a wake-up can start the cells below.
	waitFor(t, func() bool {
		return strings.Contains(scrape(t, base), "qlecd_fleet_steal_starvation_total 1")
	}, "executor never went idle")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	sweep := service.Request{Kind: service.KindFig3, Config: poolSweepCfg(),
		Protocols: []experiment.ProtocolID{experiment.QLEC}}
	j, err := cl.Submit(ctx, sweep)
	if err != nil {
		t.Fatal(err)
	}
	done, err := cl.Wait(ctx, j.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatalf("sweep never finished: %v", err)
	}
	if done.State != service.StateDone {
		t.Fatalf("sweep %s (error %q), want done", done.State, done.Error)
	}

	cfg := poolSweepCfg()
	cfg.Seeds = []uint64{7}
	b, err := cl.SubmitBatch(ctx, []service.Request{
		{Kind: service.KindFig3, Config: cfg, Protocols: []experiment.ProtocolID{experiment.FCM}},
		batchRequest(6),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.BatchEvents(ctx, b.ID, func(service.Event) bool { return true }); err != nil {
		t.Fatalf("batch never finished: %v", err)
	}
	fin, err := cl.Batch(ctx, b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != service.StateDone || fin.Failed != 0 {
		t.Fatalf("batch = %s with %d failed, want done with none", fin.State, fin.Failed)
	}
}

// TestJoinRefusedWithoutSelf: a daemon without a self URL cannot be
// reached back by a peer, so it refuses joins with a 4xx naming the
// missing setting and its roster stays a fleet of one.
func TestJoinRefusedWithoutSelf(t *testing.T) {
	_, cl := newTestServer(t, service.Options{Workers: 1})
	base := testServerURL(t, cl)
	ctx := context.Background()

	resp, err := http.Post(base+"/v1/fleet/join", "application/json",
		strings.NewReader(`{"peer":"http://127.0.0.1:1"}`))
	if err != nil {
		t.Fatal(err)
	}
	var body struct{ Error string }
	derr := json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if resp.StatusCode/100 != 4 || derr != nil || !strings.Contains(body.Error, "self") {
		t.Fatalf("join = %d %q (decode %v), want a 4xx naming self", resp.StatusCode, body.Error, derr)
	}

	st, err := fleet.NewClient(5*time.Second).Status(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Peers) != 1 || !st.Peers[0].Self {
		t.Errorf("roster after refused joins = %+v, want only self", st.Peers)
	}
}
