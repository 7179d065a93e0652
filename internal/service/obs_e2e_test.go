package service_test

// Fleet observability end-to-end tests: cross-peer trace propagation,
// the federation endpoint and the autoscale advisor, all over real
// listeners under the race detector (same harness as fleet_e2e_test.go).

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"qlec/internal/experiment"
	"qlec/internal/fleet"
	"qlec/internal/obs"
	"qlec/internal/service"
	"qlec/internal/service/client"
)

// metricSum scrapes base's /metrics and sums every sample of one
// family — 0 when the family is absent.
func metricSum(t *testing.T, base, name string) float64 {
	t.Helper()
	exp, err := obs.ParseExposition(bytes.NewReader(httpGet(t, base+"/metrics")))
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	if f := exp.Family(name); f != nil {
		for _, smp := range f.Samples {
			sum += smp.Value
		}
	}
	return sum
}

// httpGet fetches a URL raw — for the endpoints the typed client does
// not wrap (fleet-internal trace exchange, federation, merged traces).
func httpGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body
}

// TestFleetTraceAndFederation is the observability headline: one traced
// sweep across a 3-daemon fleet leaves spans of a single trace ID on at
// least two peers (visible raw per peer and merged into one multi-lane
// Chrome trace), and /metrics/federate serves a lint-clean merged
// exposition whose summed completion counter matches the per-peer sum.
func TestFleetTraceAndFederation(t *testing.T) {
	req := service.Request{
		Kind:      service.KindFig3,
		Config:    fleetSweepCfg(),
		Protocols: []experiment.ProtocolID{experiment.QLEC, experiment.LEACH},
	}
	n1 := startFleetNode(t, service.Options{Workers: 1}, service.FleetOptions{CellWorkers: 1})
	n2 := startFleetNode(t, service.Options{Workers: 1}, service.FleetOptions{Join: n1.url, CellWorkers: 1})
	n3 := startFleetNode(t, service.Options{Workers: 1}, service.FleetOptions{Join: n1.url, CellWorkers: 1})
	nodes := []*fleetNode{n1, n2, n3}
	waitForRoster(t, n1, n2, n3)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	j, err := n1.cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if j.TraceID == "" {
		t.Fatal("submitted job carries no trace ID")
	}
	done, err := n1.cl.Wait(ctx, j.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != service.StateDone {
		t.Fatalf("fleet job %s (error %q), want done", done.State, done.Error)
	}

	// Raw per-peer span exchange: one trace ID, spans held on >= 2 peers,
	// and somewhere in the fleet a cell ran as stolen work under it.
	peersWithSpans, sawStolen := 0, false
	for _, n := range nodes {
		var spans []obs.SpanRecord
		if err := json.Unmarshal(httpGet(t, n.url+"/v1/fleet/trace/"+j.TraceID), &spans); err != nil {
			t.Fatal(err)
		}
		if len(spans) > 0 {
			peersWithSpans++
		}
		for _, sp := range spans {
			if sp.TraceID != j.TraceID {
				t.Errorf("peer %s holds span %q under trace %s, want %s", n.url, sp.Name, sp.TraceID, j.TraceID)
			}
			if src, _ := sp.Args["source"].(string); src == "stolen" {
				sawStolen = true
			}
		}
	}
	if peersWithSpans < 2 {
		t.Errorf("trace %s has spans on %d peers, want >= 2", j.TraceID, peersWithSpans)
	}
	if !sawStolen {
		t.Error("no cell span ran as stolen work — the trace never crossed a steal")
	}

	// Merged Chrome view: the coordinator collects every peer's spans
	// into one document with a lane (pid + process_name) per daemon.
	var doc struct {
		TraceEvents []struct {
			Name  string          `json:"name"`
			Phase string          `json:"ph"`
			PID   int             `json:"pid"`
			Args  json.RawMessage `json:"args,omitempty"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(httpGet(t, n1.url+"/v1/jobs/"+j.ID+"/trace"), &doc); err != nil {
		t.Fatal(err)
	}
	lanes := map[int]bool{}
	for _, e := range doc.TraceEvents {
		if e.Phase == "M" && e.Name == "process_name" {
			lanes[e.PID] = true
		}
	}
	if len(lanes) < 2 {
		t.Errorf("merged trace has %d lanes, want >= 2 (one per contributing daemon)", len(lanes))
	}

	// Federation: lint-clean merged exposition; the summed completion
	// counter equals the per-peer sum; every peer is reported up.
	fed := httpGet(t, n1.url+"/metrics/federate")
	if err := obs.LintExposition(bytes.NewReader(fed)); err != nil {
		t.Fatalf("federated exposition fails lint: %v", err)
	}
	fexp, err := obs.ParseExposition(bytes.NewReader(fed))
	if err != nil {
		t.Fatal(err)
	}
	ff := fexp.Family("qlecd_fleet_cells_completed_total")
	if ff == nil || len(ff.Samples) != 1 {
		t.Fatalf("federated completion counter = %+v, want one summed series", ff)
	}
	perPeerSum := 0.0
	for _, n := range nodes {
		exp, err := obs.ParseExposition(bytes.NewReader(httpGet(t, n.url+"/metrics")))
		if err != nil {
			t.Fatal(err)
		}
		if f := exp.Family("qlecd_fleet_cells_completed_total"); f != nil {
			for _, s := range f.Samples {
				perPeerSum += s.Value
			}
		}
	}
	if got := ff.Samples[0].Value; got != perPeerSum || got <= 0 {
		t.Errorf("federated cells_completed = %g, per-peer sum = %g, want equal and positive", got, perPeerSum)
	}
	up := fexp.Family("qlecd_federate_peer_up")
	if up == nil || len(up.Samples) != len(nodes) {
		t.Fatalf("peer-up gauge = %+v, want %d instances", up, len(nodes))
	}
	for _, s := range up.Samples {
		if s.Value != 1 {
			t.Errorf("peer %s reported down in a healthy fleet", s.Label(obs.InstanceLabel))
		}
	}
}

// TestFleetAdvisorFlip drives queue wait past a tiny SLO and watches
// the published recommendation flip positive, then — once the queue
// drains and the hysteresis window passes — return to zero.
func TestFleetAdvisorFlip(t *testing.T) {
	n := startFleetNode(t, service.Options{
		Workers: 1,
		Run: func(ctx context.Context, req service.Request, publish func(service.Event)) (*service.ResultEnvelope, error) {
			select {
			case <-time.After(30 * time.Millisecond):
				return &service.ResultEnvelope{Kind: req.Kind}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	}, service.FleetOptions{
		AdvisorInterval: 10 * time.Millisecond,
		Advisor: fleet.AdvisorConfig{
			SLO:        5 * time.Millisecond,
			FastWindow: 40 * time.Millisecond,
			SlowWindow: 80 * time.Millisecond,
			Hysteresis: 100 * time.Millisecond,
		},
	})

	advice := func() *fleet.Advice {
		var st fleet.Status
		if err := json.Unmarshal(httpGet(t, n.url+"/v1/fleet"), &st); err != nil {
			t.Fatal(err)
		}
		return st.Advice
	}
	if advice() == nil {
		t.Fatal("/v1/fleet carries no advice with an SLO configured")
	}

	// One worker, 30ms per job: everything behind the head waits far
	// over the 5ms SLO.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	ids := make([]string, 0, 8)
	for i := 0; i < 8; i++ {
		cfg := tinyCfg()
		cfg.Rounds = 2 + i
		j, err := n.cl.Submit(ctx, oneRequest(cfg))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	waitFor(t, func() bool {
		a := advice()
		return a != nil && a.Delta > 0
	}, "advisor never recommended scaling up under sustained over-SLO queue wait")

	for _, id := range ids {
		if _, err := n.cl.Wait(ctx, id, 5*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	// Drained: burn rates fall to zero, and after the hysteresis hold
	// the recommendation must relax back to steady.
	waitFor(t, func() bool {
		a := advice()
		return a != nil && a.Delta == 0
	}, "recommendation never relaxed to zero after the queue drained")
	if a := advice(); a != nil && a.Delta != 0 {
		t.Fatalf("delta = %d after drain, want 0 (reason %q)", a.Delta, a.Reason)
	}
}

// TestFederateStandalone: a daemon with no fleet configured still
// serves /metrics/federate — a lint-clean fleet of one.
func TestFederateStandalone(t *testing.T) {
	srv, err := service.New(service.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Close()
		ts.Close()
	})
	cl := client.New(ts.URL, client.WithRetries(0))

	ctx := context.Background()
	j, err := cl.Submit(ctx, oneRequest(tinyCfg()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Wait(ctx, j.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	fed := httpGet(t, ts.URL+"/metrics/federate")
	if err := obs.LintExposition(bytes.NewReader(fed)); err != nil {
		t.Fatalf("standalone federation fails lint: %v", err)
	}
	exp, err := obs.ParseExposition(bytes.NewReader(fed))
	if err != nil {
		t.Fatal(err)
	}
	up := exp.Family("qlecd_federate_peer_up")
	if up == nil || len(up.Samples) != 1 {
		t.Fatalf("standalone peer-up = %+v, want exactly one instance", up)
	}
	if g := exp.Family("qlecd_queue_depth"); g == nil || g.Samples[0].Label(obs.InstanceLabel) == "" {
		t.Error("merged gauges missing their instance label in the standalone case")
	}
}
