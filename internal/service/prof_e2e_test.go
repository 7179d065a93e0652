package service_test

// Profiling & resource-attribution end-to-end tests: per-job usage
// bills in the job record and terminal SSE event, the profile capture
// API (standalone and fleet-wide), the runtime-sampler endpoint, and
// the headline cost-federation contract — the federated job-cost
// counters equal the per-peer sums exactly, because cost is counted
// once, where execution happened.

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"qlec/internal/experiment"
	"qlec/internal/obs"
	"qlec/internal/prof"
	"qlec/internal/service"
)

// httpPostJSON posts a JSON body and decodes the JSON response.
func httpPostJSON(t *testing.T, url string, body, out any) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		t.Fatalf("POST %s: %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestJobResourceAttribution: an executed job's record and terminal SSE
// event both carry its resource bill; a cache-hit resubmission carries
// none (a hit costs nothing new).
func TestJobResourceAttribution(t *testing.T) {
	_, cl := newTestServer(t, service.Options{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	req := oneRequest(tinyCfg())
	j, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	events := collectEvents(t, cl, j.ID)
	var terminal *service.Event
	for i := range events {
		if events[i].Type == service.EventState && events[i].State.Terminal() {
			terminal = &events[i]
		}
	}
	if terminal == nil {
		t.Fatal("no terminal event on the stream")
	}
	if terminal.Resources == nil || terminal.Resources.AllocBytes == 0 {
		t.Fatalf("terminal event resources = %+v, want a non-empty bill", terminal.Resources)
	}

	done, err := cl.Job(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Resources == nil {
		t.Fatal("executed job carries no resource bill")
	}
	if done.Resources.AllocBytes == 0 || done.Resources.WallSeconds <= 0 {
		t.Errorf("job resources = %+v, want positive allocBytes and wallSeconds", done.Resources)
	}

	// Identical resubmission: cache hit, no new execution, no bill.
	j2, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := cl.Wait(ctx, j2.ID, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit {
		t.Fatalf("resubmission was not a cache hit: %+v", hit)
	}
	if hit.Resources != nil {
		t.Errorf("cache-hit job carries a resource bill: %+v", hit.Resources)
	}

	// The direct-run bill also fed the cost counters under the job's
	// kind and protocol.
	exp, err := obs.ParseExposition(bytes.NewReader(httpGet(t, testServerURL(t, cl)+"/metrics")))
	if err != nil {
		t.Fatal(err)
	}
	f := exp.Family("qlecd_job_alloc_bytes_total")
	if f == nil {
		t.Fatal("qlecd_job_alloc_bytes_total absent after an executed job")
	}
	found := false
	for _, s := range f.Samples {
		if s.Label("kind") == "one" && s.Label("protocol") == string(experiment.QLEC) && s.Value > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("no positive alloc-bytes sample for {kind=one, protocol=qlec}: %+v", f.Samples)
	}
}

// testServerURL digs the base URL back out of the typed client (it is
// the only thing the helpers return that knows it).
func testServerURL(t *testing.T, cl interface{ BaseURL() string }) string {
	t.Helper()
	return cl.BaseURL()
}

// requireGoroutineProfile gunzips a fetched capture and requires the
// goroutine sample type and the capturing frame in its protobuf string
// table, where names sit verbatim.
func requireGoroutineProfile(t *testing.T, raw []byte) {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("fetched profile is not gzip-framed: %v", err)
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("gunzip fetched profile: %v", err)
	}
	for _, want := range []string{"goroutine", "qlec/internal/prof.Capture"} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("fetched goroutine profile lacks %q", want)
		}
	}
}

// TestProfileCaptureAPI: capture, list, fetch; FIFO retention caps the
// store and the gauge reports it.
func TestProfileCaptureAPI(t *testing.T) {
	_, cl := newTestServer(t, service.Options{Workers: 1, ProfileHistory: 2})
	base := testServerURL(t, cl)

	var ids []string
	for i := 0; i < 3; i++ {
		var resp struct {
			Profiles []prof.Artifact `json:"profiles"`
		}
		httpPostJSON(t, base+"/v1/profiles", map[string]any{"kind": "goroutine"}, &resp)
		if len(resp.Profiles) != 1 {
			t.Fatalf("capture %d returned %d profiles, want 1", i, len(resp.Profiles))
		}
		a := resp.Profiles[0]
		if a.Kind != "goroutine" || a.SizeBytes == 0 {
			t.Fatalf("capture %d artifact = %+v, want non-empty goroutine", i, a)
		}
		ids = append(ids, a.ID)
	}

	var list []prof.Artifact
	if err := json.Unmarshal(httpGet(t, base+"/v1/profiles"), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Fatalf("store holds %d artifacts, want 2 (FIFO cap)", len(list))
	}
	if list[0].ID != ids[2] || list[1].ID != ids[1] {
		t.Errorf("list = [%s %s], want newest first [%s %s]", list[0].ID, list[1].ID, ids[2], ids[1])
	}

	// The evicted artifact 404s; "latest" resolves to the newest; raw
	// bytes are a gzipped protobuf goroutine profile.
	if resp, err := http.Get(base + "/v1/profiles/" + ids[0]); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("evicted artifact GET = %d, want 404", resp.StatusCode)
		}
	}
	requireGoroutineProfile(t, httpGet(t, base+"/v1/profiles/latest"))

	if !strings.Contains(string(httpGet(t, base+"/metrics")), "qlecd_profiles_held 2") {
		t.Error("qlecd_profiles_held gauge does not report 2 retained artifacts")
	}
}

// TestRuntimeEndpoint: /v1/runtime answers even with sampling disabled
// (one on-demand sample), and with sampling on the trend accumulates.
func TestRuntimeEndpoint(t *testing.T) {
	_, cl := newTestServer(t, service.Options{
		Workers:               1,
		RuntimeSampleInterval: 5 * time.Millisecond,
	})
	base := testServerURL(t, cl)
	waitFor(t, func() bool {
		var trend struct {
			IntervalSeconds float64              `json:"intervalSeconds"`
			Samples         []prof.RuntimeSample `json:"samples"`
		}
		if err := json.Unmarshal(httpGet(t, base+"/v1/runtime"), &trend); err != nil {
			t.Fatal(err)
		}
		return trend.IntervalSeconds > 0 && len(trend.Samples) >= 3 &&
			trend.Samples[0].HeapLiveBytes > 0 && trend.Samples[0].Goroutines > 0
	}, "runtime trend never accumulated samples")

	// The sampler also exports the qlecd_runtime_* gauge family.
	metrics := string(httpGet(t, base+"/metrics"))
	for _, name := range []string{
		"qlecd_runtime_heap_live_bytes",
		"qlecd_runtime_goroutines",
		"qlecd_runtime_sched_latency_seconds",
		"qlecd_runtime_gc_pause_seconds",
	} {
		if !strings.Contains(metrics, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
}

// TestFleetCostFederation is the attribution headline: after a sweep
// runs across a 3-daemon fleet, the federated qlecd_job_*_total
// counters equal the per-peer sums — cost counted once, where the
// cells actually executed — and the coordinator's job record bills the
// whole sweep.
func TestFleetCostFederation(t *testing.T) {
	req := service.Request{
		Kind:      service.KindFig3,
		Config:    fleetSweepCfg(),
		Protocols: []experiment.ProtocolID{experiment.QLEC},
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
	done, err := n1.cl.Wait(ctx, j.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != service.StateDone {
		t.Fatalf("fleet job %s (error %q), want done", done.State, done.Error)
	}
	if done.Resources == nil || done.Resources.AllocBytes == 0 {
		t.Fatalf("distributed sweep job resources = %+v, want the summed cell bills", done.Resources)
	}

	for _, name := range []string{"qlecd_job_alloc_bytes_total", "qlecd_job_cpu_seconds_total"} {
		perPeer := 0.0
		series := 0
		for _, n := range nodes {
			exp, err := obs.ParseExposition(bytes.NewReader(httpGet(t, n.url+"/metrics")))
			if err != nil {
				t.Fatal(err)
			}
			f := exp.Family(name)
			if f == nil {
				continue
			}
			for _, s := range f.Samples {
				if s.Label("kind") == "cell" && s.Label("protocol") != string(experiment.QLEC) {
					t.Errorf("%s cell sample under protocol %q, want %s", name, s.Label("protocol"), experiment.QLEC)
				}
				perPeer += s.Value
				series++
			}
		}
		fexp, err := obs.ParseExposition(bytes.NewReader(httpGet(t, n1.url+"/metrics/federate")))
		if err != nil {
			t.Fatal(err)
		}
		fed := 0.0
		if f := fexp.Family(name); f != nil {
			for _, s := range f.Samples {
				fed += s.Value
			}
		}
		if math.Abs(fed-perPeer) > 1e-9*math.Max(1, math.Abs(perPeer)) {
			t.Errorf("federated %s = %g, per-peer sum = %g, want equal", name, fed, perPeer)
		}
		if name == "qlecd_job_alloc_bytes_total" && (perPeer <= 0 || series == 0) {
			t.Errorf("per-peer %s sum = %g over %d series, want positive (cells executed somewhere)", name, perPeer, series)
		}
	}
}

// TestFleetProfileCapture: one capture request with fleet=true
// snapshots every ready daemon; the merged listing shows artifacts
// held on distinct instances.
func TestFleetProfileCapture(t *testing.T) {
	n1 := startFleetNode(t, service.Options{Workers: 1}, service.FleetOptions{})
	n2 := startFleetNode(t, service.Options{Workers: 1}, service.FleetOptions{Join: n1.url})
	waitForRoster(t, n1, n2)

	var resp struct {
		Profiles []prof.Artifact   `json:"profiles"`
		Errors   map[string]string `json:"errors"`
	}
	httpPostJSON(t, n1.url+"/v1/profiles",
		map[string]any{"kind": "goroutine", "fleet": true}, &resp)
	if len(resp.Errors) > 0 {
		t.Fatalf("fleet capture errors: %v", resp.Errors)
	}
	instances := map[string]bool{}
	for _, a := range resp.Profiles {
		if a.SizeBytes == 0 {
			t.Errorf("empty capture %s on %s", a.ID, a.Instance)
		}
		instances[a.Instance] = true
	}
	if len(instances) < 2 {
		t.Fatalf("fleet capture reached %d instances (%v), want >= 2", len(instances), instances)
	}

	var list []prof.Artifact
	if err := json.Unmarshal(httpGet(t, n1.url+"/v1/profiles?fleet=1"), &list); err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, a := range list {
		listed[a.Instance] = true
	}
	if len(listed) < 2 {
		t.Errorf("merged listing covers %d instances (%v), want >= 2", len(listed), listed)
	}
	// And the remote artifact is fetchable from the daemon that holds it.
	for _, a := range resp.Profiles {
		if a.Instance == n2.url {
			requireGoroutineProfile(t, httpGet(t, n2.url+"/v1/profiles/"+a.ID))
		}
	}
}
