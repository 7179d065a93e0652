package prof

import (
	"bytes"
	"compress/gzip"
	"context"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"qlec/internal/obs"
)

// sink defeats dead-allocation elimination in bracket tests.
var sink [][]byte

func TestBracketMeasuresAllocsAndCPU(t *testing.T) {
	b := Begin()
	sink = sink[:0]
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 64*1024))
	}
	// Burn a little CPU so getrusage moves even on a fast box.
	x := 0
	deadline := time.Now().Add(30 * time.Millisecond)
	for time.Now().Before(deadline) {
		x++
	}
	u := b.End()
	_ = x
	if u.AllocBytes < 64*64*1024 {
		t.Fatalf("AllocBytes = %d, want >= %d", u.AllocBytes, 64*64*1024)
	}
	if u.WallSeconds <= 0 {
		t.Fatalf("WallSeconds = %v, want > 0", u.WallSeconds)
	}
	if runtime.GOOS == "linux" && u.CPUSeconds <= 0 {
		t.Fatalf("CPUSeconds = %v, want > 0 on linux", u.CPUSeconds)
	}
	// A closed bracket returns zero on re-End.
	if again := b.End(); !again.IsZero() {
		t.Fatalf("second End() = %+v, want zero", again)
	}
}

func TestUsageAddAndIsZero(t *testing.T) {
	var u Usage
	if !u.IsZero() {
		t.Fatal("zero Usage should report IsZero")
	}
	u.Add(Usage{CPUSeconds: 1, WallSeconds: 2, AllocBytes: 3, PeakHeapDelta: 4, GCCount: 5})
	u.Add(Usage{CPUSeconds: 1, AllocBytes: 7})
	if u.CPUSeconds != 2 || u.WallSeconds != 2 || u.AllocBytes != 10 ||
		u.PeakHeapDelta != 4 || u.GCCount != 5 {
		t.Fatalf("after Add: %+v", u)
	}
	if u.IsZero() {
		t.Fatal("non-zero Usage should not report IsZero")
	}
}

func TestStoreFIFOCap(t *testing.T) {
	reg := obs.NewRegistry()
	st := NewStore(3, reg)
	var ids []string
	for i := 0; i < 5; i++ {
		a := st.Add(&Artifact{Kind: "heap", Reason: "manual",
			Data: []byte{byte(i)}})
		ids = append(ids, a.ID)
	}
	if st.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (FIFO cap)", st.Len())
	}
	if st.Get(ids[0]) != nil || st.Get(ids[1]) != nil {
		t.Fatal("oldest artifacts should have been evicted")
	}
	if got := st.Get(""); got == nil || got.ID != ids[4] {
		t.Fatalf("Get(\"\") = %v, want newest %s", got, ids[4])
	}
	list := st.List()
	if len(list) != 3 || list[0].ID != ids[4] || list[2].ID != ids[2] {
		t.Fatalf("List order wrong: %+v", list)
	}
	for _, m := range list {
		if m.Data != nil {
			t.Fatal("List must omit payloads")
		}
		if m.SizeBytes != 1 {
			t.Fatalf("SizeBytes = %d, want 1", m.SizeBytes)
		}
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("exposition: %v", err)
	}
	if !strings.Contains(buf.String(), "qlecd_profiles_held 3") {
		t.Fatalf("exposition missing qlecd_profiles_held 3:\n%s", buf.String())
	}
}

// pprofBody gunzips a protobuf profile capture. Names — sample types,
// function names — sit verbatim in the protobuf string table, so a
// bytes.Contains on the result checks them without a decoder.
func pprofBody(t *testing.T, data []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("capture is not gzip-framed: %v", err)
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("gunzip capture: %v", err)
	}
	return body
}

func TestCaptureKinds(t *testing.T) {
	if _, err := Capture(context.Background(), "bogus", 0); err == nil {
		t.Fatal("expected error for invalid kind")
	}
	// An 8 MB allocation is sampled with near certainty at the default
	// MemProfileRate; the GC publishes it to the heap profile.
	sink = append(sink[:0], make([]byte, 8<<20))
	runtime.GC()
	heap, err := Capture(context.Background(), "heap", 0)
	if err != nil {
		t.Fatalf("heap capture: %v", err)
	}
	body := pprofBody(t, heap.Data)
	for _, want := range []string{"inuse_space", "alloc_space", "qlec/internal/prof.TestCaptureKinds"} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("heap capture lacks %q", want)
		}
	}
	gor, err := Capture(context.Background(), "goroutine", 0)
	if err != nil {
		t.Fatalf("goroutine capture: %v", err)
	}
	body = pprofBody(t, gor.Data)
	for _, want := range []string{"goroutine", "qlec/internal/prof.Capture"} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("goroutine capture lacks %q", want)
		}
	}
}

func TestCaptureCPU(t *testing.T) {
	a, err := Capture(context.Background(), "cpu", 150*time.Millisecond)
	if err != nil {
		t.Fatalf("cpu capture: %v", err)
	}
	if body := pprofBody(t, a.Data); !bytes.Contains(body, []byte("samples")) {
		t.Error("cpu capture lacks the samples sample type")
	}
	if a.DurationSeconds <= 0 {
		t.Fatalf("DurationSeconds = %v", a.DurationSeconds)
	}
}

func TestAutoCapturerDedupeAndRateLimit(t *testing.T) {
	reg := obs.NewRegistry()
	st := NewStore(8, reg)
	ac := NewAutoCapturer(context.Background(), st, reg, time.Hour)
	ac.SetCPUDuration(120 * time.Millisecond)
	if !ac.Trigger("scale-up") {
		t.Fatal("first trigger should start a capture")
	}
	if ac.Trigger("scale-up") {
		t.Fatal("second trigger within MinGap must be suppressed")
	}
	ac.Wait()
	// Same reason still rate-limited after completion.
	if ac.Trigger("scale-up") {
		t.Fatal("trigger after completion but within MinGap must be suppressed")
	}
	// A different reason is allowed once nothing is in flight.
	if !ac.Trigger("queue-slo-burn") {
		t.Fatal("different reason should capture")
	}
	ac.Wait()
	list := st.List()
	if len(list) != 4 {
		t.Fatalf("store has %d artifacts, want 4 (cpu+heap per trigger): %+v", len(list), list)
	}
	kinds := map[string]int{}
	for _, a := range list {
		kinds[a.Kind]++
		if a.Reason != "scale-up" && a.Reason != "queue-slo-burn" {
			t.Fatalf("unexpected reason %q", a.Reason)
		}
	}
	if kinds["cpu"] != 2 || kinds["heap"] != 2 {
		t.Fatalf("kind mix = %v", kinds)
	}
}

func TestSamplerRingAndPeak(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewSampler(reg, SamplerOptions{RingSize: 2})
	start := time.Now()
	s.SampleNow()
	sink = sink[:0]
	for i := 0; i < 32; i++ {
		sink = append(sink, make([]byte, 128*1024))
	}
	row := s.SampleNow()
	if row.HeapLiveBytes == 0 || row.Goroutines <= 0 {
		t.Fatalf("implausible sample: %+v", row)
	}
	if got := len(s.Trend()); got != 2 {
		t.Fatalf("ring len = %d, want 2", got)
	}
	s.SampleNow() // wraps
	if got := len(s.Trend()); got != 2 {
		t.Fatalf("ring len after wrap = %d, want 2", got)
	}
	if _, ok := s.PeakHeapSince(start); !ok {
		t.Fatal("PeakHeapSince should see samples taken after start")
	}
	if _, ok := s.PeakHeapSince(time.Now().Add(time.Hour)); ok {
		t.Fatal("PeakHeapSince in the future should report no samples")
	}
	var nilSampler *Sampler
	if _, ok := nilSampler.PeakHeapSince(start); ok {
		t.Fatal("nil sampler must report no samples")
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("exposition: %v", err)
	}
	for _, want := range []string{
		"qlecd_runtime_heap_live_bytes",
		"qlecd_runtime_goroutines",
		"qlecd_runtime_gc_cpu_fraction",
		"qlecd_runtime_sched_latency_seconds",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("exposition missing %s", want)
		}
	}
}

func TestSamplerStartStop(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewSampler(reg, SamplerOptions{Interval: 5 * time.Millisecond, RingSize: 16})
	s.Start()
	time.Sleep(30 * time.Millisecond)
	s.Stop()
	s.Stop() // idempotent
	if len(s.Trend()) == 0 {
		t.Fatal("background loop produced no samples")
	}
}
