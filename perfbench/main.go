// Command perfbench is the repository's benchmark of record. It runs one
// named workload for a fixed time, checks the program's outputs, and
// prints its metrics as one JSON object on the last line of standard
// output:
//
//	perfbench --workload fig3-paper --seed 1 --seconds 25 --trace 0
//
// The workload seed is the only input: every simulation seed, request
// schedule and batch config is derived from it, and the program under
// test receives only those generated inputs. --trace 0 reports the
// end-to-end metrics, measured untraced; --trace 1 runs the workload
// untraced and then traced (timing spans recorded from this package
// around the calls into each layer), and reports the per-layer metrics
// plus trace_overhead. Run it from the repository root, where the
// golden figs/*.csv live, through run.sh, which builds it first.
// README.md in this directory maps each per-layer metric to the
// end-to-end metric and workload it should move.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the metrics every workload reports with --trace 0, in
// BENCHMARK.json order. Each workload defines "cell" for itself; see
// README.md.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cells_per_s", "1/s"},
	{"alloc_mb_per_cell", "MB"},
	{"cpu_s_per_cell", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics every workload reports with --trace 1, in
// BENCHMARK.json order. A layer a workload never calls reads 0.
var perLayer = []struct{ name, unit string }{
	{"sim.round_self_s", "s"},
	{"sim.ns_per_packet", "ns"},
	{"sim.packets", "count"},
	{"sim.rounds", "count"},
	{"core.start_round_s", "s"},
	{"core.end_round_s", "s"},
	{"qlearn.decide_ns", "ns"},
	{"qlearn.decide_calls", "count"},
	{"qlearn.observe_ns", "ns"},
	{"core.build_s", "s"},
	{"core.build_alloc_mb", "MB"},
	{"fcm.start_round_s", "s"},
	{"kmeans.start_round_s", "s"},
	{"cell_s.QLEC.fixed", "s"},
	{"cell_s.QLEC.lifespan", "s"},
	{"cell_s.FCM.fixed", "s"},
	{"cell_s.FCM.lifespan", "s"},
	{"cell_s.k-means.fixed", "s"},
	{"cell_s.k-means.lifespan", "s"},
	{"runner.busy_share", "ratio"},
	{"runner.tail_s", "s"},
	{"dataset.synth_s", "s"},
	{"network.build_s", "s"},
	{"svc.submit_s.hit", "s"},
	{"svc.result_s", "s"},
	{"svc.result_bytes", "bytes"},
	{"svc.submit_s.miss", "s"},
	{"svc.queue_wait_s", "s"},
	{"svc.exec_s", "s"},
	{"svc.stream_s", "s"},
	{"svc.direct_s", "s"},
	{"svc.tax_s", "s"},
	{"svc.job_cpu_s", "s"},
	{"svc.job_alloc_mb", "MB"},
	{"svc.hit_ratio", "ratio"},
	{"svc.coalesced", "count"},
	{"svc.sweep_exec_s", "s"},
	{"loadgen.lag_s_p90", "s"},
	{"fleet.remote_share", "ratio"},
	{"fleet.steal_yield", "ratio"},
	{"fleet.steal_rtt_s", "s"},
	{"fleet.cell_wait_s", "s"},
	{"fleet.cache_put_s", "s"},
	{"fleet.lease_expiries", "count"},
	{"fleet.assemble_s", "s"},
	{"trace_overhead", "ratio"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(context.Context, *run) error{
	"fig3-paper":  runFig3Paper,
	"fig4-large":  runFig4Large,
	"qlecd-mix":   runQlecdMix,
	"fleet-batch": runFleetBatch,
}

// Each run sets its workload up at least setupMinRepeats times and
// until setupBudget has passed, at most setupMaxRepeats times; setup_s
// is the median. Set-ups that take milliseconds get many repeats, so
// their median holds still from run to run.
const (
	setupMinRepeats = 3
	setupMaxRepeats = 100
	setupBudget     = time.Second
)

// run is one benchmark invocation's state: its arguments, the
// operation/check tally and the metrics the workload fills in.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	root     string // checkout root: golden files are read from here
	scratch  string // writable scratch dir inside the checkout
	nproc    int

	mu        sync.Mutex
	attempted int
	failed    int
	e2e       map[string]metric
	layers    map[string]metric
	report    map[string]reportEntry
}

// reportEntry is one row of the human report line: the issue's
// workload-specific metrics, printed by name with unit and sample count.
type reportEntry struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Note  string  `json:"note,omitempty"`
}

// op counts one attempted operation; a non-nil err marks it failed and
// is logged to standard error.
func (r *run) op(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= 20 {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
		}
	}
}

// check counts one output check as an operation.
func (r *run) check(ok bool, format string, args ...any) {
	var err error
	if !ok {
		err = fmt.Errorf("check failed: "+format, args...)
	}
	r.op(err)
}

func (r *run) setE2E(name string, v float64) {
	r.e2e[name] = metric{Value: v, Unit: unitOf(endToEnd, name)}
}

// setLayer records a per-layer metric. A NaN, the median of no samples,
// is left unset, so a layer a run was too short to sample reads 0 like
// one the workload never calls.
func (r *run) setLayer(name string, v float64) {
	if !math.IsNaN(v) {
		r.layers[name] = metric{Value: v, Unit: unitOf(perLayer, name)}
	}
}

func (r *run) addReport(name string, v float64, unit string, n int, note string) {
	r.report[name] = reportEntry{Value: v, Unit: unit, N: n, Note: note}
}

// reportLatency adds a latency sample's median and highest supported
// tail percentile to the report line under base_p50 and base_p<pct>.
func (r *run) reportLatency(base string, xs []float64) {
	if len(xs) == 0 {
		return
	}
	r.addReport(base+"_p50", median(xs), "s", len(xs), "")
	if pct, v, n, ok := tail(xs); ok && pct > 50 {
		r.addReport(base+"_p"+strconv.FormatFloat(pct, 'f', -1, 64), v, "s", n, "")
	}
}

func unitOf(list []struct{ name, unit string }, name string) string {
	for _, m := range list {
		if m.name == name {
			return m.unit
		}
	}
	panic("perfbench: unregistered metric " + name)
}

// setupMedian runs setup repeatedly and records the median duration as
// setup_s. setup returns a stop function releasing what it built (nil
// when there is nothing to release). Every set-up but the last is
// stopped; the last one's stop is returned for the workload to call
// when it is done.
func (r *run) setupMedian(setup func() (func() error, error)) (func() error, error) {
	var ds []float64
	var total time.Duration
	var stop func() error
	for len(ds) < setupMinRepeats || (total < setupBudget && len(ds) < setupMaxRepeats) {
		if stop != nil {
			if err := stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if stop, err = setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0)
		total += d
		ds = append(ds, d.Seconds())
	}
	r.setE2E("setup_s", median(ds))
	if stop == nil {
		stop = func() error { return nil }
	}
	return stop, nil
}

// phases returns the measured durations: the whole run untraced, or
// half untraced and half traced with --trace 1.
func (r *run) phases() (untraced, traced time.Duration) {
	if !r.trace {
		return r.seconds, 0
	}
	return r.seconds / 2, r.seconds - r.seconds/2
}

// usage is what the process has consumed so far: heap bytes allocated
// and CPU time, user plus system. The kernel leaves time stolen by the
// hypervisor out of a process's CPU time, so on a shared host
// cpu_s_per_cell does not count it where wall times do.
type usage struct {
	alloc uint64
	cpu   time.Duration
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("perfbench: getrusage: " + err.Error())
	}
	return usage{alloc: allocBytes(), cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
}

// since is what the process consumed after u0.
func (u usage) since(u0 usage) usage {
	return usage{alloc: u.alloc - u0.alloc, cpu: u.cpu - u0.cpu}
}

// setPerCell records alloc_mb_per_cell and cpu_s_per_cell from what the
// process consumed over n cells.
func (r *run) setPerCell(used usage, n int) {
	r.setE2E("alloc_mb_per_cell", float64(used.alloc)/float64(n)/1e6)
	r.setE2E("cpu_s_per_cell", used.cpu.Seconds()/float64(n))
}

// allocBytes is the process's cumulative heap allocation.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	fh, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, errors.New("VmHWM not found in /proc/self/status")
}

func main() {
	workload := flag.String("workload", "", "workload to run: fig3-paper, fig4-large, qlecd-mix or fleet-batch")
	seed := flag.Uint64("seed", defaultSeed, "workload seed; all inputs derive from it (the golden figure checks apply at the default)")
	seconds := flag.Int("seconds", 25, "how long the measured phase runs")
	trace := flag.Int("trace", 0, "1 = also run traced and report per-layer metrics instead of end-to-end ones")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <fig3-paper|fig4-large|qlecd-mix|fleet-batch> [--seed N] [--seconds S] [--trace 0|1]")
		os.Exit(2)
	}
	if err := benchmark(*workload, fn, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
}

func benchmark(workload string, fn func(context.Context, *run) error, seed uint64, seconds time.Duration, trace bool) error {
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(root, "figs")); err != nil {
		return fmt.Errorf("run from the repository root (golden figures): %w", err)
	}
	r := &run{
		workload: workload, seed: seed, seconds: seconds, trace: trace,
		root:    root,
		scratch: filepath.Join(root, ".bench_build", "perfbench", "tmp"),
		nproc:   runtime.GOMAXPROCS(0),
		e2e:     map[string]metric{}, layers: map[string]metric{}, report: map[string]reportEntry{},
	}
	if err := os.MkdirAll(r.scratch, 0o755); err != nil {
		return err
	}
	if err := fn(context.Background(), r); err != nil {
		return err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.setE2E("peak_rss_mb", rss)
	want := endToEnd
	got := r.e2e
	if trace {
		want, got = perLayer, r.layers
		for _, m := range perLayer {
			if _, ok := got[m.name]; !ok {
				got[m.name] = metric{Value: 0, Unit: m.unit}
			}
		}
	}
	out := make(map[string]metric, len(want))
	for _, m := range want {
		v, ok := got[m.name]
		if !ok {
			return fmt.Errorf("workload did not measure %s", m.name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, v.Value)
		}
		out[m.name] = v
	}
	r.addReport("fail_ratio", float64(r.failed)/float64(max(r.attempted, 1)), "ratio", r.attempted, "")
	rep, err := json.Marshal(struct {
		Workload string                 `json:"workload"`
		Seed     uint64                 `json:"seed"`
		Trace    bool                   `json:"trace"`
		Report   map[string]reportEntry `json:"report"`
	}{workload, seed, trace, r.report})
	if err != nil {
		return err
	}
	last, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(rep))
	fmt.Println(string(last))
	return nil
}
