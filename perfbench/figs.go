package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"qlec/internal/core"
	"qlec/internal/dataset"
	"qlec/internal/experiment"
	"qlec/internal/metrics"
	"qlec/internal/network"
	"qlec/internal/plot"
	"qlec/internal/rng"
	"qlec/internal/runner"
)

// timedMap is runner.Map with each job's start and end recorded as
// offsets from the call's start.
func timedMap[T any](ctx context.Context, n, workers int, fn func(context.Context, int) (T, error)) ([]T, []time.Duration, []time.Duration, error) {
	starts := make([]time.Duration, n)
	ends := make([]time.Duration, n)
	t0 := time.Now()
	out, err := runner.Map(ctx, n, runner.Options{Workers: workers}, func(ctx context.Context, i int) (T, error) {
		starts[i] = time.Since(t0)
		v, err := fn(ctx, i)
		ends[i] = time.Since(t0)
		return v, err
	})
	return out, starts, ends, err
}

// checkCell applies the any-seed invariants to one Figure 3 cell.
func checkCell(c experiment.Config, s experiment.CellSpec, o experiment.CellOutcome) error {
	budget := float64(c.N) * float64(c.InitialEnergy)
	switch {
	case !(o.PDR >= 0 && o.PDR <= 1):
		return fmt.Errorf("%s λ=%v seed=%d: PDR %v outside [0,1]", s.Protocol, s.Lambda, s.Seed, o.PDR)
	case !(o.EnergyJ >= 0 && o.EnergyJ <= budget):
		return fmt.Errorf("%s λ=%v seed=%d: energy %v J outside [0, N·E0=%v]", s.Protocol, s.Lambda, s.Seed, o.EnergyJ, budget)
	case !(o.Lifespan >= 1 && o.Lifespan <= float64(c.LifespanMaxRounds)):
		return fmt.Errorf("%s λ=%v seed=%d: lifespan %v outside [1,%d]", s.Protocol, s.Lambda, s.Seed, o.Lifespan, c.LifespanMaxRounds)
	}
	return nil
}

// checkResult applies the any-seed invariants to one simulation result.
func checkResult(res *metrics.Result, budget float64) error {
	switch {
	case res == nil:
		return fmt.Errorf("no result")
	case res.Delivered > res.Generated:
		return fmt.Errorf("%s: delivered %d > generated %d", res.Protocol, res.Delivered, res.Generated)
	case !(res.PDR() >= 0 && res.PDR() <= 1):
		return fmt.Errorf("%s: PDR %v outside [0,1]", res.Protocol, res.PDR())
	case !(float64(res.TotalEnergy) >= 0 && float64(res.TotalEnergy) <= budget):
		return fmt.Errorf("%s: energy %v J outside [0, %v]", res.Protocol, res.TotalEnergy, budget)
	}
	return nil
}

// goldenEqual reports whether write's output is byte-identical to the
// committed file figs/<name>.
func (r *run) goldenEqual(name string, write func(io.Writer) error) error {
	want, err := os.ReadFile(filepath.Join(r.root, "figs", name))
	if err != nil {
		return err
	}
	var got bytes.Buffer
	if err := write(&got); err != nil {
		return err
	}
	if !bytes.Equal(got.Bytes(), want) {
		return fmt.Errorf("figs/%s differs from the regenerated output", name)
	}
	return nil
}

// fig3Sweep is one Figure 3 sweep of a run: its configuration (with
// its own seed set), its cells, and its assembled result's JSON.
type fig3Sweep struct {
	cfg    experiment.Config
	specs  []experiment.CellSpec
	result []byte
}

// runFig3Paper is the fig3-paper workload: the paper's Figure 3 sweep
// (QLEC, FCM, k-means × λ{8,4,2,1} × 5 seeds, each cell a fixed-R leg
// plus a lifespan leg) with nproc workers, repeated with a fresh seed
// set each sweep. Each sweep runs the cells RunFig3 derives through the
// same runner and assembly, so every cell is timed; at the default seed
// the first sweep uses the paper's seeds and must equal both RunFig3
// and the committed figures.
func runFig3Paper(ctx context.Context, r *run) error {
	ids := experiment.PaperProtocols()
	nextSeeds := seedSets(r.seed, "fig3", 5, experiment.PaperConfig().Seeds)
	newSweep := func() (fig3Sweep, error) {
		cfg := experiment.PaperConfig()
		cfg.Seeds = nextSeeds()
		cfg.Workers = r.nproc
		specs, err := cfg.Fig3Cells(ids)
		return fig3Sweep{cfg: cfg, specs: specs}, err
	}
	next, err := newSweep()
	if err != nil {
		return err
	}
	_, err = r.setupMedian(func() (func() error, error) {
		specs, err := next.cfg.Fig3Cells(ids)
		if err != nil {
			return nil, err
		}
		// Warm-up: the first cell's fixed-round leg, so code and heap are
		// hot before timing. The lifespan leg is left out: it runs until
		// the first death, which takes a different time for every seed.
		s := specs[0]
		_, err = s.Config.RunOne(ctx, s.Protocol, s.Lambda, s.Seed, false)
		return nil, err
	})
	if err != nil {
		return err
	}
	// run executes one sweep's cells through runCell and assembles them.
	run := func(ctx context.Context, sw *fig3Sweep, runCell func(context.Context, experiment.CellSpec) (experiment.CellOutcome, error)) ([]time.Duration, []time.Duration, error) {
		outs, starts, ends, err := timedMap(ctx, len(sw.specs), sw.cfg.Workers, func(ctx context.Context, i int) (experiment.CellOutcome, error) {
			return runCell(ctx, sw.specs[i])
		})
		if err != nil {
			return nil, nil, err
		}
		for i, o := range outs {
			r.op(checkCell(sw.cfg, sw.specs[i], o))
		}
		res, err := experiment.AssembleFig3(ids, sw.cfg.Lambdas, sw.cfg.Seeds, outs)
		if err != nil {
			return nil, nil, err
		}
		sw.result, err = json.Marshal(res)
		return starts, ends, err
	}
	untraced, traced := r.phases()

	var sweeps []fig3Sweep
	var cellTimes []float64
	var wall time.Duration
	u0 := readUsage()
	for t0 := time.Now(); len(sweeps) == 0 || time.Since(t0) < untraced; {
		if len(sweeps) > 0 {
			if next, err = newSweep(); err != nil {
				return err
			}
		}
		s0 := time.Now()
		starts, ends, err := run(ctx, &next, func(ctx context.Context, s experiment.CellSpec) (experiment.CellOutcome, error) {
			return s.Run(ctx)
		})
		wall += time.Since(s0)
		if err != nil {
			return err
		}
		for i := range starts {
			cellTimes = append(cellTimes, (ends[i] - starts[i]).Seconds())
		}
		sweeps = append(sweeps, next)
	}
	cells := len(cellTimes)
	r.setPerCell(readUsage().since(u0), cells)
	r.setE2E("cells_per_s", float64(cells)/wall.Seconds())
	r.addReport("cells_per_s", float64(cells)/wall.Seconds(), "1/s", cells,
		"N=100, 60 cells per sweep, each a fixed-R leg plus a lifespan leg, fresh seeds per sweep")
	r.reportLatency("cell_s", cellTimes)
	r.addReport("cell_s_mean", mean(cellTimes), "s", cells, "")

	if r.seed == defaultSeed {
		// RunFig3 itself must produce what its decomposition produced,
		// and regenerate the committed figures.
		first := sweeps[0]
		res, err := first.cfg.RunFig3(ctx, ids)
		if err != nil {
			return err
		}
		b, err := json.Marshal(res)
		if err != nil {
			return err
		}
		r.check(bytes.Equal(b, first.result), "RunFig3 disagrees with its cells assembled through AssembleFig3")
		r.op(r.goldenFig3(res))
	}

	if traced > 0 {
		layers := newSimLayers()
		var tracedCells []float64
		tr := newTracer(r.seed)
		// Traced sweeps rerun the untraced sweeps' seed sets in order and
		// must reproduce their results byte for byte.
		for i, t0 := 0, time.Now(); i == 0 || time.Since(t0) < traced; i++ {
			sw := sweeps[i%len(sweeps)]
			want := sw.result
			starts, ends, err := run(ctx, &sw, func(ctx context.Context, s experiment.CellSpec) (experiment.CellOutcome, error) {
				return tracedCell(ctx, tr, layers, s)
			})
			if err != nil {
				return err
			}
			layers.addMap(starts, ends, sw.cfg.Workers)
			for k := range starts {
				tracedCells = append(tracedCells, (ends[k] - starts[k]).Seconds())
			}
			r.check(bytes.Equal(sw.result, want), "the traced Figure 3 sweep differs from the untraced one")
		}
		probe, err := buildAllocProbe(sweeps[0].cfg, experiment.QLEC)
		if err != nil {
			return err
		}
		r.setLayer("core.build_alloc_mb", probe)
		layers.report(r)
		r.setLayer("trace_overhead", mean(tracedCells)/mean(cellTimes))
		if err := r.writeTrace(tr); err != nil {
			return err
		}
	}
	return nil
}

// goldenFig3 compares the three Figure 3 panels with figs/fig3{a,b,c}.csv.
func (r *run) goldenFig3(res []experiment.SweepResult) error {
	for _, p := range []struct {
		file  string
		chart func([]experiment.SweepResult) (*plot.Chart, error)
	}{
		{"fig3a.csv", experiment.Fig3aChart},
		{"fig3b.csv", experiment.Fig3bChart},
		{"fig3c.csv", experiment.Fig3cChart},
	} {
		ch, err := p.chart(res)
		if err != nil {
			return err
		}
		if err := r.goldenEqual(p.file, ch.WriteCSV); err != nil {
			return err
		}
	}
	return nil
}

// tracedCell runs one Figure 3 cell as two traced legs under one span.
func tracedCell(ctx context.Context, tr *tracer, layers *simLayers, s experiment.CellSpec) (experiment.CellOutcome, error) {
	id := tr.newSpanID()
	t0 := time.Now()
	var legs [2]*metrics.Result
	for i, leg := range []string{"fixed", "lifespan"} {
		l0 := time.Now()
		res, st, err := runLegTraced(ctx, s.Config, s.Protocol, s.Lambda, s.Seed, leg == "lifespan")
		if err != nil {
			return experiment.CellOutcome{}, err
		}
		legs[i] = res
		layers.add(string(s.Protocol), leg, res, st)
		tr.span("", id, leg+" leg", "sim", l0, l0.Add(st.wall), map[string]any{
			"build_us": st.build.Microseconds(), "sim_self_us": st.simSelf.Microseconds(),
			"start_round_us": st.clk.start.ns / 1e3, "next_hop_us": st.clk.next.ns / 1e3,
			"next_hop_calls": st.clk.next.n, "rounds": res.Rounds, "packets": res.Generated,
		})
	}
	tr.span(id, "", fmt.Sprintf("cell %s λ=%v seed=%d", s.Protocol, s.Lambda, s.Seed), "cell", t0, time.Now(), nil)
	return cellOutcome(legs[0], legs[1]), nil
}

// buildAllocProbe measures the heap bytes one protocol build allocates,
// in MB, with nothing else running, on the deployment of the first
// seed.
func buildAllocProbe(cfg experiment.Config, id experiment.ProtocolID) (float64, error) {
	w, err := network.Deploy(network.Deployment{N: cfg.N, Side: cfg.Side, InitialEnergy: cfg.InitialEnergy},
		rng.NewNamed(cfg.Seeds[0], "experiment/deploy"))
	if err != nil {
		return 0, err
	}
	a0 := allocBytes()
	if _, err := cfg.BuildProtocol(id, w, cfg.Rounds, 0, cfg.Seeds[0]); err != nil {
		return 0, err
	}
	return float64(allocBytes()-a0) / 1e6, nil
}

func (r *run) writeTrace(tr *tracer) error {
	path, err := tr.write(filepath.Dir(r.scratch), r.workload, r.seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: trace written to %s\n", path)
	return nil
}

// fig4Call is one RunFig4 call of a run: its replicate seeds and its
// primary replicate's result.
type fig4Call struct {
	cfg     experiment.Fig4Config
	primary []byte // the primary replicate's metrics.Result JSON
}

// runFig4Large is the fig4-large workload: the paper's large-scale
// experiment (2896 synthetic nodes, K=272, QLEC for 20 rounds) with
// nproc fresh replicate seeds per RunFig4 call on nproc workers, so
// every replicate starts with the call and its completion time is its
// wall time. At the default seed the first call's primary replicate is
// the paper's and must reproduce the committed figure.
func runFig4Large(ctx context.Context, r *run) error {
	nextSeeds := seedSets(r.seed, "fig4", r.nproc, fig4PaperSeeds(r.nproc))
	newCall := func() fig4Call {
		cfg := experiment.PaperFig4Config()
		cfg.Seeds = nextSeeds()
		cfg.Workers = r.nproc
		return fig4Call{cfg: cfg}
	}
	next := newCall()
	_, err := r.setupMedian(func() (func() error, error) {
		// Warm-up: synthesize the primary replicate's dataset and build
		// its network.
		_, err := fig4Network(next.cfg, next.cfg.Seeds[0], nil)
		return nil, err
	})
	if err != nil {
		return err
	}
	untraced, traced := r.phases()
	var calls []fig4Call
	var cellTimes []float64
	var wall time.Duration
	u0 := readUsage()
	for t0 := time.Now(); len(calls) == 0 || time.Since(t0) < untraced; {
		if len(calls) > 0 {
			next = newCall()
		}
		c := next.cfg
		s0 := time.Now()
		c.Progress = func(done, total int) { cellTimes = append(cellTimes, time.Since(s0).Seconds()) }
		res, err := experiment.RunFig4(ctx, c)
		wall += time.Since(s0)
		if err != nil {
			return err
		}
		r.op(checkFig4(res))
		if next.primary, err = json.Marshal(res.Run); err != nil {
			return err
		}
		if len(calls) == 0 && r.seed == defaultSeed {
			r.op(r.goldenEqual("fig4.csv", experiment.Fig4Heatmap(res, 72, 24).WriteCSV))
		}
		calls = append(calls, next)
	}
	cells := len(cellTimes)
	r.setPerCell(readUsage().since(u0), cells)
	r.setE2E("cells_per_s", float64(cells)/wall.Seconds())
	r.addReport("cells_per_s", float64(cells)/wall.Seconds(), "1/s", cells,
		"one cell = one 2896-node, K=272, 20-round QLEC replicate, fresh seeds per call")
	r.addReport("cell_s_p50", median(cellTimes), "s", cells, "too few samples for a tail percentile")
	r.addReport("cell_s_mean", mean(cellTimes), "s", cells, "")

	if traced > 0 {
		layers := newSimLayers()
		tr := newTracer(r.seed)
		var tracedCells []float64
		// Traced calls rerun the untraced calls' seeds in order; each
		// primary replicate must reproduce its untraced result.
		for i, t0 := 0, time.Now(); i == 0 || time.Since(t0) < traced; i++ {
			call := calls[i%len(calls)]
			cfg := call.cfg
			outs, starts, ends, err := timedMap(ctx, len(cfg.Seeds), cfg.Workers, func(ctx context.Context, i int) (*metrics.Result, error) {
				res, st, err := runFig4Traced(ctx, cfg, cfg.Seeds[i])
				if err != nil {
					return nil, err
				}
				layers.add(string(experiment.QLEC), "", res, st)
				end := time.Now()
				tr.span("", "", fmt.Sprintf("replicate seed=%d", cfg.Seeds[i]), "cell", end.Add(-st.wall), end, map[string]any{
					"synth_us": st.synth.Microseconds(), "network_us": st.network.Microseconds(),
					"build_us": st.build.Microseconds(), "sim_self_us": st.simSelf.Microseconds(),
					"decide_calls": st.clk.next.n, "decide_us": st.clk.next.ns / 1e3,
				})
				return res, nil
			})
			if err != nil {
				return err
			}
			layers.addMap(starts, ends, cfg.Workers)
			for _, e := range ends {
				tracedCells = append(tracedCells, e.Seconds())
			}
			b, err := json.Marshal(outs[0])
			if err != nil {
				return err
			}
			r.check(bytes.Equal(b, call.primary), "the traced Figure 4 primary replicate differs from the untraced one")
		}
		probe, err := fig4BuildAllocProbe(calls[0].cfg)
		if err != nil {
			return err
		}
		r.setLayer("core.build_alloc_mb", probe)
		layers.report(r)
		r.setLayer("trace_overhead", mean(tracedCells)/mean(cellTimes))
		if err := r.writeTrace(tr); err != nil {
			return err
		}
	}
	return nil
}

// fig4Network synthesizes the dataset of one replicate seed and builds
// its network, as RunFig4 does. A non-nil st gets the two steps' times.
func fig4Network(cfg experiment.Fig4Config, seed uint64, st *runStats) (*network.Network, error) {
	t0 := time.Now()
	synth := cfg.Synth
	synth.Seed = seed
	ds, err := dataset.Synthesize(synth)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	w, err := network.FromPositions(ds.Positions, ds.Energies, ds.Box, ds.BS)
	if st != nil {
		st.synth, st.network = t1.Sub(t0), time.Since(t1)
	}
	return w, err
}

// fig4Core is the QLEC configuration RunFig4 builds for one replicate.
func fig4Core(cfg experiment.Fig4Config, w *network.Network, seed uint64) core.Config {
	k := cfg.K
	if k == 0 {
		k = core.AutoK(w, cfg.Model)
	}
	qc := core.DefaultConfig(cfg.Rounds)
	qc.K = k
	qc.Bits = cfg.Sim.Bits
	qc.Seed = seed
	return qc
}

// fig4BuildAllocProbe measures the heap bytes core.New allocates for
// the primary replicate, in MB, with nothing else running.
func fig4BuildAllocProbe(cfg experiment.Fig4Config) (float64, error) {
	w, err := fig4Network(cfg, cfg.Seeds[0], nil)
	if err != nil {
		return 0, err
	}
	qc := fig4Core(cfg, w, cfg.Seeds[0])
	a0 := allocBytes()
	if _, err := core.New(w, cfg.Model, qc); err != nil {
		return 0, err
	}
	return float64(allocBytes()-a0) / 1e6, nil
}

// checkFig4 applies the any-seed invariants to a Figure 4 result.
func checkFig4(res *experiment.Fig4Result) error {
	if err := checkResult(res.Run, float64(res.Net.InitialTotalEnergy())); err != nil {
		return err
	}
	for _, v := range []float64{res.BinnedCV, res.Gini, res.MoranI} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("fig4: evenness statistic %v not finite", v)
		}
	}
	return nil
}
