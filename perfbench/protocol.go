package main

import (
	"context"
	"fmt"
	"time"

	"qlec/internal/cluster"
	"qlec/internal/core"
	"qlec/internal/energy"
	"qlec/internal/experiment"
	"qlec/internal/metrics"
	"qlec/internal/network"
	"qlec/internal/qlearn"
	"qlec/internal/rng"
	"qlec/internal/sim"
)

// protoClock times the calls the engine makes into one protocol
// instance. It is owned by a single run (protocols are called from one
// goroutine), so it needs no locking.
type protoClock struct {
	start, next, outcome, end timing
}

func (c *protoClock) totalNS() int64 {
	return c.start.ns + c.next.ns + c.outcome.ns + c.end.ns
}

// tracedProtocol times every cluster.Protocol call. For QLEC, NextHop
// is the qlearn Decide boundary and OnOutcome the Observe boundary.
type tracedProtocol struct {
	inner cluster.Protocol
	clk   *protoClock
}

func (p *tracedProtocol) Name() string { return p.inner.Name() }

func (p *tracedProtocol) StartRound(round int) []int {
	t0 := time.Now()
	heads := p.inner.StartRound(round)
	p.clk.start.add(time.Since(t0))
	return heads
}

func (p *tracedProtocol) NextHop(node int) int {
	t0 := time.Now()
	hop := p.inner.NextHop(node)
	p.clk.next.add(time.Since(t0))
	return hop
}

func (p *tracedProtocol) OnOutcome(node, target int, success bool) {
	t0 := time.Now()
	p.inner.OnOutcome(node, target, success)
	p.clk.outcome.add(time.Since(t0))
}

func (p *tracedProtocol) EndRound(round int) {
	t0 := time.Now()
	p.inner.EndRound(round)
	p.clk.end.add(time.Since(t0))
}

func (p *tracedProtocol) RelayMode() cluster.RelayMode { return p.inner.RelayMode() }

// learnerOf is the optional interface the experiment harness asserts to
// attach a flight recorder to a Q-learning protocol.
type learnerOf interface{ Learner() *qlearn.Learner }

// traceProtocol wraps inner so that the wrapper satisfies exactly the
// optional interfaces inner does — the engine and harness change
// behaviour on those type assertions, so a wrapper that added or hid
// one would change the simulation. The optional calls are forwarded
// untimed. Only the combinations the registered protocols have are
// built: QLEC's (GeometryInvalidator, QLearningStats, Learner), the
// static routers' (StaticRouter) and none (FCM); any other panics, and
// TestTracedProtocolForwardsOptionalInterfaces runs every protocol.
func traceProtocol(inner cluster.Protocol, clk *protoClock) cluster.Protocol {
	t := &tracedProtocol{inner: inner, clk: clk}
	g, isG := inner.(cluster.GeometryInvalidator)
	s, isS := inner.(cluster.StaticRouter)
	q, isQ := inner.(sim.QLearningStats)
	l, isL := inner.(learnerOf)
	switch {
	case isG && !isS && isQ && isL:
		// The alias names the embedded field Q: a field named
		// QLearningStats would shadow the method of that name.
		type Q = sim.QLearningStats
		return struct {
			*tracedProtocol
			cluster.GeometryInvalidator
			Q
			learnerOf
		}{t, g, q, l}
	case !isG && isS && !isQ && !isL:
		return struct {
			*tracedProtocol
			cluster.StaticRouter
		}{t, s}
	case !isG && !isS && !isQ && !isL:
		return t
	}
	panic(fmt.Sprintf("perfbench: traceProtocol: %s has an unhandled set of optional interfaces", inner.Name()))
}

// runStats is what a traced run measured at the layer boundaries.
type runStats struct {
	clk     protoClock
	build   time.Duration // BuildProtocol or core.New
	network time.Duration // network.Deploy or FromPositions
	synth   time.Duration // dataset.Synthesize (fig4 only)
	simSelf time.Duration // Engine.Step time outside protocol calls
	wall    time.Duration // the whole run, set-up included
}

// stepTraced drives an engine through Start/Step exactly as Engine.Run
// does, charging Step time not spent inside protocol calls to the sim
// kernel.
func stepTraced(ctx context.Context, eng *sim.Engine, rounds int, st *runStats) (*metrics.Result, error) {
	if err := eng.Start(rounds); err != nil {
		return nil, err
	}
	for {
		before := st.clk.totalNS()
		t0 := time.Now()
		snap, err := eng.Step(ctx)
		st.simSelf += time.Since(t0) - time.Duration(st.clk.totalNS()-before)
		if err != nil {
			return eng.Result(), err
		}
		if snap.Done {
			return eng.Result(), nil
		}
	}
}

// runLegTraced is one leg of a Figure 3 cell (fixed-R or lifespan) with
// the protocol wrapped in the timing decorator. It repeats the steps of
// experiment.Config.RunOne for the uniform-cube deployment through the
// public network, protocol and engine constructors; callers compare
// its result with RunOne's to prove the two paths agree.
func runLegTraced(ctx context.Context, c experiment.Config, id experiment.ProtocolID, lambda float64, seed uint64, lifespan bool) (*metrics.Result, runStats, error) {
	var st runStats
	t0 := time.Now()
	w, err := network.Deploy(network.Deployment{
		N: c.N, Side: c.Side, InitialEnergy: c.InitialEnergy,
		AdvancedFraction: c.AdvancedFraction, AdvancedFactor: c.AdvancedFactor,
		SuperFraction: c.SuperFraction, SuperFactor: c.SuperFactor,
	}, rng.NewNamed(seed, "experiment/deploy"))
	if err != nil {
		return nil, st, err
	}
	st.network = time.Since(t0)
	rounds := c.Rounds
	var deathLine energy.Joules
	scfg := c.Sim
	scfg.MeanInterArrival = lambda
	scfg.Seed = seed
	if lifespan {
		rounds = c.LifespanMaxRounds
		deathLine = c.LifespanDeathLine
		scfg.DeathLine = deathLine
		scfg.StopOnDeath = true
	}
	t1 := time.Now()
	proto, err := c.BuildProtocol(id, w, rounds, deathLine, seed)
	if err != nil {
		return nil, st, err
	}
	st.build = time.Since(t1)
	eng, err := sim.NewEngine(w, traceProtocol(proto, &st.clk), c.Model, scfg)
	if err != nil {
		return nil, st, err
	}
	res, err := stepTraced(ctx, eng, rounds, &st)
	st.wall = time.Since(t0)
	return res, st, err
}

// cellOutcome folds a cell's two legs into the outcome CellSpec.Run
// reports.
func cellOutcome(fixed, life *metrics.Result) experiment.CellOutcome {
	ls := life.Lifespan
	if ls == 0 { // survived the cap
		ls = life.Rounds
	}
	return experiment.CellOutcome{
		PDR:      fixed.PDR(),
		EnergyJ:  float64(fixed.TotalEnergy),
		Latency:  fixed.Latency.Mean,
		Access:   fixed.Access.Mean,
		Lifespan: float64(ls),
	}
}

// runFig4Traced is one Figure 4 replicate with QLEC wrapped in the
// timing decorator, through the same public steps RunFig4 takes:
// synthesize the dataset, build the network, core.New, run the engine.
func runFig4Traced(ctx context.Context, cfg experiment.Fig4Config, seed uint64) (*metrics.Result, runStats, error) {
	var st runStats
	t0 := time.Now()
	w, err := fig4Network(cfg, seed, &st)
	if err != nil {
		return nil, st, err
	}
	qc := fig4Core(cfg, w, seed)
	t2 := time.Now()
	proto, err := core.New(w, cfg.Model, qc)
	if err != nil {
		return nil, st, err
	}
	st.build = time.Since(t2)
	eng, err := sim.NewEngine(w, traceProtocol(proto, &st.clk), cfg.Model, cfg.Sim)
	if err != nil {
		return nil, st, err
	}
	res, err := stepTraced(ctx, eng, cfg.Rounds, &st)
	st.wall = time.Since(t0)
	return res, st, err
}
