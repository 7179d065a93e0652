package main

import (
	"sync"
	"time"

	"qlec/internal/metrics"
)

// simLayers accumulates the traced simulation runs of a workload —
// protocol calls, builds, kernel self time and per-leg wall time — and
// turns them into per-layer metrics.
type simLayers struct {
	mu      sync.Mutex
	proto   map[string]*protoLayer // by protocol id
	legs    map[string]*timing     // "<protocol>.<fixed|lifespan>" wall time
	simSelf time.Duration
	rounds  int64
	packets int64
	runs    int64
	network timing
	synth   timing
	busy    []float64 // runner busy share per parallel map
	tails   []float64 // runner tail seconds per parallel map
}

type protoLayer struct {
	clk   protoClock
	build timing
	runs  int64
}

func newSimLayers() *simLayers {
	return &simLayers{proto: map[string]*protoLayer{}, legs: map[string]*timing{}}
}

// add folds one traced run of protocol id into the totals; leg names
// the Figure 3 leg ("fixed" or "lifespan"), empty for other runs.
func (l *simLayers) add(id, leg string, res *metrics.Result, st runStats) {
	l.mu.Lock()
	defer l.mu.Unlock()
	p := l.proto[id]
	if p == nil {
		p = &protoLayer{}
		l.proto[id] = p
	}
	p.clk.start.merge(st.clk.start)
	p.clk.next.merge(st.clk.next)
	p.clk.outcome.merge(st.clk.outcome)
	p.clk.end.merge(st.clk.end)
	p.build.add(st.build)
	p.runs++
	if leg != "" {
		k := id + "." + leg
		if l.legs[k] == nil {
			l.legs[k] = &timing{}
		}
		l.legs[k].add(st.wall)
	}
	l.simSelf += st.simSelf
	l.rounds += int64(res.Rounds)
	l.packets += int64(res.Generated)
	l.runs++
	l.network.add(st.network)
	if st.synth > 0 {
		l.synth.add(st.synth)
	}
}

// addMap records one runner.Map call's schedule: per-job start and end
// offsets from the call's start, and the worker count. Busy share is
// job time over workers × makespan; the tail is the makespan left after
// the first worker ran out of jobs, which happens at the first job end
// after the last job started.
func (l *simLayers) addMap(starts, ends []time.Duration, workers int) {
	var busy, makespan, lastStart time.Duration
	for i := range starts {
		busy += ends[i] - starts[i]
		makespan = max(makespan, ends[i])
		lastStart = max(lastStart, starts[i])
	}
	firstIdle := makespan
	for _, e := range ends {
		if e > lastStart && e < firstIdle {
			firstIdle = e
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.busy = append(l.busy, float64(busy)/(float64(workers)*float64(makespan)))
	l.tails = append(l.tails, (makespan - firstIdle).Seconds())
}

// report writes the simulation per-layer metrics into r.
func (l *simLayers) report(r *run) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.rounds > 0 {
		r.setLayer("sim.round_self_s", l.simSelf.Seconds()/float64(l.rounds))
		r.setLayer("sim.rounds", float64(l.rounds)/float64(l.runs))
	}
	if l.packets > 0 {
		r.setLayer("sim.ns_per_packet", float64(l.simSelf.Nanoseconds())/float64(l.packets))
		r.setLayer("sim.packets", float64(l.packets)/float64(l.runs))
	}
	if q := l.proto["QLEC"]; q != nil {
		r.setLayer("core.start_round_s", q.clk.start.meanSeconds())
		r.setLayer("core.end_round_s", q.clk.end.meanSeconds())
		r.setLayer("qlearn.decide_ns", q.clk.next.meanSeconds()*1e9)
		r.setLayer("qlearn.decide_calls", float64(q.clk.next.n)/float64(q.runs))
		r.setLayer("qlearn.observe_ns", q.clk.outcome.meanSeconds()*1e9)
		r.setLayer("core.build_s", q.build.meanSeconds())
	}
	if p := l.proto["FCM"]; p != nil {
		r.setLayer("fcm.start_round_s", p.clk.start.meanSeconds())
	}
	if p := l.proto["k-means"]; p != nil {
		r.setLayer("kmeans.start_round_s", p.clk.start.meanSeconds())
	}
	for k, t := range l.legs {
		r.setLayer("cell_s."+k, t.meanSeconds())
	}
	if len(l.busy) > 0 {
		r.setLayer("runner.busy_share", mean(l.busy))
		r.setLayer("runner.tail_s", mean(l.tails))
	}
	r.setLayer("network.build_s", l.network.meanSeconds())
	r.setLayer("dataset.synth_s", l.synth.meanSeconds())
}
