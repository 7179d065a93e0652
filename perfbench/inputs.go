package main

import (
	"hash/fnv"
	"math/rand/v2"
	"slices"
	"time"

	"qlec/internal/experiment"
	"qlec/internal/service"
)

// defaultSeed is the workload seed the golden Figure 3/4 checks apply
// to: at it, fig3-paper runs the paper's seeds 1..5 and fig4-large's
// primary replicate runs the paper's dataset seed.
const defaultSeed = 1

// seedPool hands out distinct simulation seeds drawn from a stream
// keyed by the workload seed and a label, so each workload input family
// gets its own reproducible sequence. Seeds stay in [1, 1e9]: positive
// (a zero seed is dropped from the job JSON by omitempty) and short.
type seedPool struct {
	r    *rand.Rand
	used map[uint64]bool
}

func newSeedPool(seed uint64, label string) *seedPool {
	h := fnv.New64a()
	h.Write([]byte(label))
	return &seedPool{r: rand.New(rand.NewPCG(seed, h.Sum64())), used: map[uint64]bool{}}
}

func (p *seedPool) next() uint64 {
	for {
		s := 1 + p.r.Uint64N(1_000_000_000)
		if !p.used[s] {
			p.used[s] = true
			return s
		}
	}
}

func (p *seedPool) take(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = p.next()
	}
	return out
}

// seedSets returns a generator of fresh seed sets of size n, drawn
// from the workload seed under label. At the default seed the first set
// is paper — the seeds the committed figures were made with.
func seedSets(seed uint64, label string, n int, paper []uint64) func() []uint64 {
	pool := newSeedPool(seed, label)
	first := seed == defaultSeed
	return func() []uint64 {
		if first {
			first = false
			return append([]uint64(nil), paper...)
		}
		return pool.take(n)
	}
}

// fig4PaperSeeds is the replicate seed set of the default seed's first
// Figure 4 call: the paper's dataset seed, then its successors.
func fig4PaperSeeds(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = experiment.PaperFig4Config().Synth.Seed + uint64(i)
	}
	return out
}

// mixKind classifies one qlecd-mix request by what the schedule expects
// the service to do with it.
type mixKind int

const (
	kindHit   mixKind = iota // repeat of a primed config: a cache read
	kindMiss                 // fresh seed: simulate, then cache and store
	kindSweep                // small fresh-seed KindFig3 sweep job
)

func (k mixKind) String() string {
	return [...]string{"hit", "miss", "sweep"}[k]
}

// mixShares is one shuffled block of the request mix: 10 hits, 9 misses
// and 1 sweep in every 20 requests, so the shares are exact per block.
var mixShares = map[mixKind]int{kindHit: 10, kindMiss: 9, kindSweep: 1}

// mixHotConfigs is the number of primed configs hits repeat.
const mixHotConfigs = 12

// mixRequest is one scheduled request of the qlecd-mix load.
type mixRequest struct {
	Kind mixKind
	Due  time.Duration // offset from the start of the load phase
	Req  service.Request
}

var mixProtocols = []experiment.ProtocolID{experiment.QLEC, experiment.FCM, experiment.KMeans}
var mixLambdas = []float64{8, 4, 2, 1}

// paperOne is a paper-scale KindOne request.
func paperOne(id experiment.ProtocolID, lambda float64, seed uint64) service.Request {
	return service.Request{
		Kind:      service.KindOne,
		Config:    experiment.PaperConfig(),
		Protocols: []experiment.ProtocolID{id},
		Lambda:    lambda,
		Seed:      seed,
	}.Normalize()
}

// smallSweep is the small KindFig3 job of the mix: the three paper
// protocols over two λ at N=30 with a short lifespan leg.
func smallSweep(seed uint64) service.Request {
	cfg := experiment.PaperConfig()
	cfg.N, cfg.Side, cfg.K, cfg.Rounds = 30, 120, 3, 5
	cfg.Lambdas = []float64{4, 2}
	cfg.Seeds = []uint64{seed}
	cfg.LifespanDeathLine, cfg.LifespanMaxRounds = 4.9, 200
	return service.Request{Kind: service.KindFig3, Config: cfg, Protocols: mixProtocols}.Normalize()
}

// mixGen generates qlecd-mix inputs from a workload seed: the primed
// configs hits repeat, and open-loop schedules whose misses and sweeps
// draw from one fresh-seed pool, so no two phases of a run share a
// fresh config.
type mixGen struct {
	Hot    []service.Request
	fresh  *seedPool
	r      *rand.Rand
	block  []mixKind // the rest of the current shuffled mixShares block
	misses int
}

func newMixGen(seed uint64) *mixGen {
	hot := newSeedPool(seed, "mix/hot")
	g := &mixGen{fresh: newSeedPool(seed, "mix/fresh"), r: rand.New(rand.NewPCG(seed, 0x6d6978))}
	for i := 0; i < mixHotConfigs; i++ {
		g.Hot = append(g.Hot, paperOne(mixProtocols[i%3], mixLambdas[i%4], hot.next()))
	}
	return g
}

// schedule builds one open-loop phase of rate×dur requests: a Poisson
// process over dur conditioned on that count (sorted uniform arrival
// times), so every run of a given length offers the same work.
func (g *mixGen) schedule(rate float64, dur time.Duration) []mixRequest {
	n := int(rate * dur.Seconds())
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(g.r.Float64() * float64(dur))
	}
	slices.Sort(dues)
	out := make([]mixRequest, n)
	for i, due := range dues {
		out[i] = g.next()
		out[i].Due = due
	}
	return out
}

// next draws the next request of the mix. Kinds come block-wise from
// mixShares; misses cycle through protocols and λ so every phase has
// the same miss mix.
func (g *mixGen) next() mixRequest {
	if len(g.block) == 0 {
		for _, k := range []mixKind{kindHit, kindMiss, kindSweep} {
			for j := 0; j < mixShares[k]; j++ {
				g.block = append(g.block, k)
			}
		}
		g.r.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	mr := mixRequest{Kind: g.block[0]}
	g.block = g.block[1:]
	switch mr.Kind {
	case kindHit:
		mr.Req = g.Hot[g.r.IntN(len(g.Hot))]
	case kindMiss:
		mr.Req = paperOne(mixProtocols[g.misses%3], mixLambdas[(g.misses/3)%4], g.fresh.next())
		g.misses++
	case kindSweep:
		mr.Req = smallSweep(g.fresh.next())
	}
	return mr
}

// fleetBatch returns the configs of one fleet-batch iteration: n paper
// KindFig3 configs, each over five fresh seeds.
func fleetBatch(pool *seedPool, n int) []service.Request {
	out := make([]service.Request, n)
	for i := range out {
		cfg := experiment.PaperConfig()
		cfg.Seeds = pool.take(5)
		out[i] = service.Request{Kind: service.KindFig3, Config: cfg, Protocols: experiment.PaperProtocols()}.Normalize()
	}
	return out
}
