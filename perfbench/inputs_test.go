package main

import (
	"reflect"
	"testing"
	"time"

	"qlec/internal/experiment"
	"qlec/internal/service"
)

// TestInputsFromSeed: the same workload seed gives the same seed pools,
// request schedule and batch configs; another seed gives other ones.
func TestInputsFromSeed(t *testing.T) {
	mix := func(seed uint64) (*mixGen, []mixRequest, []mixRequest) {
		g := newMixGen(seed)
		a := g.schedule(mixRate, 5*time.Second)
		return g, a, g.schedule(mixRate, 5*time.Second)
	}
	g1, a1, b1 := mix(42)
	g2, a2, b2 := mix(42)
	if !reflect.DeepEqual(g1.Hot, g2.Hot) || !reflect.DeepEqual(a1, a2) || !reflect.DeepEqual(b1, b2) {
		t.Error("qlecd-mix inputs differ between two generators with one seed")
	}
	if _, a3, _ := mix(43); reflect.DeepEqual(a1, a3) {
		t.Error("seeds 42 and 43 gave the same schedule")
	}
	for _, f := range []func(uint64) []uint64{
		func(s uint64) []uint64 {
			next := seedSets(s, "fig3", 5, nil)
			return append(next(), next()...)
		},
		func(s uint64) []uint64 { return newSeedPool(s, "fleet").take(10) },
	} {
		if !reflect.DeepEqual(f(7), f(7)) {
			t.Error("a seed pool is not reproducible")
		}
		if reflect.DeepEqual(f(7), f(8)) {
			t.Error("seeds 7 and 8 gave the same pool")
		}
	}
	if !reflect.DeepEqual(fleetBatch(newSeedPool(5, "fleet"), 2), fleetBatch(newSeedPool(5, "fleet"), 2)) {
		t.Error("fleet batches differ for one seed")
	}
}

// TestDefaultSeedIsThePapers: the golden figures hold at the default
// seed because it maps to the paper's own seeds.
func TestDefaultSeedIsThePapers(t *testing.T) {
	paper := experiment.PaperConfig().Seeds
	next := seedSets(defaultSeed, "fig3", 5, paper)
	if got := next(); !reflect.DeepEqual(got, paper) {
		t.Errorf("first fig3 seed set at the default seed = %v, want the paper's %v", got, paper)
	}
	if got := next(); reflect.DeepEqual(got, paper) || len(got) != 5 {
		t.Errorf("second fig3 seed set = %v, want five fresh seeds", got)
	}
	if got := seedSets(2, "fig3", 5, paper)(); reflect.DeepEqual(got, paper) {
		t.Error("a non-default seed starts from the paper's seeds")
	}
	if got, want := fig4PaperSeeds(2)[0], experiment.PaperFig4Config().Synth.Seed; got != want {
		t.Errorf("fig4 primary seed %d, want the paper's %d", got, want)
	}
}

// TestMixSchedule: exact kind shares per block, hits repeat primed
// configs, and no fresh seed repeats within or across phases.
func TestMixSchedule(t *testing.T) {
	g := newMixGen(9)
	a := g.schedule(200, 10*time.Second)
	b := g.schedule(200, 10*time.Second)
	if len(a) != 2000 || len(b) != 2000 {
		t.Fatalf("schedules of %d and %d requests, want rate×dur = 2000", len(a), len(b))
	}
	hot := map[string]bool{}
	for _, h := range g.Hot {
		hot[hash(t, h)] = true
	}
	fresh := map[string]bool{}
	for _, phase := range [][]mixRequest{a, b} {
		blocks := len(phase) / 20
		counts := map[mixKind]int{}
		var last time.Duration
		for i, mr := range phase {
			if mr.Due < last || mr.Due >= 10*time.Second {
				t.Fatalf("request %d due %v (predecessor %v, phase 10s)", i, mr.Due, last)
			}
			last = mr.Due
			if i < blocks*20 {
				counts[mr.Kind]++
			}
			h := hash(t, mr.Req)
			switch mr.Kind {
			case kindHit:
				if !hot[h] {
					t.Errorf("hit %d is not a primed config", i)
				}
			default:
				if hot[h] || fresh[h] {
					t.Errorf("%s %d repeats a config", mr.Kind, i)
				}
				fresh[h] = true
			}
		}
		for k, share := range mixShares {
			if counts[k] != share*blocks {
				t.Errorf("%s: %d in %d blocks, want %d", k, counts[k], blocks, share*blocks)
			}
		}
	}
}

func hash(t *testing.T, r service.Request) string {
	t.Helper()
	h, err := r.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	return h
}
