package main

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"qlec/internal/cluster"
	"qlec/internal/experiment"
	"qlec/internal/network"
	"qlec/internal/rng"
	"qlec/internal/sim"
)

// TestTracedProtocolForwardsOptionalInterfaces: for every registered
// protocol, the wrapper satisfies exactly the optional interfaces the
// engine and harness assert on the protocol it wraps.
func TestTracedProtocolForwardsOptionalInterfaces(t *testing.T) {
	cfg := experiment.PaperConfig()
	for _, id := range experiment.AllProtocols() {
		w, err := network.Deploy(network.Deployment{N: cfg.N, Side: cfg.Side, InitialEnergy: cfg.InitialEnergy}, rng.NewNamed(1, "experiment/deploy"))
		if err != nil {
			t.Fatal(err)
		}
		inner, err := cfg.BuildProtocol(id, w, cfg.Rounds, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		wrapped := traceProtocol(inner, &protoClock{})
		for name, has := range map[string]func(cluster.Protocol) bool{
			"GeometryInvalidator": func(p cluster.Protocol) bool { _, ok := p.(cluster.GeometryInvalidator); return ok },
			"StaticRouter":        func(p cluster.Protocol) bool { _, ok := p.(cluster.StaticRouter); return ok },
			"QLearningStats":      func(p cluster.Protocol) bool { _, ok := p.(sim.QLearningStats); return ok },
			"Learner":             func(p cluster.Protocol) bool { _, ok := p.(learnerOf); return ok },
		} {
			if has(inner) != has(wrapped) {
				t.Errorf("%s: %s on the protocol = %v, on the wrapper = %v", id, name, has(inner), has(wrapped))
			}
		}
		if l, ok := inner.(learnerOf); ok {
			if wl, ok := wrapped.(learnerOf); ok && wl.Learner() != l.Learner() {
				t.Errorf("%s: wrapper forwards a different learner", id)
			}
		}
	}
}

// TestTracedLegMatchesRunOne: each paper protocol's traced result is
// byte-identical to experiment.Config.RunOne's, on both Figure 3 legs.
func TestTracedLegMatchesRunOne(t *testing.T) {
	cfg := experiment.PaperConfig()
	cfg.LifespanDeathLine, cfg.LifespanMaxRounds = 4.9, 200
	ctx := context.Background()
	for _, id := range experiment.PaperProtocols() {
		for _, lifespan := range []bool{false, true} {
			want, err := cfg.RunOne(ctx, id, 2, 3, lifespan)
			if err != nil {
				t.Fatal(err)
			}
			got, st, err := runLegTraced(ctx, cfg, id, 2, 3, lifespan)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(mustJSON(t, got), mustJSON(t, want)) {
				t.Errorf("%s lifespan=%v: traced result differs from RunOne", id, lifespan)
			}
			if st.clk.start.n != int64(want.Rounds) || st.clk.next.n == 0 {
				t.Errorf("%s lifespan=%v: timed %d StartRound and %d NextHop calls over %d rounds",
					id, lifespan, st.clk.start.n, st.clk.next.n, want.Rounds)
			}
		}
	}
}

// TestTracedFig4MatchesRunFig4 at a reduced size.
func TestTracedFig4MatchesRunFig4(t *testing.T) {
	cfg := experiment.PaperFig4Config()
	cfg.Synth.N, cfg.K, cfg.Rounds = 400, 30, 3
	want, err := experiment.RunFig4(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := runFig4Traced(context.Background(), cfg, cfg.Synth.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, got), mustJSON(t, want.Run)) {
		t.Error("traced Figure 4 replicate differs from RunFig4")
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
