package qlec

import (
	"context"
	"testing"

	"qlec/internal/experiment"
)

// goldenRun pins the exact end-to-end output of a short Table 2 run —
// every float compared with ==, not a tolerance — at λ=8 and λ=2 for
// every registered protocol. The QLEC, FCM and k-means values were
// captured when the hot-path flattening landed, the others just before
// the parallel round kernel was deleted. They enforce the
// determinism-preservation rule of DESIGN.md §8: an optimization that
// changes any expression's rounding, any RNG stream's consumption
// order, or any iteration order shows up here as a hard failure, not a
// silent drift of the paper's curves.
//
// To regenerate after an INTENTIONAL behaviour change (never for a
// performance change), print the fields of RunOne under this exact
// configuration with %.17g and paste them below; %.17g round-trips
// float64 exactly.
type goldenRun struct {
	id        experiment.ProtocolID
	lambda    float64
	generated int
	delivered int
	dropped   [4]int
	energy    float64
	latency   float64
}

var goldenRuns = []goldenRun{
	{experiment.QLEC, 8, 1221, 1221, [4]int{0, 0, 0, 0}, 1.3790371812612059, 10.573950853840151},
	{experiment.QLEC, 2, 5014, 4776, [4]int{13, 225, 0, 0}, 6.8022103887179997, 14.08728947564582},
	{experiment.FCM, 8, 1221, 1220, [4]int{1, 0, 0, 0}, 1.4971597508597854, 0.31025494139038839},
	{experiment.FCM, 2, 5014, 2748, [4]int{134, 2132, 0, 0}, 11.178108417996105, 2.5080345359835881},
	{experiment.KMeans, 8, 1221, 1221, [4]int{0, 0, 0, 0}, 1.2042278868149177, 10.533533301995444},
	{experiment.KMeans, 2, 5014, 4738, [4]int{15, 261, 0, 0}, 5.3382218422220218, 14.192807746751615},
	{experiment.LEACH, 8, 1221, 1221, [4]int{0, 0, 0, 0}, 1.581705351671554, 10.547516158553853},
	{experiment.LEACH, 2, 5014, 4494, [4]int{30, 490, 0, 0}, 8.2515562370648006, 14.088081829927019},
	{experiment.TDEEC, 8, 1221, 1221, [4]int{0, 0, 0, 0}, 1.4481839173769497, 10.570575945613639},
	{experiment.TDEEC, 2, 5014, 4092, [4]int{64, 858, 0, 0}, 10.013508962818534, 14.30799905135224},
	{experiment.QLEACH, 8, 1221, 1221, [4]int{0, 0, 0, 0}, 1.5534283334724939, 10.537919209146736},
	{experiment.QLEACH, 2, 5014, 4493, [4]int{24, 497, 0, 0}, 8.7399027339151729, 14.23054068747682},
	{experiment.Direct, 8, 1221, 1221, [4]int{0, 0, 0, 0}, 1.1843020563716644, 0.044368289157716942},
	{experiment.Direct, 2, 5014, 5014, [4]int{0, 0, 0, 0}, 4.8430944849468487, 0.34595589506421476},
	{experiment.DEECNearest, 8, 1221, 1221, [4]int{0, 0, 0, 0}, 1.3591990401713987, 10.540179549217246},
	{experiment.DEECNearest, 2, 5014, 4509, [4]int{26, 479, 0, 0}, 6.9860658995206988, 14.234616346298189},
	{experiment.DEECPlain, 8, 1221, 1221, [4]int{0, 0, 0, 0}, 1.3856403163125706, 10.583195110232811},
	{experiment.DEECPlain, 2, 5014, 4108, [4]int{59, 847, 0, 0}, 9.3411263570383234, 14.414121508197537},
	{experiment.QLECNoFloor, 8, 1221, 1221, [4]int{0, 0, 0, 0}, 1.3492701752661251, 10.561714043467902},
	{experiment.QLECNoFloor, 2, 5014, 4846, [4]int{9, 159, 0, 0}, 8.3854258053681914, 13.914080491696968},
	{experiment.QLECNoRR, 8, 1221, 1221, [4]int{0, 0, 0, 0}, 1.6176161426615956, 10.656398596326568},
	{experiment.QLECNoRR, 2, 5014, 4837, [4]int{14, 163, 0, 0}, 7.8324055867948701, 13.984704144608145},
}

// goldenMobileRuns pins QLEC under random-waypoint mobility (1–3 m/s,
// no pause), the one configuration in which node positions — and so
// the learner's Eq. (18) costs y(b_i, h_j) — change between rounds.
// It runs 20 rounds, not 5: over the first rounds heads rotate, so few
// (member, head) links repeat, and a learner that kept last round's
// geometry produced the same 5-round output; by round 20 it does not.
// Captured with %.17g like goldenRuns.
var goldenMobileRuns = []goldenRun{
	{experiment.QLEC, 8, 5018, 5018, [4]int{0, 0, 0, 0}, 4.4795573770233634, 10.727732917341367},
	{experiment.QLEC, 2, 20091, 18005, [4]int{86, 2000, 0, 0}, 24.96451015226592, 13.982021861820305},
}

func TestGoldenMetricsTable2Defaults(t *testing.T) {
	cfg := experiment.PaperConfig()
	cfg.Rounds = 5
	cfg.Seeds = []uint64{1}
	checkGolden(t, cfg, goldenRuns)
}

func TestGoldenMetricsMobility(t *testing.T) {
	cfg := experiment.PaperConfig()
	cfg.Rounds = 20
	cfg.Seeds = []uint64{1}
	cfg.Sim.MobilitySpeedMin = 1
	cfg.Sim.MobilitySpeedMax = 3
	checkGolden(t, cfg, goldenMobileRuns)
}

func checkGolden(t *testing.T, cfg experiment.Config, runs []goldenRun) {
	t.Helper()
	for _, g := range runs {
		g := g
		t.Run(string(g.id), func(t *testing.T) {
			res, err := cfg.RunOne(context.Background(), g.id, g.lambda, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			if res.Generated != g.generated {
				t.Errorf("λ=%g generated = %d, want %d", g.lambda, res.Generated, g.generated)
			}
			if res.Delivered != g.delivered {
				t.Errorf("λ=%g delivered = %d, want %d", g.lambda, res.Delivered, g.delivered)
			}
			if res.Dropped != g.dropped {
				t.Errorf("λ=%g dropped = %v, want %v", g.lambda, res.Dropped, g.dropped)
			}
			if float64(res.TotalEnergy) != g.energy {
				t.Errorf("λ=%g energy = %.17g, want %.17g", g.lambda, float64(res.TotalEnergy), g.energy)
			}
			if res.Latency.Mean != g.latency {
				t.Errorf("λ=%g latency mean = %.17g, want %.17g", g.lambda, res.Latency.Mean, g.latency)
			}
		})
	}
}
