package experiment

import (
	"context"
	"math"
	"strings"
	"testing"

	"qlec/internal/dataset"
	"qlec/internal/metrics"
	"qlec/internal/sim"
)

// quickConfig shrinks the paper config for fast tests.
func quickConfig() Config {
	c := PaperConfig()
	c.Rounds = 4
	c.Lambdas = []float64{6, 2}
	c.Seeds = []uint64{1, 2}
	c.LifespanDeathLine = 4.96
	c.LifespanMaxRounds = 60
	return c
}

func TestPaperConfigValid(t *testing.T) {
	if err := PaperConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	// Table 2 pins.
	c := PaperConfig()
	if c.N != 100 || c.Side != 200 || c.InitialEnergy != 5 || c.Rounds != 20 || c.K != 5 {
		t.Fatalf("paper config drifted: %+v", c)
	}
	if c.Sim.Compression != 0.5 {
		t.Fatalf("compression %v, Table 2 says 50%%", c.Sim.Compression)
	}
	if len(c.Lambdas) != 4 {
		t.Fatalf("lambda sweep has %d points, paper uses four conditions", len(c.Lambdas))
	}
}

func TestConfigValidation(t *testing.T) {
	for _, mut := range []func(*Config){
		func(c *Config) { c.N = 0 },
		func(c *Config) { c.Rounds = 0 },
		func(c *Config) { c.K = 0 },
		func(c *Config) { c.K = c.N + 1 },
		func(c *Config) { c.Lambdas = nil },
		func(c *Config) { c.Lambdas = []float64{0} },
		func(c *Config) { c.Seeds = nil },
		func(c *Config) { c.LifespanMaxRounds = 0 },
		func(c *Config) { c.FCMLevels = 0 },
		func(c *Config) { c.Sim = sim.Config{} },
	} {
		c := PaperConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("invalid config accepted: %+v", c)
		}
	}
}

// TestConfigValidatesDeployment: Validate checks the very deployment
// RunOne would build, so a config with impossible node tiers is refused
// up front — naming the field — instead of failing when it runs.
func TestConfigValidatesDeployment(t *testing.T) {
	for _, tc := range []struct {
		name  string
		mut   func(*Config)
		field string // "" = valid
	}{
		{"homogeneous", func(c *Config) {}, ""},
		{"two tiers", func(c *Config) { c.AdvancedFraction, c.AdvancedFactor = 0.2, 1 }, ""},
		{"three tiers", func(c *Config) {
			c.AdvancedFraction, c.AdvancedFactor = 0.2, 1
			c.SuperFraction, c.SuperFactor = 0.1, 2
		}, ""},
		{"advanced fraction above 1", func(c *Config) { c.AdvancedFraction, c.AdvancedFactor = 1.5, 1 }, "AdvancedFraction"},
		{"advanced without factor", func(c *Config) { c.AdvancedFraction = 0.2 }, "AdvancedFactor"},
		{"negative super factor", func(c *Config) { c.SuperFraction, c.SuperFactor = 0.2, -1 }, "SuperFactor"},
		{"negative super fraction", func(c *Config) { c.SuperFraction, c.SuperFactor = -0.1, 1 }, "SuperFraction"},
		{"tiers above 1", func(c *Config) {
			c.AdvancedFraction, c.AdvancedFactor = 0.6, 1
			c.SuperFraction, c.SuperFactor = 0.5, 2
		}, "AdvancedFraction+SuperFraction"},
		{"infinite side", func(c *Config) { c.Side = math.Inf(1) }, "Side"},
		{"no energy", func(c *Config) { c.InitialEnergy = 0 }, "InitialEnergy"},
	} {
		c := PaperConfig()
		tc.mut(&c)
		err := c.Validate()
		switch {
		case tc.field == "" && err != nil:
			t.Errorf("%s: valid config refused: %v", tc.name, err)
		case tc.field != "" && (err == nil || !strings.Contains(err.Error(), tc.field)):
			t.Errorf("%s: Validate = %v, want an error naming %s", tc.name, err, tc.field)
		case tc.field == "":
			if _, err := c.RunOne(context.Background(), QLEC, 4, 1, false); err != nil {
				t.Errorf("%s: accepted config failed to run: %v", tc.name, err)
			}
		}
	}
}

func TestRunOneEveryProtocol(t *testing.T) {
	c := quickConfig()
	for _, id := range []ProtocolID{QLEC, FCM, KMeans, LEACH, DEECNearest, QLECNoFloor, QLECNoRR} {
		res, err := c.RunOne(context.Background(), id, 4, 1, false)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if err := res.Validate(); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if res.Generated == 0 {
			t.Fatalf("%s: no traffic", id)
		}
	}
}

func TestRunOneUnknownProtocol(t *testing.T) {
	c := quickConfig()
	if _, err := c.RunOne(context.Background(), "nope", 4, 1, false); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

func TestRunOneDeterministic(t *testing.T) {
	c := quickConfig()
	a, err := c.RunOne(context.Background(), QLEC, 4, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.RunOne(context.Background(), QLEC, 4, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	if a.PDR() != b.PDR() || a.TotalEnergy != b.TotalEnergy || a.Generated != b.Generated {
		t.Fatal("identical RunOne calls differ")
	}
}

func TestRunOneLifespanStops(t *testing.T) {
	c := quickConfig()
	res, err := c.RunOne(context.Background(), KMeans, 4, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Lifespan == 0 {
		t.Fatalf("k-means survived %d rounds at death line %v; expected early death",
			res.Rounds, c.LifespanDeathLine)
	}
	if res.Rounds != res.Lifespan {
		t.Fatal("lifespan run did not stop at death")
	}
}

func TestRunFig3ShapeAndCharts(t *testing.T) {
	c := quickConfig()
	results, err := c.RunFig3(context.Background(), []ProtocolID{QLEC, KMeans})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("%d results", len(results))
	}
	for _, sr := range results {
		if len(sr.Points) != len(c.Lambdas) {
			t.Fatalf("%s: %d points", sr.Protocol, len(sr.Points))
		}
		for _, p := range sr.Points {
			if p.PDR.N != len(c.Seeds) {
				t.Fatalf("%s λ=%v: %d replicates", sr.Protocol, p.Lambda, p.PDR.N)
			}
			if p.PDR.Mean < 0 || p.PDR.Mean > 1 {
				t.Fatalf("PDR mean %v out of range", p.PDR.Mean)
			}
			if p.EnergyJ.Mean <= 0 {
				t.Fatalf("energy mean %v", p.EnergyJ.Mean)
			}
			if p.Lifespan.Mean <= 0 {
				t.Fatalf("lifespan mean %v", p.Lifespan.Mean)
			}
		}
	}
	a, err := Fig3aChart(results)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig3bChart(results)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := Fig3cChart(results)
	if err != nil {
		t.Fatal(err)
	}
	l, err := LatencyChart(results)
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range []interface{ Validate() error }{a, b, cc, l} {
		if err := ch.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	// X axis must be ascending offered load.
	for i := 1; i < len(a.X); i++ {
		if a.X[i] <= a.X[i-1] {
			t.Fatalf("chart x not ascending: %v", a.X)
		}
	}
	table := Fig3Table(results)
	for _, want := range []string{"QLEC", "k-means", "PDR", "lifespan"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
}

// DEEC's home turf: on a two-tier heterogeneous network, QLEC's
// energy-weighted head selection must outlive energy-blind LEACH.
func TestHeterogeneousQLECOutlivesLEACH(t *testing.T) {
	c := quickConfig()
	c.AdvancedFraction = 0.2
	c.AdvancedFactor = 3
	c.LifespanDeathLine = 4.5
	c.LifespanMaxRounds = 400
	life := func(id ProtocolID) float64 {
		total := 0.0
		for _, seed := range []uint64{1, 2, 3} {
			res, err := c.RunOne(context.Background(), id, 4, seed, true)
			if err != nil {
				t.Fatal(err)
			}
			ls := res.Lifespan
			if ls == 0 {
				ls = res.Rounds
			}
			total += float64(ls)
		}
		return total / 3
	}
	qlec := life(QLEC)
	leach := life(LEACH)
	if qlec <= leach {
		t.Fatalf("heterogeneous lifespan: QLEC %v not above LEACH %v", qlec, leach)
	}
}

// EXPERIMENTS.md's Fig. 3(b) analysis, pinned mechanically: QLEC's
// energy premium over k-means is *transmit* energy (energy-selected,
// position-blind heads mean longer member hops), while the fusion and
// control categories stay comparable.
func TestEnergyGapOverKMeansIsTransmit(t *testing.T) {
	c := quickConfig()
	c.Rounds = 8
	run := func(id ProtocolID) *metrics.Result {
		res, err := c.RunOne(context.Background(), id, 4, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	qlec := run(QLEC)
	km := run(KMeans)
	if qlec.Energy.Tx <= km.Energy.Tx {
		t.Fatalf("QLEC tx %v not above k-means tx %v", qlec.Energy.Tx, km.Energy.Tx)
	}
	// Fusion tracks delivered traffic; within 2x of each other.
	ratio := float64(qlec.Energy.Fusion) / float64(km.Energy.Fusion)
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("fusion energies diverge unexpectedly: ratio %v", ratio)
	}
}

// The parallel sweep must return exactly what serial per-cell runs
// return — scheduling cannot leak into results.
func TestRunFig3ParallelMatchesSerial(t *testing.T) {
	c := quickConfig()
	sweep, err := c.RunFig3(context.Background(), []ProtocolID{QLEC, KMeans})
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range sweep {
		for pi, p := range sr.Points {
			// Recompute one cell serially and compare.
			res, err := c.RunOne(context.Background(), sr.Protocol, p.Lambda, c.Seeds[0], false)
			if err != nil {
				t.Fatal(err)
			}
			_ = pi
			found := false
			// The per-seed values are summarized; check the serial value
			// lies within [Min, Max] of the summary (it must be one of
			// the replicates).
			if res.PDR() >= p.PDR.Min-1e-12 && res.PDR() <= p.PDR.Max+1e-12 {
				found = true
			}
			if !found {
				t.Fatalf("%s λ=%v: serial PDR %v outside parallel summary [%v, %v]",
					sr.Protocol, p.Lambda, res.PDR(), p.PDR.Min, p.PDR.Max)
			}
		}
	}
	// Full determinism: two parallel sweeps agree exactly.
	again, err := c.RunFig3(context.Background(), []ProtocolID{QLEC, KMeans})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sweep {
		for j := range sweep[i].Points {
			if sweep[i].Points[j].PDR != again[i].Points[j].PDR ||
				sweep[i].Points[j].EnergyJ != again[i].Points[j].EnergyJ ||
				sweep[i].Points[j].Lifespan != again[i].Points[j].Lifespan {
				t.Fatalf("parallel sweep not deterministic at [%d][%d]", i, j)
			}
		}
	}
}

func TestRunKSweep(t *testing.T) {
	c := quickConfig()
	points, err := c.RunKSweep(context.Background(), QLEC, []int{3, 8}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 || points[0].K != 3 || points[1].K != 8 {
		t.Fatalf("points = %+v", points)
	}
	for _, p := range points {
		if p.PDR.N != len(c.Seeds) || p.Lifespan.Mean <= 0 {
			t.Fatalf("bad point %+v", p)
		}
	}
	ch, err := KSweepChart(points, QLEC, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Validate(); err != nil {
		t.Fatal(err)
	}
	table := KSweepTable(points)
	if !strings.Contains(table, "lifespan") {
		t.Fatalf("table missing lifespan:\n%s", table)
	}
}

func TestRunNSweep(t *testing.T) {
	c := quickConfig()
	points, err := c.RunNSweep(context.Background(), QLEC, []int{50, 200}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("%d points", len(points))
	}
	if points[0].N != 50 || points[1].N != 200 {
		t.Fatalf("N order: %+v", points)
	}
	// k scales with N at the base ratio (5 per 100 nodes).
	if points[0].K != 3 || points[1].K != 10 {
		t.Fatalf("k scaling: %d, %d", points[0].K, points[1].K)
	}
	for _, p := range points {
		if p.PDR.N != len(c.Seeds) || p.EnergyPerNode.Mean <= 0 {
			t.Fatalf("bad point %+v", p)
		}
	}
	table := NSweepTable(points)
	if !strings.Contains(table, "J/node") {
		t.Fatalf("table:\n%s", table)
	}
}

func TestRunNSweepErrors(t *testing.T) {
	c := quickConfig()
	if _, err := c.RunNSweep(context.Background(), QLEC, nil, 4); err == nil {
		t.Fatal("empty ns accepted")
	}
	if _, err := c.RunNSweep(context.Background(), QLEC, []int{0}, 4); err == nil {
		t.Fatal("N=0 accepted")
	}
}

func TestRunKSweepErrors(t *testing.T) {
	c := quickConfig()
	if _, err := c.RunKSweep(context.Background(), QLEC, nil, 3); err == nil {
		t.Fatal("empty ks accepted")
	}
	if _, err := c.RunKSweep(context.Background(), QLEC, []int{0}, 3); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := KSweepChart(nil, QLEC, 3); err == nil {
		t.Fatal("empty chart accepted")
	}
}

func TestRunFig4Small(t *testing.T) {
	cfg := PaperFig4Config()
	cfg.Synth.N = 300
	cfg.K = 20
	cfg.Rounds = 3
	res, err := RunFig4(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Run.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.K != 20 {
		t.Fatalf("K = %d", res.K)
	}
	if len(res.Field.Points) != 300 {
		t.Fatalf("field has %d points", len(res.Field.Points))
	}
	if res.BinnedCV < 0 || res.Gini < 0 || res.Gini > 1 {
		t.Fatalf("stats out of range: CV=%v Gini=%v", res.BinnedCV, res.Gini)
	}
	summary := Fig4Summary(res)
	if !strings.Contains(summary, "Moran") {
		t.Fatalf("summary missing Moran:\n%s", summary)
	}
	hm := Fig4Heatmap(res, 40, 16)
	if _, err := hm.RenderASCII(); err != nil {
		t.Fatal(err)
	}
}

func TestRunFig4ExternalDataset(t *testing.T) {
	ds, err := dataset.Synthesize(dataset.SynthConfig{
		N: 150, Side: 500, MaxHeight: 60, MeanEnergy: 5, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := PaperFig4Config()
	cfg.Data = ds
	cfg.K = 12
	cfg.Rounds = 2
	res, err := RunFig4(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Field.Points) != 150 {
		t.Fatalf("external dataset run has %d points", len(res.Field.Points))
	}
	// Invalid external data must be rejected.
	bad := &dataset.Dataset{}
	cfg.Data = bad
	if _, err := RunFig4(context.Background(), cfg); err == nil {
		t.Fatal("invalid external dataset accepted")
	}
}

func TestRunFig4AutoK(t *testing.T) {
	cfg := PaperFig4Config()
	cfg.Synth.N = 200
	cfg.K = 0 // derive from Theorem 1
	cfg.Rounds = 2
	res, err := RunFig4(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.K < 1 || res.K > 200 {
		t.Fatalf("auto K = %d", res.K)
	}
}
