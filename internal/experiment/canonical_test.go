package experiment

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"qlec/internal/dataset"
	"qlec/internal/energy"
	"qlec/internal/sim"
)

// paperConfigGoldenHash pins the byte-level canonical form of
// PaperConfig(). If this test fails you changed the serialization
// contract — field order, float formatting, or field set — which
// invalidates every content-addressed cache entry ever written by the
// job service. Do that only deliberately, and say so in the PR.
const paperConfigGoldenHash = "6ec39de88709f3df75218fc71889130f357381c932f15e5671058f97a5bb8813"

func TestHashGolden(t *testing.T) {
	got := PaperConfig().Hash()
	if got != paperConfigGoldenHash {
		b, _ := PaperConfig().CanonicalJSON()
		t.Fatalf("PaperConfig hash drifted:\n got  %s\n want %s\ncanonical JSON: %s",
			got, paperConfigGoldenHash, b)
	}
}

func TestHashDeterministic(t *testing.T) {
	a, b := PaperConfig(), PaperConfig()
	if a.Hash() != b.Hash() {
		t.Fatal("identical configs hash differently")
	}
	// Repeated hashing of the same value is stable.
	if a.Hash() != a.Hash() {
		t.Fatal("hash not idempotent")
	}
}

// TestHashIgnoresExecutionKnobs: hooks and scheduling knobs must not
// change the identity — results are independent of them by the
// determinism contract, so a cache hit across them is correct.
func TestHashIgnoresExecutionKnobs(t *testing.T) {
	base := PaperConfig()
	h := base.Hash()

	mod := base
	mod.Workers = 7
	mod.Progress = func(done, total int) {}
	mod.Observer = func(sim.RoundSnapshot) {}
	mod.Tracer = func(sim.TraceEvent) {}
	if mod.Hash() != h {
		t.Fatal("execution knobs leaked into the hash")
	}
}

// TestHashSensitivity: every result-determining field must perturb the
// hash.
func TestHashSensitivity(t *testing.T) {
	base := PaperConfig()
	h := base.Hash()
	mutations := map[string]func(*Config){
		"N":                 func(c *Config) { c.N++ },
		"Side":              func(c *Config) { c.Side += 1 },
		"InitialEnergy":     func(c *Config) { c.InitialEnergy += 1 },
		"Rounds":            func(c *Config) { c.Rounds++ },
		"K":                 func(c *Config) { c.K++ },
		"Lambdas":           func(c *Config) { c.Lambdas = []float64{8, 4, 2, 1, 0.5} },
		"LambdaOrder":       func(c *Config) { c.Lambdas = []float64{1, 2, 4, 8} },
		"Seeds":             func(c *Config) { c.Seeds = []uint64{1, 2, 3, 4, 5, 6} },
		"LifespanDeathLine": func(c *Config) { c.LifespanDeathLine += 0.5 },
		"LifespanMaxRounds": func(c *Config) { c.LifespanMaxRounds++ },
		"Sim.Seed":          func(c *Config) { c.Sim.Seed++ },
		"Sim.Compression":   func(c *Config) { c.Sim.Compression = 0.25 },
		"Model.Elec":        func(c *Config) { c.Model.Elec *= 2 },
		"FCMLevels":         func(c *Config) { c.FCMLevels++ },
		"AdvancedFraction":  func(c *Config) { c.AdvancedFraction = 0.1 },
		"AdvancedFactor":    func(c *Config) { c.AdvancedFactor = 1 },
		"Topology": func(c *Config) {
			c.Topology = &dataset.Dataset{}
		},
	}
	seen := map[string]string{"": h}
	for name, mutate := range mutations {
		cfg := base
		mutate(&cfg)
		got := cfg.Hash()
		for prev, ph := range seen {
			if got == ph {
				t.Errorf("mutating %s collides with %q", name, prev)
			}
		}
		seen[name] = got
	}
}

// TestHashFloatFormatting: float values that are numerically distinct
// but print identically under naive %v-style truncation must stay
// distinct, and values that are numerically equal must agree however
// they were computed.
func TestHashFloatFormatting(t *testing.T) {
	a := PaperConfig()
	b := PaperConfig()
	tenth, fifth := 0.1, 0.2 // runtime values, so the sum rounds twice
	a.Side = tenth + fifth   // 0.30000000000000004
	b.Side = 0.3
	if a.Hash() == b.Hash() {
		t.Fatal("0.1+0.2 and 0.3 should hash differently (shortest round-trip formatting)")
	}
	c := PaperConfig()
	c.Side = 0.15 * 2 // exactly 0.3
	if c.Hash() != b.Hash() {
		t.Fatal("numerically equal floats hash differently")
	}
	// Integral floats format without a decimal point, consistently.
	d := PaperConfig()
	d.Side = 200.0
	if d.Hash() != PaperConfig().Hash() {
		t.Fatal("200.0 vs 200 formatting unstable")
	}
}

// TestHashFieldOrderStability: the canonical form's key order is the
// mirror struct's declaration order, not anything runtime-dependent.
func TestHashFieldOrderStability(t *testing.T) {
	b, err := PaperConfig().CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{`"n":`, `"side":`, `"initialEnergy":`, `"rounds":`, `"k":`,
		`"lambdas":`, `"seeds":`, `"lifespanDeathLine":`, `"lifespanMaxRounds":`,
		`"sim":`, `"model":`, `"fcmLevels":`, `"topology":`,
		`"advancedFraction":`, `"advancedFactor":`}
	s := string(b)
	last := -1
	for _, k := range keys {
		i := strings.Index(s, k)
		if i < 0 {
			t.Fatalf("canonical JSON missing key %s: %s", k, s)
		}
		if i < last {
			t.Fatalf("canonical JSON key %s out of order: %s", k, s)
		}
		last = i
	}
}

// TestConfigJSONRoundTrip: Config must survive encoding/json untouched
// in every result-determining field — the service's submission path is
// JSON all the way down, and a lossy round-trip would make the daemon
// simulate a different experiment than the client described.
func TestConfigJSONRoundTrip(t *testing.T) {
	cfg := PaperConfig()
	cfg.Sim.ShadowSigma = 0.4
	cfg.AdvancedFraction = 0.1
	cfg.AdvancedFactor = 1.5
	cfg.Workers = 3
	// Hooks are json:"-": they must neither break marshaling nor
	// reappear after a round trip.
	cfg.Observer = func(sim.RoundSnapshot) {}
	cfg.Progress = func(done, total int) {}
	cfg.Tracer = func(sim.TraceEvent) {}

	b, err := json.Marshal(cfg)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Config
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Observer != nil || back.Progress != nil || back.Tracer != nil {
		t.Fatal("hooks survived the round trip")
	}
	if back.Hash() != cfg.Hash() {
		t.Fatalf("round trip changed the hash:\n before %s\n after  %s", cfg.Hash(), back.Hash())
	}
	if back.Workers != 3 {
		t.Fatalf("Workers lost in round trip: %d", back.Workers)
	}
}

// TestCanonicalMirrorsCoverConfig: every exported field of the hashed
// configuration structs must have a same-named field in its canonical
// mirror, or be on the exclusion list of fields that cannot change a
// result. A new result-changing field that is not mirrored would let two
// requests with different outcomes share a cache key. Unexported fields
// are skipped: they cannot arrive through a JSON request.
func TestCanonicalMirrorsCoverConfig(t *testing.T) {
	excluded := map[string]bool{
		"Tracer": true, "Observer": true, "Audit": true, "Workers": true, "Progress": true,
	}
	pairs := []struct {
		src, mirror reflect.Type
	}{
		{reflect.TypeOf(Config{}), reflect.TypeOf(canonicalConfig{})},
		{reflect.TypeOf(sim.Config{}), reflect.TypeOf(canonicalSim{})},
		{reflect.TypeOf(energy.Model{}), reflect.TypeOf(canonicalModel{})},
	}
	for _, p := range pairs {
		for i := 0; i < p.src.NumField(); i++ {
			f := p.src.Field(i)
			if !f.IsExported() || excluded[f.Name] {
				continue
			}
			if _, ok := p.mirror.FieldByName(f.Name); !ok {
				t.Errorf("%s.%s has no field in %s and is not excluded from the hash",
					p.src, f.Name, p.mirror)
			}
		}
	}
}

// TestRetiredSimKeyCannotSplitACacheKey: a request that still carries
// the retired "ClusterWorkers" key in its Sim block decodes leniently
// (the key is ignored), hashes like the same request without it, and
// simulates exactly the same result — so a cache entry under that hash
// is the result either request would have produced.
func TestRetiredSimKeyCannotSplitACacheKey(t *testing.T) {
	base := PaperConfig()
	base.Lambdas = []float64{4}
	base.Seeds = []uint64{1}
	wire := withSimKey(t, base, "ClusterWorkers", "4")
	var withKey Config
	if err := json.Unmarshal(wire, &withKey); err != nil {
		t.Fatalf("decode request with ClusterWorkers: %v", err)
	}
	if withKey.Hash() != base.Hash() {
		t.Fatalf("hash with ClusterWorkers %s != without %s", withKey.Hash(), base.Hash())
	}
	for _, id := range []ProtocolID{KMeans, LEACH, TDEEC, QLEACH} {
		want, err := base.RunOne(context.Background(), id, 4, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		got, err := withKey.RunOne(context.Background(), id, 4, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: result with ClusterWorkers differs (energy %.17g vs %.17g)",
				id, float64(got.TotalEnergy), float64(want.TotalEnergy))
		}
	}
}

// withSimKey returns cfg's request JSON with key set to the raw JSON
// value in its Sim object.
func withSimKey(t *testing.T, cfg Config, key, value string) []byte {
	t.Helper()
	b, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(b, &top); err != nil {
		t.Fatal(err)
	}
	var simObj map[string]json.RawMessage
	if err := json.Unmarshal(top["Sim"], &simObj); err != nil {
		t.Fatal(err)
	}
	simObj[key] = json.RawMessage(value)
	if top["Sim"], err = json.Marshal(simObj); err != nil {
		t.Fatal(err)
	}
	if b, err = json.Marshal(top); err != nil {
		t.Fatal(err)
	}
	return b
}
