package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestLintRejectsMalformed(t *testing.T) {
	cases := []struct {
		name  string
		input string
	}{
		{"no TYPE", "foo 1\n"},
		{"bad TYPE", "# TYPE foo summary\nfoo 1\n"},
		{"duplicate TYPE", "# TYPE foo counter\n# TYPE foo counter\nfoo 1\n"},
		{"bad value", "# TYPE foo counter\nfoo abc\n"},
		{"bad metric name", "# TYPE foo counter\n2foo 1\n"},
		{"duplicate series", "# TYPE foo counter\nfoo 1\nfoo 2\n"},
		{"duplicate series, labels reordered", "# TYPE foo counter\n" +
			`foo{a="1",b="2"} 1` + "\n" + `foo{b="2",a="1"} 2` + "\n"},
		{"malformed label", `# TYPE foo counter` + "\n" + `foo{bad} 1` + "\n"},
		{"bucket without le", "# TYPE foo histogram\nfoo_bucket 1\nfoo_sum 1\nfoo_count 1\n"},
		{"non-cumulative buckets", "# TYPE foo histogram\n" +
			`foo_bucket{le="1"} 5` + "\n" + `foo_bucket{le="+Inf"} 3` + "\n" +
			"foo_sum 1\nfoo_count 3\n"},
		{"inf != count", "# TYPE foo histogram\n" +
			`foo_bucket{le="1"} 1` + "\n" + `foo_bucket{le="+Inf"} 2` + "\n" +
			"foo_sum 1\nfoo_count 3\n"},
		{"missing +Inf", "# TYPE foo histogram\n" +
			`foo_bucket{le="1"} 1` + "\n" + "foo_sum 1\nfoo_count 1\n"},
	}
	for _, tc := range cases {
		if err := LintExposition(strings.NewReader(tc.input)); err == nil {
			t.Errorf("%s: lint accepted invalid input:\n%s", tc.name, tc.input)
		}
	}
}

func TestLintAcceptsValid(t *testing.T) {
	input := "# HELP up Liveness.\n# TYPE up gauge\nup 1\n" +
		"# TYPE lat histogram\n" +
		`lat_bucket{op="a",le="1"} 2` + "\n" +
		`lat_bucket{op="a",le="+Inf"} 3` + "\n" +
		`lat_sum{op="a"} 4.5` + "\n" +
		`lat_count{op="a"} 3` + "\n" +
		"# TYPE special gauge\nspecial NaN\n"
	if err := LintExposition(strings.NewReader(input)); err != nil {
		t.Fatalf("lint rejected valid input: %v", err)
	}
}

// TestLintExpositionsCrossRegistry: two registries exposed by one
// process form one scrape surface, so a family or series name owned by
// both is an error even though each exposition lints clean alone.
func TestLintExpositionsCrossRegistry(t *testing.T) {
	a := NewRegistry()
	a.Counter("shared_total", "Owned by registry A.").Inc()
	b := NewRegistry()
	b.Counter("shared_total", "Owned by registry B too.").Inc()

	var ea, eb bytes.Buffer
	if err := a.WritePrometheus(&ea); err != nil {
		t.Fatal(err)
	}
	if err := b.WritePrometheus(&eb); err != nil {
		t.Fatal(err)
	}
	if err := LintExposition(bytes.NewReader(ea.Bytes())); err != nil {
		t.Fatalf("registry A alone fails lint: %v", err)
	}
	err := LintExpositions(bytes.NewReader(ea.Bytes()), bytes.NewReader(eb.Bytes()))
	if err == nil {
		t.Fatal("duplicate family across registries lints clean")
	}
	if !strings.Contains(err.Error(), "input 2") || !strings.Contains(err.Error(), "shared_total") {
		t.Fatalf("error %q does not locate the duplicate in input 2", err)
	}

	// Disjoint names across registries lint clean together.
	c := NewRegistry()
	c.Gauge("other_gauge", "Unrelated.").Set(1)
	var ec bytes.Buffer
	if err := c.WritePrometheus(&ec); err != nil {
		t.Fatal(err)
	}
	if err := LintExpositions(bytes.NewReader(ea.Bytes()), bytes.NewReader(ec.Bytes())); err != nil {
		t.Fatalf("disjoint registries fail joint lint: %v", err)
	}
}

// TestParseExpositionRejectsRepeatedType: one family, one # TYPE line.
// The linter builds on the parser, so the parser is where a repeat —
// same type or not — is caught.
func TestParseExpositionRejectsRepeatedType(t *testing.T) {
	for _, tc := range []struct{ in, line string }{
		{"# TYPE foo counter\n# TYPE foo counter\nfoo 1\n", "line 2"},
		{"# TYPE foo counter\nfoo 1\n# TYPE foo gauge\n", "line 3"},
	} {
		_, err := ParseExposition(strings.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.line) {
			t.Errorf("ParseExposition(%q) = %v, want an error at %s", tc.in, err, tc.line)
		}
	}
}
