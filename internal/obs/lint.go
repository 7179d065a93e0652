package obs

import (
	"fmt"
	"io"
	"strings"
)

// LintExposition is a promtool-style validity check for Prometheus text
// exposition output, used by tests and CI (no external binaries). The
// syntax checks are ParseExposition's:
//
//   - every sample line parses as `name[{labels}] value`
//   - every sample is preceded by a # TYPE line for its family, and no
//     family has two
//   - metric and label names match the Prometheus grammar
//   - TYPE is one of counter, gauge, histogram
//
// On the parsed families it then verifies:
//
//   - histogram buckets carry an le label, their counts are cumulative
//     and the +Inf bucket equals the family's _count sample
//   - no duplicate series (same name and label set, in any label order)
//
// It returns nil when the input is clean, or an error naming the first
// offence.
func LintExposition(r io.Reader) error {
	return LintExpositions(r)
}

// LintExpositions lints several expositions as one logical scrape
// surface: each reader is checked like LintExposition, and family and
// series uniqueness is enforced across all of them. A process exposing
// two registries (say, a daemon's operational registry and a library's
// private one) must not let them both claim a metric name — Prometheus
// would see a duplicate family and reject the merged scrape. With more
// than one reader, errors name the offending input ("input 2 ...").
func LintExpositions(rs ...io.Reader) error {
	owner := make(map[string]int) // family -> 1-based input
	seen := make(map[string]bool) // series key
	for i, r := range rs {
		// Parse errors start "line N", so they read "input 2 line N: ...";
		// the checks below name no line: "input 2: ...".
		atLine, at := "", ""
		if len(rs) > 1 {
			atLine, at = fmt.Sprintf("input %d ", i+1), fmt.Sprintf("input %d: ", i+1)
		}
		exp, err := ParseExposition(r)
		if err != nil {
			return fmt.Errorf("%s%w", atLine, err)
		}
		for _, f := range exp.Families {
			if f.Type == "" {
				continue // a # HELP alone: no TYPE, no samples
			}
			if prev, dup := owner[f.Name]; dup {
				return fmt.Errorf("%sfamily %q already exposed by input %d", at, f.Name, prev)
			}
			owner[f.Name] = i + 1
			if err := lintFamily(f, seen); err != nil {
				return fmt.Errorf("%s%w", at, err)
			}
		}
	}
	return nil
}

// histState tracks one histogram child (family plus labels without le)
// while its samples are checked in exposition order.
type histState struct {
	key             string
	lastCum, infCum float64
	count           float64
	hasInf          bool
	hasCount        bool
}

// lintFamily checks one parsed family's series uniqueness (recording
// keys in seen) and, for histograms, the bucket invariants.
func lintFamily(f *MetricFamily, seen map[string]bool) error {
	var hists []*histState
	byKey := make(map[string]*histState)
	for _, s := range f.Samples {
		key := s.Name + canonicalLabelKey(s.Labels)
		if seen[key] {
			return fmt.Errorf("duplicate series %s", key)
		}
		seen[key] = true
		if f.Type != "histogram" || s.Name == f.Name {
			continue
		}
		suffix := strings.TrimPrefix(s.Name, f.Name)
		base := s.Labels
		le := ""
		if suffix == "_bucket" {
			if le = s.Label("le"); le == "" {
				return fmt.Errorf("histogram bucket %s without le label", key)
			}
			base = labelsWithout(s.Labels, "le")
		}
		hk := f.Name + canonicalLabelKey(base)
		h := byKey[hk]
		if h == nil {
			h = &histState{key: hk}
			byKey[hk] = h
			hists = append(hists, h)
		}
		switch suffix {
		case "_bucket":
			if s.Value < h.lastCum {
				return fmt.Errorf("non-cumulative bucket in %s", hk)
			}
			h.lastCum = s.Value
			if le == "+Inf" {
				h.infCum, h.hasInf = s.Value, true
			}
		case "_count":
			h.count, h.hasCount = s.Value, true
		}
	}
	for _, h := range hists {
		if !h.hasInf {
			return fmt.Errorf("histogram %s missing +Inf bucket", h.key)
		}
		if !h.hasCount {
			return fmt.Errorf("histogram %s missing _count", h.key)
		}
		if h.infCum != h.count {
			return fmt.Errorf("histogram %s: +Inf bucket %g != _count %g", h.key, h.infCum, h.count)
		}
	}
	return nil
}
