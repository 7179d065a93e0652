package obs

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
)

// LintExposition is a promtool-style validity check for Prometheus text
// exposition output, used by tests and CI (no external binaries). It
// verifies:
//
//   - every sample line parses as `name[{labels}] value`
//   - every sample is preceded by # HELP and # TYPE lines for its family
//   - metric and label names match the Prometheus grammar
//   - TYPE is one of counter, gauge, histogram
//   - histogram bucket counts are cumulative and the +Inf bucket equals
//     the family's _count sample
//   - no duplicate series (same name + label block twice)
//
// It returns nil when the input is clean, or an error naming the first
// offending line.
func LintExposition(r io.Reader) error {
	return LintExpositions(r)
}

// LintExpositions lints several expositions as one logical scrape
// surface: each reader is checked like LintExposition, and family and
// series uniqueness is enforced across all of them. A process exposing
// two registries (say, a daemon's operational registry and a library's
// private one) must not let them both claim a metric name — Prometheus
// would see a duplicate family and reject the merged scrape.
func LintExpositions(rs ...io.Reader) error {
	sampleRe := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (.+)$`)
	labelRe := regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$`)

	types := make(map[string]string) // family -> TYPE
	seen := make(map[string]bool)    // full series line key
	type histState struct {
		lastCum  float64
		infCum   float64
		hasInf   bool
		count    float64
		hasCount bool
	}
	hists := make(map[string]*histState) // family + base labels (le stripped)

	for ri, r := range rs {
		loc := func(lineNo int) string {
			if len(rs) == 1 {
				return fmt.Sprintf("line %d", lineNo)
			}
			return fmt.Sprintf("input %d line %d", ri+1, lineNo)
		}
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 1024*1024), 1024*1024)
		lineNo := 0
		for sc.Scan() {
			lineNo++
			line := sc.Text()
			if line == "" {
				continue
			}
			if strings.HasPrefix(line, "# HELP ") {
				name, _, _ := strings.Cut(line[len("# HELP "):], " ")
				if !metricNameRe.MatchString(name) {
					return fmt.Errorf("%s: malformed HELP: %s", loc(lineNo), line)
				}
				continue
			}
			if strings.HasPrefix(line, "# TYPE ") {
				parts := strings.Fields(line[len("# TYPE "):])
				if len(parts) != 2 || !metricNameRe.MatchString(parts[0]) {
					return fmt.Errorf("%s: malformed TYPE: %s", loc(lineNo), line)
				}
				switch parts[1] {
				case "counter", "gauge", "histogram":
				default:
					return fmt.Errorf("%s: unknown TYPE %q", loc(lineNo), parts[1])
				}
				if _, dup := types[parts[0]]; dup {
					return fmt.Errorf("%s: duplicate TYPE for %q", loc(lineNo), parts[0])
				}
				types[parts[0]] = parts[1]
				continue
			}
			if strings.HasPrefix(line, "#") {
				continue // other comments are legal
			}

			m := sampleRe.FindStringSubmatch(line)
			if m == nil {
				return fmt.Errorf("%s: unparseable sample: %s", loc(lineNo), line)
			}
			name, labels, valStr := m[1], m[2], m[3]
			val, err := parseSampleValue(valStr)
			if err != nil {
				return fmt.Errorf("%s: bad value %q: %v", loc(lineNo), valStr, err)
			}

			family := name
			suffix := ""
			for _, s := range []string{"_bucket", "_sum", "_count"} {
				base := strings.TrimSuffix(name, s)
				if base != name && types[base] == "histogram" {
					family, suffix = base, s
					break
				}
			}
			if _, ok := types[family]; !ok {
				return fmt.Errorf("%s: sample %q has no preceding # TYPE", loc(lineNo), name)
			}

			var le string
			baseLabels := labels
			if labels != "" {
				inner := labels[1 : len(labels)-1]
				var kept []string
				for _, pair := range splitLabelPairs(inner) {
					lm := labelRe.FindStringSubmatch(pair)
					if lm == nil {
						return fmt.Errorf("%s: malformed label %q", loc(lineNo), pair)
					}
					if lm[1] == "le" && suffix == "_bucket" {
						le = lm[2]
						continue
					}
					kept = append(kept, pair)
				}
				baseLabels = ""
				if len(kept) > 0 {
					baseLabels = "{" + strings.Join(kept, ",") + "}"
				}
			}
			if suffix == "_bucket" && le == "" {
				return fmt.Errorf("%s: histogram bucket without le label", loc(lineNo))
			}

			key := name + labels
			if seen[key] {
				return fmt.Errorf("%s: duplicate series %s", loc(lineNo), key)
			}
			seen[key] = true

			if types[family] == "histogram" && suffix != "" {
				hk := family + baseLabels
				h := hists[hk]
				if h == nil {
					h = &histState{}
					hists[hk] = h
				}
				switch suffix {
				case "_bucket":
					if val < h.lastCum {
						return fmt.Errorf("%s: non-cumulative bucket in %s", loc(lineNo), hk)
					}
					h.lastCum = val
					if le == "+Inf" {
						h.infCum, h.hasInf = val, true
					}
				case "_count":
					h.count, h.hasCount = val, true
				}
			}
		}
		if err := sc.Err(); err != nil {
			return err
		}
	}
	for hk, h := range hists {
		if !h.hasInf {
			return fmt.Errorf("histogram %s missing +Inf bucket", hk)
		}
		if !h.hasCount {
			return fmt.Errorf("histogram %s missing _count", hk)
		}
		if h.infCum != h.count {
			return fmt.Errorf("histogram %s: +Inf bucket %g != _count %g", hk, h.infCum, h.count)
		}
	}
	return nil
}

func parseSampleValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return strconv.ParseFloat("+Inf", 64)
	case "-Inf":
		return strconv.ParseFloat("-Inf", 64)
	case "NaN":
		return strconv.ParseFloat("NaN", 64)
	}
	return strconv.ParseFloat(s, 64)
}

// splitLabelPairs splits the interior of a label block on commas that
// are not inside quoted values (values may contain escaped quotes).
func splitLabelPairs(s string) []string {
	var out []string
	var b strings.Builder
	inQuote := false
	for i := 0; i < len(s); i++ {
		ch := s[i]
		switch {
		case ch == '\\' && inQuote && i+1 < len(s):
			b.WriteByte(ch)
			i++
			b.WriteByte(s[i])
		case ch == '"':
			inQuote = !inQuote
			b.WriteByte(ch)
		case ch == ',' && !inQuote:
			out = append(out, b.String())
			b.Reset()
		default:
			b.WriteByte(ch)
		}
	}
	if b.Len() > 0 {
		out = append(out, b.String())
	}
	return out
}
