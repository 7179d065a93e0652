package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// ExpositionContentType is the Content-Type for the text format this
// package reads and writes, exported for the federation endpoint.
const ExpositionContentType = expositionContentType

// InstanceLabel is the label federation adds to per-instance series.
const InstanceLabel = "instance"

// Label is one exposition label pair; Value is the raw (unescaped)
// string.
type Label struct {
	Name  string
	Value string
}

// Sample is one series line of an exposition. For histograms Name
// carries the full sample name including the _bucket/_sum/_count suffix
// and Labels includes le.
type Sample struct {
	Name   string
	Labels []Label
	Value  float64
}

// Label returns the value of the named label, or "".
func (s Sample) Label(name string) string {
	for _, l := range s.Labels {
		if l.Name == name {
			return l.Value
		}
	}
	return ""
}

// MetricFamily is one # TYPE group of a parsed exposition.
type MetricFamily struct {
	Name    string
	Help    string
	Type    string // counter | gauge | histogram
	Samples []Sample
}

// Exposition is a fully parsed Prometheus text exposition.
type Exposition struct {
	Families []*MetricFamily
}

// Family returns the named family, or nil.
func (e *Exposition) Family(name string) *MetricFamily {
	for _, f := range e.Families {
		if f.Name == name {
			return f
		}
	}
	return nil
}

var (
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (.+)$`)
	labelRe  = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$`)
)

// ParseExposition parses a Prometheus text exposition into its family
// and sample structure. It is the one reader of the format: the read
// half of federation, and the front end of LintExposition, which runs
// its semantic checks (cumulative buckets, duplicate series) on the
// parsed families. It is strict on syntax: a malformed line, a sample
// with no preceding # TYPE, or a second # TYPE line for one family is
// an error naming the line.
func ParseExposition(r io.Reader) (*Exposition, error) {
	exp := &Exposition{}
	byName := make(map[string]*MetricFamily)
	family := func(name string) *MetricFamily {
		if f, ok := byName[name]; ok {
			return f
		}
		f := &MetricFamily{Name: name}
		byName[name] = f
		exp.Families = append(exp.Families, f)
		return f
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
			name, help, hasHelp := strings.Cut(line[len("# HELP "):], " ")
			if !metricNameRe.MatchString(name) {
				return nil, fmt.Errorf("line %d: malformed HELP: %s", lineNo, line)
			}
			if hasHelp {
				family(name).Help = unescapeHelp(help)
			}
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line[len("# TYPE "):])
			if len(parts) != 2 || !metricNameRe.MatchString(parts[0]) {
				return nil, fmt.Errorf("line %d: malformed TYPE: %s", lineNo, line)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram":
			default:
				return nil, fmt.Errorf("line %d: unknown TYPE %q", lineNo, parts[1])
			}
			f := family(parts[0])
			if f.Type != "" {
				return nil, fmt.Errorf("line %d: duplicate TYPE for %q", lineNo, parts[0])
			}
			f.Type = parts[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}

		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			return nil, fmt.Errorf("line %d: unparseable sample: %s", lineNo, line)
		}
		name, labelBlock, valStr := m[1], m[2], m[3]
		val, err := parseSampleValue(valStr)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad value %q: %v", lineNo, valStr, err)
		}
		famName := name
		for _, s := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, s)
			if base != name {
				if f, ok := byName[base]; ok && f.Type == "histogram" {
					famName = base
					break
				}
			}
		}
		f, ok := byName[famName]
		if !ok || f.Type == "" {
			return nil, fmt.Errorf("line %d: sample %q has no preceding # TYPE", lineNo, name)
		}
		var labels []Label
		if labelBlock != "" {
			for _, pair := range splitLabelPairs(labelBlock[1 : len(labelBlock)-1]) {
				lm := labelRe.FindStringSubmatch(pair)
				if lm == nil {
					return nil, fmt.Errorf("line %d: malformed label %q", lineNo, pair)
				}
				labels = append(labels, Label{Name: lm[1], Value: unescapeLabelValue(lm[2])})
			}
		}
		f.Samples = append(f.Samples, Sample{Name: name, Labels: labels, Value: val})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return exp, nil
}

// Instance pairs a peer's name with its parsed exposition for merging.
type Instance struct {
	Name string
	Exp  *Exposition
}

// MergeExpositions federates the expositions of several instances into
// one, per the fleet merge rules (DESIGN.md §15):
//
//   - counters are summed across instances (same series → one series)
//   - histograms are summed bucket-by-bucket; since every qlecd runs the
//     same binary the bucket bounds agree, and summing per-instance
//     cumulative counts keeps the result cumulative (LintExposition on
//     the merged output is the backstop if they ever diverge)
//   - gauges are emitted per-instance with an added `instance` label; a
//     gauge that already carries one (e.g. a synthetic peer-up series
//     built by the federation handler) passes through unchanged
//
// A metric registered with different TYPEs on different instances is a
// hard error — the duplicate would poison the whole scrape surface.
func MergeExpositions(instances []Instance) (*Exposition, error) {
	out := &Exposition{}
	byName := make(map[string]*MetricFamily)
	sums := make(map[string]map[string]*mergedSample) // family -> series key -> sum

	for _, inst := range instances {
		if inst.Exp == nil {
			continue
		}
		for _, f := range inst.Exp.Families {
			mf, ok := byName[f.Name]
			if !ok {
				mf = &MetricFamily{Name: f.Name, Help: f.Help, Type: f.Type}
				byName[f.Name] = mf
				out.Families = append(out.Families, mf)
			}
			if mf.Type != f.Type {
				return nil, fmt.Errorf("metric %q: TYPE %s on instance %q conflicts with earlier TYPE %s",
					f.Name, f.Type, inst.Name, mf.Type)
			}
			switch f.Type {
			case "gauge":
				for _, s := range f.Samples {
					ls := s.Labels
					if s.Label(InstanceLabel) == "" {
						ls = append(append([]Label(nil), ls...), Label{InstanceLabel, inst.Name})
					}
					mf.Samples = append(mf.Samples, Sample{Name: s.Name, Labels: ls, Value: s.Value})
				}
			default: // counter, histogram: sum identical series
				fam := sums[f.Name]
				if fam == nil {
					fam = make(map[string]*mergedSample)
					sums[f.Name] = fam
				}
				for _, s := range f.Samples {
					k := s.Name + canonicalLabelKey(s.Labels)
					if a, ok := fam[k]; ok {
						a.sample.Value += s.Value
					} else {
						cp := s
						cp.Labels = append([]Label(nil), s.Labels...)
						fam[k] = &mergedSample{sample: cp, key: k}
					}
				}
			}
		}
	}

	for _, mf := range out.Families {
		if fam, ok := sums[mf.Name]; ok {
			accs := make([]*mergedSample, 0, len(fam))
			for _, a := range fam {
				accs = append(accs, a)
			}
			if mf.Type == "histogram" {
				sortHistogramAccs(accs)
			} else {
				sort.Slice(accs, func(i, j int) bool { return accs[i].key < accs[j].key })
			}
			for _, a := range accs {
				mf.Samples = append(mf.Samples, a.sample)
			}
		} else if mf.Type == "gauge" {
			ss := mf.Samples
			sort.SliceStable(ss, func(i, j int) bool {
				if ss[i].Name != ss[j].Name {
					return ss[i].Name < ss[j].Name
				}
				return canonicalLabelKey(ss[i].Labels) < canonicalLabelKey(ss[j].Labels)
			})
		}
	}
	sort.SliceStable(out.Families, func(i, j int) bool { return out.Families[i].Name < out.Families[j].Name })
	return out, nil
}

// mergedSample accumulates one summed series during federation.
type mergedSample struct {
	sample Sample
	key    string
}

// sortHistogramAccs orders one histogram family's summed samples into
// lintable exposition order: children grouped by base labels (le
// stripped), buckets ascending by le with +Inf last, then _sum, _count.
func sortHistogramAccs(accs []*mergedSample) {
	rank := func(name string) int {
		switch {
		case strings.HasSuffix(name, "_bucket"):
			return 0
		case strings.HasSuffix(name, "_sum"):
			return 1
		default:
			return 2
		}
	}
	baseKey := func(ls []Label) string { return canonicalLabelKey(labelsWithout(ls, "le")) }
	leVal := func(ls []Label) float64 {
		for _, l := range ls {
			if l.Name == "le" {
				v, err := parseSampleValue(l.Value)
				if err != nil {
					return math.Inf(1)
				}
				return v
			}
		}
		return math.Inf(1)
	}
	sort.SliceStable(accs, func(i, j int) bool {
		si, sj := accs[i].sample, accs[j].sample
		bi, bj := baseKey(si.Labels), baseKey(sj.Labels)
		if bi != bj {
			return bi < bj
		}
		ri, rj := rank(si.Name), rank(sj.Name)
		if ri != rj {
			return ri < rj
		}
		if ri == 0 {
			li, lj := leVal(si.Labels), leVal(sj.Labels)
			if li != lj {
				return li < lj
			}
		}
		return accs[i].key < accs[j].key
	})
}

// WriteExposition renders a parsed (or merged) exposition back to text.
// Families are written in their stored order with HELP/TYPE headers;
// samples keep their stored order, labels their stored order.
func WriteExposition(w io.Writer, e *Exposition) error {
	bw := bufio.NewWriter(w)
	for _, f := range e.Families {
		if len(f.Samples) == 0 {
			continue
		}
		bw.WriteString("# HELP ")
		bw.WriteString(f.Name)
		bw.WriteByte(' ')
		bw.WriteString(escapeHelp(f.Help))
		bw.WriteByte('\n')
		bw.WriteString("# TYPE ")
		bw.WriteString(f.Name)
		bw.WriteByte(' ')
		bw.WriteString(f.Type)
		bw.WriteByte('\n')
		for _, s := range f.Samples {
			bw.WriteString(s.Name)
			if len(s.Labels) > 0 {
				bw.WriteByte('{')
				for i, l := range s.Labels {
					if i > 0 {
						bw.WriteByte(',')
					}
					bw.WriteString(l.Name)
					bw.WriteString(`="`)
					bw.WriteString(escapeLabelValue(l.Value))
					bw.WriteByte('"')
				}
				bw.WriteByte('}')
			}
			bw.WriteByte(' ')
			bw.WriteString(formatFloat(s.Value))
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// canonicalLabelKey renders labels sorted by name into a stable series
// key (and the exact label block WriteExposition would emit for them
// once sorted).
func canonicalLabelKey(ls []Label) string {
	if len(ls) == 0 {
		return ""
	}
	sorted := append([]Label(nil), ls...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// labelsWithout returns ls minus any label called name.
func labelsWithout(ls []Label, name string) []Label {
	kept := make([]Label, 0, len(ls))
	for _, l := range ls {
		if l.Name != name {
			kept = append(kept, l)
		}
	}
	return kept
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

func unescapeLabelValue(v string) string {
	if !strings.ContainsRune(v, '\\') {
		return v
	}
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		if v[i] == '\\' && i+1 < len(v) {
			i++
			switch v[i] {
			case 'n':
				b.WriteByte('\n')
			default:
				b.WriteByte(v[i])
			}
			continue
		}
		b.WriteByte(v[i])
	}
	return b.String()
}

func unescapeHelp(h string) string {
	if !strings.ContainsRune(h, '\\') {
		return h
	}
	h = strings.ReplaceAll(h, `\n`, "\n")
	h = strings.ReplaceAll(h, `\\`, `\`)
	return h
}
