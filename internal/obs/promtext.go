package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file is the consuming side of the exposition format: a strict
// parser for the Prometheus text format plus quantile reconstruction from
// scraped buckets. The test suite uses it to validate the server's full
// /metrics output against the grammar (every sample HELP/TYPE'd, bucket
// monotonicity, le="+Inf" present, _count == +Inf); examples use it to
// print latency/accuracy dashboards from a scrape.

// Sample is one exposition line: a metric name, its labels, and a value.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Family is one metric family: HELP, TYPE, and its samples in file order.
type Family struct {
	Name    string
	Help    string
	Type    string
	Samples []Sample
}

// TextMetrics is a parsed exposition page.
type TextMetrics struct {
	Families map[string]*Family
	Order    []string // family names in first-appearance order
}

// ParseMetrics parses a Prometheus text-format page strictly: every
// sample must belong to a family announced by both a # HELP and a # TYPE
// line beforehand, names must match the metric grammar, and values must
// parse as floats. Unknown comment lines are ignored per the spec.
func ParseMetrics(r io.Reader) (*TextMetrics, error) {
	tm := &TextMetrics{Families: make(map[string]*Family)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	helpSeen := make(map[string]string)
	typeSeen := make(map[string]string)
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				continue // other comments are legal and ignored
			}
			name := fields[2]
			if !nameRE.MatchString(name) {
				return nil, fmt.Errorf("line %d: invalid metric name %q", lineNo, name)
			}
			rest := ""
			if len(fields) == 4 {
				rest = fields[3]
			}
			switch fields[1] {
			case "HELP":
				if _, dup := helpSeen[name]; dup {
					return nil, fmt.Errorf("line %d: duplicate HELP for %s", lineNo, name)
				}
				helpSeen[name] = rest
			case "TYPE":
				if _, dup := typeSeen[name]; dup {
					return nil, fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, name)
				}
				switch rest {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("line %d: invalid TYPE %q for %s", lineNo, rest, name)
				}
				typeSeen[name] = rest
				if _, ok := helpSeen[name]; !ok {
					return nil, fmt.Errorf("line %d: TYPE for %s precedes its HELP", lineNo, name)
				}
				fam := &Family{Name: name, Help: helpSeen[name], Type: rest}
				tm.Families[name] = fam
				tm.Order = append(tm.Order, name)
			}
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		// Attribute the sample to its family; histogram suffixes resolve
		// against a histogram-typed family.
		famName := s.Name
		if f, ok := tm.Families[famName]; ok && f.Type != "histogram" {
			f.Samples = append(f.Samples, s)
			continue
		}
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(famName, suf) {
				if f, ok := tm.Families[strings.TrimSuffix(famName, suf)]; ok && f.Type == "histogram" {
					famName = strings.TrimSuffix(famName, suf)
					break
				}
			}
		}
		f, ok := tm.Families[famName]
		if !ok {
			return nil, fmt.Errorf("line %d: sample %s has no preceding HELP/TYPE", lineNo, s.Name)
		}
		f.Samples = append(f.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return tm, nil
}

// parseSampleLine parses `name{label="value",...} value`.
func parseSampleLine(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return s, fmt.Errorf("malformed sample line %q", line)
	}
	s.Name = line[:i]
	if !nameRE.MatchString(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest := line[i:]
	if rest[0] == '{' {
		end, labels, err := parseLabels(rest)
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = rest[end:]
	}
	rest = strings.TrimSpace(rest)
	// A timestamp field would appear after the value; we don't emit them
	// and treat extra fields as an error in strict mode.
	if strings.ContainsAny(rest, " \t") {
		return s, fmt.Errorf("unexpected trailing fields in %q", line)
	}
	v, err := parseValue(rest)
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %w", line, err)
	}
	s.Value = v
	return s, nil
}

func parseValue(v string) (float64, error) {
	switch v {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(v, 64)
}

// parseLabels parses a `{k="v",...}` block starting at s[0]=='{' and
// returns the index just past the closing brace.
func parseLabels(s string) (int, map[string]string, error) {
	labels := map[string]string{}
	i := 1
	for {
		if i >= len(s) {
			return 0, nil, fmt.Errorf("unterminated label block")
		}
		if s[i] == '}' {
			return i + 1, labels, nil
		}
		j := strings.Index(s[i:], "=")
		if j < 0 {
			return 0, nil, fmt.Errorf("label without '=' in %q", s)
		}
		key := s[i : i+j]
		if !nameRE.MatchString(key) {
			return 0, nil, fmt.Errorf("invalid label name %q", key)
		}
		i += j + 1
		if i >= len(s) || s[i] != '"' {
			return 0, nil, fmt.Errorf("unquoted label value in %q", s)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(s) {
				return 0, nil, fmt.Errorf("unterminated label value in %q", s)
			}
			c := s[i]
			if c == '\\' {
				if i+1 >= len(s) {
					return 0, nil, fmt.Errorf("dangling escape in %q", s)
				}
				switch s[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return 0, nil, fmt.Errorf("invalid escape \\%c in %q", s[i+1], s)
				}
				i += 2
				continue
			}
			if c == '"' {
				i++
				break
			}
			val.WriteByte(c)
			i++
		}
		if _, dup := labels[key]; dup {
			return 0, nil, fmt.Errorf("duplicate label %q", key)
		}
		labels[key] = val.String()
		if i < len(s) && s[i] == ',' {
			i++
		}
	}
}

// Validate checks the semantic constraints on top of the grammar:
//
//   - every family has non-empty help and a concrete type;
//   - counter families end in _total and their values are finite and
//     non-negative;
//   - histogram families expose, per label set: an le="+Inf" bucket,
//     cumulative bucket values that are non-decreasing in le order, a
//     _sum, and a _count equal to the +Inf bucket.
func (tm *TextMetrics) Validate() error {
	for _, name := range tm.Order {
		f := tm.Families[name]
		if f.Help == "" {
			return fmt.Errorf("%s: empty HELP", name)
		}
		switch f.Type {
		case "counter":
			if !strings.HasSuffix(f.Name, "_total") {
				return fmt.Errorf("%s: counter does not end in _total", name)
			}
			for _, s := range f.Samples {
				if math.IsNaN(s.Value) || s.Value < 0 {
					return fmt.Errorf("%s: counter value %g", name, s.Value)
				}
			}
		case "histogram":
			if err := f.validateHistogram(); err != nil {
				return err
			}
		}
	}
	return nil
}

// labelSig renders labels minus `le` as a stable grouping key.
func labelSig(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != "le" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteString("=")
		b.WriteString(labels[k])
		b.WriteString(";")
	}
	return b.String()
}

type histSeries struct {
	uppers   []float64
	cums     []float64
	sum      *float64
	count    *float64
	infCount float64
	hasInf   bool
}

func (f *Family) groupHistogram() (map[string]*histSeries, error) {
	groups := map[string]*histSeries{}
	get := func(labels map[string]string) *histSeries {
		sig := labelSig(labels)
		g, ok := groups[sig]
		if !ok {
			g = &histSeries{}
			groups[sig] = g
		}
		return g
	}
	for _, s := range f.Samples {
		switch s.Name {
		case f.Name + "_bucket":
			le, ok := s.Labels["le"]
			if !ok {
				return nil, fmt.Errorf("%s: bucket without le label", f.Name)
			}
			upper, err := parseValue(le)
			if err != nil {
				return nil, fmt.Errorf("%s: bad le %q: %w", f.Name, le, err)
			}
			g := get(s.Labels)
			if math.IsInf(upper, 1) {
				g.hasInf = true
				g.infCount = s.Value
			} else {
				g.uppers = append(g.uppers, upper)
				g.cums = append(g.cums, s.Value)
			}
		case f.Name + "_sum":
			v := s.Value
			get(s.Labels).sum = &v
		case f.Name + "_count":
			v := s.Value
			get(s.Labels).count = &v
		default:
			return nil, fmt.Errorf("%s: unexpected sample %s in histogram family", f.Name, s.Name)
		}
	}
	return groups, nil
}

func (f *Family) validateHistogram() error {
	groups, err := f.groupHistogram()
	if err != nil {
		return err
	}
	if len(groups) == 0 {
		return fmt.Errorf("%s: histogram family with no series", f.Name)
	}
	for sig, g := range groups {
		if !g.hasInf {
			return fmt.Errorf("%s{%s}: missing le=\"+Inf\" bucket", f.Name, sig)
		}
		if g.sum == nil {
			return fmt.Errorf("%s{%s}: missing _sum", f.Name, sig)
		}
		if g.count == nil {
			return fmt.Errorf("%s{%s}: missing _count", f.Name, sig)
		}
		if *g.count != g.infCount {
			return fmt.Errorf("%s{%s}: _count %g != +Inf bucket %g", f.Name, sig, *g.count, g.infCount)
		}
		if !sort.Float64sAreSorted(g.uppers) {
			return fmt.Errorf("%s{%s}: bucket bounds not ascending", f.Name, sig)
		}
		prev := 0.0
		for i, c := range g.cums {
			if c < prev {
				return fmt.Errorf("%s{%s}: bucket counts not monotonic at le=%g", f.Name, sig, g.uppers[i])
			}
			prev = c
		}
		if g.infCount < prev {
			return fmt.Errorf("%s{%s}: +Inf bucket %g below last finite bucket %g", f.Name, sig, g.infCount, prev)
		}
	}
	return nil
}

// Value returns the value of the sample matching name and labels exactly
// (nil labels matches a sample with no labels).
func (tm *TextMetrics) Value(name string, labels map[string]string) (float64, bool) {
	for _, f := range tm.Families {
		for _, s := range f.Samples {
			if s.Name != name || len(s.Labels) != len(labels) {
				continue
			}
			match := true
			for k, v := range labels {
				if s.Labels[k] != v {
					match = false
					break
				}
			}
			if match {
				return s.Value, true
			}
		}
	}
	return 0, false
}

// HistogramQuantile reconstructs the q-quantile of a scraped histogram
// family for the series matching the given non-le labels, interpolating
// linearly within buckets (like PromQL's histogram_quantile).
func (tm *TextMetrics) HistogramQuantile(family string, labels map[string]string, q float64) (float64, error) {
	f, ok := tm.Families[family]
	if !ok || f.Type != "histogram" {
		return 0, fmt.Errorf("no histogram family %s", family)
	}
	groups, err := f.groupHistogram()
	if err != nil {
		return 0, err
	}
	g, ok := groups[labelSig(labels)]
	if !ok {
		return 0, fmt.Errorf("%s: no series with labels %v", family, labels)
	}
	return bucketQuantile(q, g), nil
}

func bucketQuantile(q float64, g *histSeries) float64 {
	total := g.infCount
	if total == 0 {
		return 0
	}
	rank := q * total
	prev := 0.0
	lower := 0.0
	for i, c := range g.cums {
		if c >= rank && c > prev {
			frac := (rank - prev) / (c - prev)
			if frac < 0 {
				frac = 0
			}
			return lower + frac*(g.uppers[i]-lower)
		}
		prev = c
		lower = g.uppers[i]
	}
	if len(g.uppers) > 0 {
		return g.uppers[len(g.uppers)-1]
	}
	return 0
}
