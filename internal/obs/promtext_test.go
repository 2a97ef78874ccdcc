package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func parseAndValidate(s string) error {
	tm, err := ParseMetrics(strings.NewReader(s))
	if err != nil {
		return err
	}
	return tm.Validate()
}

func TestParserAcceptsWellFormedPage(t *testing.T) {
	page := `# HELP amf_x_total Things.
# TYPE amf_x_total counter
amf_x_total 4
# HELP amf_lat_seconds Latency.
# TYPE amf_lat_seconds histogram
amf_lat_seconds_bucket{le="0.001"} 2
amf_lat_seconds_bucket{le="0.01"} 5
amf_lat_seconds_bucket{le="+Inf"} 6
amf_lat_seconds_sum 0.042
amf_lat_seconds_count 6
`
	if err := parseAndValidate(page); err != nil {
		t.Fatal(err)
	}
}

func TestParserRejectsMalformedPages(t *testing.T) {
	cases := map[string]string{
		"sample without HELP/TYPE": "amf_orphan_total 1\n",
		"TYPE before HELP":         "# TYPE amf_x_total counter\n# HELP amf_x_total h\namf_x_total 1\n",
		"bad TYPE":                 "# HELP amf_x_total h\n# TYPE amf_x_total zigzag\namf_x_total 1\n",
		"bad value":                "# HELP amf_x_total h\n# TYPE amf_x_total counter\namf_x_total banana\n",
		"unterminated labels":      "# HELP amf_x_total h\n# TYPE amf_x_total counter\namf_x_total{a=\"b\" 1\n",
		"duplicate label":          "# HELP amf_x_total h\n# TYPE amf_x_total counter\namf_x_total{a=\"1\",a=\"2\"} 1\n",
		"counter not _total":       "# HELP amf_x h\n# TYPE amf_x counter\namf_x 1\n",
		"negative counter":         "# HELP amf_x_total h\n# TYPE amf_x_total counter\namf_x_total -1\n",
		"histogram missing +Inf":   "# HELP amf_l_seconds h\n# TYPE amf_l_seconds histogram\namf_l_seconds_bucket{le=\"1\"} 1\namf_l_seconds_sum 1\namf_l_seconds_count 1\n",
		"histogram count mismatch": "# HELP amf_l_seconds h\n# TYPE amf_l_seconds histogram\namf_l_seconds_bucket{le=\"+Inf\"} 3\namf_l_seconds_sum 1\namf_l_seconds_count 2\n",
		"histogram non-monotonic":  "# HELP amf_l_seconds h\n# TYPE amf_l_seconds histogram\namf_l_seconds_bucket{le=\"1\"} 5\namf_l_seconds_bucket{le=\"2\"} 3\namf_l_seconds_bucket{le=\"+Inf\"} 5\namf_l_seconds_sum 1\namf_l_seconds_count 5\n",
		"histogram missing sum":    "# HELP amf_l_seconds h\n# TYPE amf_l_seconds histogram\namf_l_seconds_bucket{le=\"+Inf\"} 0\namf_l_seconds_count 0\n",
	}
	for name, page := range cases {
		if err := parseAndValidate(page); err == nil {
			t.Errorf("%s: accepted invalid page", name)
		}
	}
}

func TestParserIgnoresOtherComments(t *testing.T) {
	page := "# just a comment\n# EOF\n# HELP amf_x_total h\n# TYPE amf_x_total counter\namf_x_total 1\n"
	if err := parseAndValidate(page); err != nil {
		t.Fatal(err)
	}
}

func TestNewLogger(t *testing.T) {
	var buf bytes.Buffer
	lg, err := NewLogger(&buf, "debug", "json")
	if err != nil {
		t.Fatal(err)
	}
	lg.Debug("hello", "k", 1)
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("not JSON: %v (%q)", err, buf.String())
	}
	if rec["msg"] != "hello" {
		t.Fatalf("msg = %v", rec["msg"])
	}

	buf.Reset()
	lg, err = NewLogger(&buf, "warn", "text")
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("suppressed")
	if buf.Len() != 0 {
		t.Fatalf("info leaked through warn level: %q", buf.String())
	}
	lg.Warn("visible")
	if !strings.Contains(buf.String(), "visible") {
		t.Fatalf("warn not logged: %q", buf.String())
	}

	if _, err := NewLogger(&buf, "loud", "text"); err == nil {
		t.Error("bad level accepted")
	}
	if _, err := NewLogger(&buf, "info", "xml"); err == nil {
		t.Error("bad format accepted")
	}
}
