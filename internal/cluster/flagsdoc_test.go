package cluster

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestFlagsDocumented is the flags-docs lint, the same contract as
// TestMetricsDocumented in both directions: every flag amfserver or
// amfgateway defines is named in the first cell of a README.md table
// row, every flag so named is one the two define, and a backticked token
// that starts with a dash anywhere in README.md is a flag of one of the
// repo's binaries — so neither an undocumented new flag nor the
// leftovers of a deleted one get past `go test`.
func TestFlagsDocumented(t *testing.T) {
	// Flag names as the binaries define them: the first string literal
	// of every fs.String/Int/Duration/Bool/Float64/Var call in main.go.
	defRE := regexp.MustCompile(`\bfs\.\w+\((?:&\w+, )?"([a-z0-9-]+)"`)
	defined := func(into map[string]bool, cmd string) {
		src, err := os.ReadFile("../../cmd/" + cmd + "/main.go")
		if err != nil {
			t.Fatalf("read %s: %v", cmd, err)
		}
		m := defRE.FindAllStringSubmatch(string(src), -1)
		if len(m) < 5 {
			t.Fatalf("found only %d flag definitions in cmd/%s/main.go — pattern out of date?", len(m), cmd)
		}
		for _, sub := range m {
			into["-"+sub[1]] = true
		}
	}
	served := map[string]bool{} // must each have a row
	defined(served, "amfserver")
	defined(served, "amfgateway")
	known := map[string]bool{} // may be named
	for name := range served {
		known[name] = true
	}
	defined(known, "amfbench")
	defined(known, "qosgen")

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatalf("read README.md: %v", err)
	}
	flagRE := regexp.MustCompile("`(-[a-z][a-z0-9-]*)")
	rows := map[string]bool{} // flags named in the first cell of a table row
	for _, line := range strings.Split(string(readme), "\n") {
		if cells := strings.Split(line, "|"); len(cells) > 2 && strings.TrimSpace(cells[0]) == "" {
			for _, m := range flagRE.FindAllStringSubmatch(cells[1], -1) {
				rows[m[1]] = true
			}
		}
	}
	mentioned := map[string]bool{}
	for _, m := range flagRE.FindAllStringSubmatch(string(readme), -1) {
		mentioned[m[1]] = true
	}

	for _, c := range []struct {
		what      string
		names, in map[string]bool
	}{
		{"amfserver/amfgateway flags without a README.md table row (add a row per flag)", served, rows},
		{"README.md flag rows for flags neither amfserver nor amfgateway defines (delete the row)", rows, served},
		{"README.md names flags no binary under cmd/ defines", mentioned, known},
	} {
		if bad := namesNotIn(c.names, c.in); len(bad) > 0 {
			t.Errorf("%s:\n  %s", c.what, strings.Join(bad, "\n  "))
		}
	}
}
