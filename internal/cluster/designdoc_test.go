package cluster

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDesignCitations is the design-doc lint, a sibling of
// TestMetricsDocumented: code comments, README.md, ROADMAP.md and the
// verify skill cite DESIGN.md sections by quoted title, and every such
// title must still name a DESIGN.md heading (a trailing parenthetical,
// such as the PR that wrote it, may be left off) or the bold or italic
// title that opens one of its paragraphs (cited up to its first colon or
// parenthetical). A section renamed or folded away breaks `go test`
// instead of leaving its citations pointing at nothing. CHANGES.md is
// history and cites sections as they were then, so it is not read.
func TestDesignCitations(t *testing.T) {
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatalf("read DESIGN.md: %v", err)
	}
	titles := map[string]bool{}
	emphasis := regexp.MustCompile(`^\*\*([^*]+)\*\*|^\*([^*\s][^*]*)\*`)
	for _, line := range strings.Split(string(design), "\n") {
		if h, ok := strings.CutPrefix(line, "#"); ok {
			addTitle(titles, strings.TrimLeft(h, "#"))
		} else if m := emphasis.FindStringSubmatch(line); m != nil {
			addTitle(titles, m[1]+m[2])
		}
	}

	var files []string
	err = filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, "../../README.md", "../../ROADMAP.md", "../../.claude/skills/verify/SKILL.md")

	// A citation may wrap: lines are joined, comment markers dropped.
	wrap := regexp.MustCompile(`\n[ \t]*(?://)?[ \t]*`)
	after := regexp.MustCompile(`DESIGN\.md(?:'s)?(?:,?[ \t]+\(?|\()("[^"]+"(?:,[ \t]*"[^"]+")*)`)
	before := regexp.MustCompile(`"([^"]+)"[ \t]+in[ \t]+DESIGN\.md`)
	quoted := regexp.MustCompile(`"([^"]+)"`)
	cited := 0
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		text := wrap.ReplaceAllString(string(src), " ")
		var got []string
		for _, m := range after.FindAllStringSubmatch(text, -1) {
			for _, q := range quoted.FindAllStringSubmatch(m[1], -1) {
				got = append(got, q[1])
			}
		}
		for _, m := range before.FindAllStringSubmatch(text, -1) {
			got = append(got, m[1])
		}
		for _, title := range got {
			cited++
			if !titles[title] {
				t.Errorf("%s cites DESIGN.md %q, which is no heading or paragraph title there", strings.TrimPrefix(path, "../../"), title)
			}
		}
	}
	// The patterns must keep finding the citations that exist.
	if cited < 20 {
		t.Fatalf("found only %d DESIGN.md citations — patterns out of date?", cited)
	}
}

// addTitle records a heading or paragraph title under each name a
// citation may use: whole, up to its first colon, and without a
// trailing parenthetical.
func addTitle(titles map[string]bool, title string) {
	title = strings.TrimSuffix(strings.TrimSpace(title), ".")
	titles[title] = true
	if head, _, ok := strings.Cut(title, ":"); ok {
		titles[head] = true
	}
	if i := strings.LastIndex(title, " ("); i > 0 && strings.HasSuffix(title, ")") {
		titles[title[:i]] = true
	}
}
