package repro

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// citingDocs are the documents whose citations TestDocsCiteWhatExists checks.
var citingDocs = []string{
	"README.md",
	"DESIGN.md",
	"EXPERIMENTS.md",
	"bench/README.md",
	"PAPER.md",
	".claude/skills/verify/SKILL.md",
}

var (
	citedTestRE    = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	declaredTestRE = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w+)\(`)
	inlineCodeRE   = regexp.MustCompile("`([^`\n]+)`")
	repoPathRE     = regexp.MustCompile(`^(?:\./)?(?:internal|cmd|examples|pythia|scripts|bench)/`)
)

// TestDocsCiteWhatExists fails when a document names a Test/Benchmark/Fuzz
// function that no _test.go file declares, or writes (in backticks or a
// fenced code block) a repository path that does not exist. bench/out/ holds
// generated reports, so paths under it are not checked.
func TestDocsCiteWhatExists(t *testing.T) {
	declared := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range declaredTestRE.FindAllStringSubmatch(string(src), -1) {
			declared[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range citingDocs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range citedTestRE.FindAllString(string(src), -1) {
			if !declared[name] {
				t.Errorf("%s cites %s, which no _test.go declares", doc, name)
			}
		}
		for _, p := range codePaths(string(src)) {
			if strings.HasPrefix(p, "bench/out/") {
				continue
			}
			if _, err := os.Stat(p); err != nil {
				t.Errorf("%s cites path %s, which does not exist", doc, p)
			}
		}
	}
}

// codePaths returns the repository paths written in the inline code spans
// and fenced code blocks of a markdown document, without a leading "./" or
// a trailing "/..." package pattern. Templated paths (cmd/<tool>,
// internal/{a,b}) are skipped.
func codePaths(doc string) []string {
	var code []string
	fenced := false
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			code = append(code, line)
			continue
		}
		for _, m := range inlineCodeRE.FindAllStringSubmatch(line, -1) {
			code = append(code, m[1])
		}
	}
	var paths []string
	for _, c := range code {
		for _, tok := range strings.FieldsFunc(c, func(r rune) bool {
			return strings.ContainsRune(" \t()[],;:=|'\"", r)
		}) {
			if !repoPathRE.MatchString(tok) || strings.ContainsAny(tok, "*{}<>…$") {
				continue
			}
			tok = strings.TrimSuffix(strings.TrimPrefix(tok, "./"), "/...")
			paths = append(paths, strings.TrimRight(tok, "."))
		}
	}
	return paths
}
