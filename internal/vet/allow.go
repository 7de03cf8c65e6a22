package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"slices"
	"strings"
)

// An allow is one "pythia:allow <analyzer> <reason>" comment, the single way
// to accept a finding. A comment trailing code accepts the named analyzer's
// findings on its own line; a comment on a line of its own may sit anywhere
// in a comment block and accepts the findings on the line just after that
// block, so a justification can run over several lines next to the code it
// excuses. Keyed by what it annotates rather than by a line number, an allow
// moves with its code.
type allow struct {
	pos    token.Position // the comment itself
	key    allowKey       // the findings it accepts
	reason bool           // some text follows the analyzer name
	used   bool
}

// allowKey names the findings one allow accepts.
type allowKey struct {
	file     string
	line     int
	analyzer string
}

// applyAllows drops the findings an allow accepts and adds one "allow"
// diagnostic for each allow that is itself wrong: it names an unknown
// analyzer, gives no reason, or accepts no finding — a fixed finding must
// take its excuse with it, or the excuse would mask a later regression on
// the same line. Allows for a known analyzer that did not run are not
// judged.
func applyAllows(m *Module, analyzers []*Analyzer, diags []Diagnostic) (out []Diagnostic, allowed int) {
	ran := make(map[string]bool)
	for _, a := range Analyzers() {
		ran[a.Name] = slices.Contains(analyzers, a)
	}
	report := func(a *allow, format string, args ...any) {
		out = append(out, Diagnostic{Pos: a.pos, Analyzer: "allow", Message: "pythia:allow " + fmt.Sprintf(format, args...)})
	}
	var live []*allow
	byKey := make(map[allowKey]*allow)
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			for _, a := range fileAllows(m.Fset, f) {
				didRun, known := ran[a.key.analyzer]
				switch {
				case !known:
					report(a, "names unknown analyzer %q", a.key.analyzer)
				case didRun && !a.reason:
					report(a, "%s gives no reason (say why the finding is acceptable)", a.key.analyzer)
				case didRun:
					live = append(live, a)
					byKey[a.key] = a
				}
			}
		}
	}
	for _, d := range diags {
		if a := byKey[allowKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}]; a != nil {
			a.used = true
			allowed++
		} else {
			out = append(out, d)
		}
	}
	for _, a := range live {
		if !a.used {
			report(a, "%s accepts no finding on line %d (fixed? remove the comment)", a.key.analyzer, a.key.line)
		}
	}
	return out, allowed
}

// fileAllows returns the allow comments of f.
func fileAllows(fset *token.FileSet, f *ast.File) []*allow {
	var out []*allow
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			fields := strings.Fields(strings.TrimPrefix(c.Text, "//"))
			if len(fields) == 0 || fields[0] != "pythia:allow" {
				continue
			}
			fields = append(fields, "") // a missing analyzer name reads as ""
			a := &allow{pos: fset.Position(c.Pos()), reason: len(fields) > 3}
			a.key = allowKey{a.pos.Filename, fset.Position(cg.End()).Line + 1, fields[1]}
			if trailsCode(fset, f, c) {
				a.key.line = a.pos.Line
			}
			out = append(out, a)
		}
	}
	return out
}

// trailsCode reports whether some syntax ends on c's line before c starts.
func trailsCode(fset *token.FileSet, f *ast.File, c *ast.Comment) bool {
	trails := false
	ast.Inspect(f, func(n ast.Node) bool {
		if _, doc := n.(*ast.CommentGroup); n == nil || doc || trails || n.Pos() >= c.Pos() {
			return false
		}
		if n.End() <= c.Pos() { // nothing inside n ends later than n does
			trails = fset.Position(n.End()).Line == fset.Position(c.Pos()).Line
			return false
		}
		return true
	})
	return trails
}
