// Package vet implements pythia-vet, a repo-specific static-analysis pass
// over the Pythia code base. The analyzers mechanically enforce the
// correctness properties the oracle depends on — an allocation-lean hot path,
// disciplined lock usage around event submission, a strict panic policy in
// library code and no silently discarded errors — instead of trusting code
// review to catch regressions.
//
// The tool is built exclusively on the standard library (go/ast, go/parser,
// go/token, go/types): see LoadModule for how the module is parsed and
// type-checked without golang.org/x/tools.
package vet

import (
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding of one analyzer.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Position
	// Analyzer is the reporting analyzer's name.
	Analyzer string
	// Message describes the finding.
	Message string
}

// Format renders the diagnostic as "file:line: [analyzer] message" with the
// file path relative to root (analysis output must be stable across
// checkouts for the baseline to work).
func (d Diagnostic) Format(root string) string {
	return fmt.Sprintf("%s: [%s] %s", relPosition(root, d.Pos), d.Analyzer, d.Message)
}

// relPosition renders p as "file:line" with the file relative to root when
// it lies inside it.
func relPosition(root string, p token.Position) string {
	file := p.Filename
	if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = filepath.ToSlash(rel)
	}
	return fmt.Sprintf("%s:%d", file, p.Line)
}

// Pass is the per-package analysis context handed to each analyzer.
type Pass struct {
	// Pkg is the package under analysis.
	Pkg *Package
	// Facts is the module-wide shared state (call graph, cached
	// module-level computations). All passes of one RunAnalyzers call
	// share one ModuleFacts, so the call graph is built at most once.
	Facts *ModuleFacts
	// report appends a diagnostic.
	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:     p.Pkg.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// ExprString renders an expression compactly (for messages and for matching
// slice destinations by spelling).
func (p *Pass) ExprString(e ast.Expr) string { return exprString(p.Pkg, e) }

// exprString renders an expression using the package's file set.
func exprString(pkg *Package, e ast.Expr) string {
	var b strings.Builder
	if err := printer.Fprint(&b, pkg.Fset, e); err != nil {
		return "?"
	}
	return b.String()
}

// typeName returns the declared name of t, looking through one pointer, or
// nil when t is not a named type of some package.
func typeName(t types.Type) *types.TypeName {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil {
		return n.Obj()
	}
	return nil
}

// Analyzer is one named check run over every package.
type Analyzer struct {
	// Name appears in diagnostics as [name].
	Name string
	// Doc is a one-line description.
	Doc string
	// Run analyses one package, reporting through pass.Reportf.
	Run func(pass *Pass)
}

// Analyzers returns the full pythia-vet analyzer set in reporting order.
// The first five are the original per-function syntax checks; the last
// four sit on the shared call-graph/value-flow foundation (callgraph.go,
// flow.go) and target the PR 5 review bug classes.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		HotpathAlloc,
		LockDiscipline,
		PanicPolicy,
		ErrorHygiene,
		Containment,
		UntrustedSize,
		AtomicMix,
		GoroutineLifecycle,
		LockOrder,
	}
}

// SelectAnalyzers resolves a comma-separated analyzer name list against
// the registry, preserving registry order. An empty list selects all.
func SelectAnalyzers(names string) ([]*Analyzer, error) {
	all := Analyzers()
	if strings.TrimSpace(names) == "" {
		return all, nil
	}
	want := make(map[string]bool)
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		want[n] = true
	}
	var out []*Analyzer
	for _, a := range all {
		if want[a.Name] {
			out = append(out, a)
			delete(want, a.Name)
		}
	}
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for n := range want {
			unknown = append(unknown, n)
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("vet: unknown analyzer(s): %s", strings.Join(unknown, ", "))
	}
	return out, nil
}

// RunAnalyzers applies every analyzer to every package of the module and
// returns the findings sorted by file, line and analyzer.
func RunAnalyzers(m *Module, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	facts := NewModuleFacts(m)
	for _, pkg := range m.Packages {
		for _, a := range analyzers {
			name := a.Name
			pass := &Pass{
				Pkg:   pkg,
				Facts: facts,
				report: func(d Diagnostic) {
					d.Analyzer = name
					diags = append(diags, d)
				},
			}
			a.Run(pass)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags
}

// funcDecls yields every function declaration of the package together with
// its enclosing file.
func funcDecls(pkg *Package) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				out = append(out, fd)
			}
		}
	}
	return out
}

// hasAnnotation reports whether the doc comment carries the given
// "pythia:<name>" marker line.
func hasAnnotation(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == "pythia:"+name || strings.HasPrefix(text, "pythia:"+name+" ") {
			return true
		}
	}
	return false
}

// isLibraryPackage reports whether the package is library code: everything
// except commands and examples. The panic policy applies only here.
func isLibraryPackage(m string) bool {
	return !strings.Contains(m, "/cmd/") && !strings.Contains(m, "/examples/") &&
		!strings.HasSuffix(m, "/cmd") && !strings.HasSuffix(m, "/examples")
}
