package vet

import (
	"go/ast"
	"go/token"
)

// Containment enforces the fail-open contract on types whose doc comment
// carries the "pythia:contained" marker: every exported method must route
// through the panic-containment wrapper — a deferred call to Contain or
// ContainTo — so an internal bug degrades the oracle instead of crashing
// the host runtime. Pure accessors that cannot panic (no calls, no
// indexing) are individually accepted with a pythia:allow containment
// comment, keeping the exception list reviewed rather than implicit.
var Containment = &Analyzer{
	Name: "containment",
	Doc:  "exported methods of pythia:contained types must defer a containment wrapper",
	Run:  runContainment,
}

func runContainment(pass *Pass) {
	contained := containedTypes(pass.Pkg)
	if len(contained) == 0 {
		return
	}
	for _, fd := range funcDecls(pass.Pkg) {
		if fd.Recv == nil || fd.Body == nil || !fd.Name.IsExported() {
			continue
		}
		recv := receiverTypeName(fd.Recv)
		if !contained[recv] {
			continue
		}
		if !hasDeferredContain(fd.Body) {
			pass.Reportf(fd.Pos(),
				"exported method %s.%s on a pythia:contained type has no deferred Contain/ContainTo (panic here crashes the host runtime)",
				recv, fd.Name.Name)
		}
	}
}

// containedTypes collects the names of types in the package whose doc
// comment (on the spec or its enclosing declaration) carries the
// "pythia:contained" marker.
func containedTypes(pkg *Package) map[string]bool {
	out := map[string]bool{}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				doc := ts.Doc
				if doc == nil {
					doc = gd.Doc
				}
				if hasAnnotation(doc, "contained") {
					out[ts.Name.Name] = true
				}
			}
		}
	}
	return out
}

// receiverTypeName extracts the base type name of a method receiver
// ("*Thread" and "Thread" both yield "Thread").
func receiverTypeName(recv *ast.FieldList) string {
	if len(recv.List) == 0 {
		return ""
	}
	t := recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// hasDeferredContain reports whether the body contains a defer statement
// whose callee is named Contain or ContainTo (any receiver chain).
func hasDeferredContain(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		ds, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(ds.Call.Fun).(type) {
		case *ast.SelectorExpr:
			if fun.Sel.Name == "Contain" || fun.Sel.Name == "ContainTo" {
				found = true
			}
		case *ast.Ident:
			if fun.Name == "Contain" || fun.Name == "ContainTo" {
				found = true
			}
		}
		return true
	})
	return found
}
