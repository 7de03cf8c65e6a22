package vet

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrorHygiene forbids discarded error returns outside _test.go files (not
// parsed at all) and examples/: neither `_ = f()` / `n, _ := f()` blanking
// an error value nor bare call statements (including defers) whose result
// set contains an error.
//
// A small allowlist covers calls whose error is structurally dead: the fmt
// print family writing to stdout/stderr, and writers documented to never
// fail (strings.Builder, bytes.Buffer).
var ErrorHygiene = &Analyzer{
	Name: "error-hygiene",
	Doc:  "no discarded error returns outside tests and examples",
	Run:  runErrorHygiene,
}

func runErrorHygiene(pass *Pass) {
	if strings.Contains(pass.Pkg.Path, "/examples/") || strings.HasSuffix(pass.Pkg.Path, "/examples") {
		return
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				checkBareCall(pass, n.X)
			case *ast.DeferStmt:
				checkBareCall(pass, n.Call)
			case *ast.GoStmt:
				checkBareCall(pass, n.Call)
			case *ast.AssignStmt:
				checkBlankedErrors(pass, n)
			}
			return true
		})
	}
}

// checkBareCall flags an expression-statement call that returns an error.
func checkBareCall(pass *Pass, e ast.Expr) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return
	}
	tv, ok := pass.Pkg.Info.Types[call]
	if !ok || tv.Type == nil {
		return
	}
	if !typeCarriesError(tv.Type) {
		return
	}
	if allowlisted(pass, call) {
		return
	}
	pass.Reportf(call.Pos(), "result of %s contains an error that is discarded", calleeName(pass, call))
}

// checkBlankedErrors flags `_` assignments whose corresponding value is an
// error.
func checkBlankedErrors(pass *Pass, as *ast.AssignStmt) {
	blankAt := func(i int) (ast.Expr, bool) {
		if i >= len(as.Lhs) {
			return nil, false
		}
		id, ok := as.Lhs[i].(*ast.Ident)
		if !ok || id.Name != "_" {
			return nil, false
		}
		return as.Lhs[i], true
	}
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		// n, _ := f() — component types come from the call's tuple.
		tv, ok := pass.Pkg.Info.Types[as.Rhs[0]]
		if !ok {
			return
		}
		tuple, ok := tv.Type.(*types.Tuple)
		if !ok {
			return
		}
		if call, isCall := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); isCall && allowlisted(pass, call) {
			return
		}
		for i := 0; i < tuple.Len() && i < len(as.Lhs); i++ {
			if lhs, blank := blankAt(i); blank && isErrorType(tuple.At(i).Type()) {
				pass.Reportf(lhs.Pos(), "error result of %s assigned to _", pass.ExprString(as.Rhs[0]))
			}
		}
		return
	}
	for i, rhs := range as.Rhs {
		lhs, blank := blankAt(i)
		if !blank {
			continue
		}
		tv, ok := pass.Pkg.Info.Types[rhs]
		if !ok || tv.Type == nil {
			continue
		}
		if isErrorType(tv.Type) {
			pass.Reportf(lhs.Pos(), "error value %s assigned to _", pass.ExprString(rhs))
		}
	}
}

// typeCarriesError reports whether t is error or a tuple containing one.
func typeCarriesError(t types.Type) bool {
	if tuple, ok := t.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if isErrorType(tuple.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isErrorType(t)
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// allowlisted reports whether the call's error is structurally dead:
//   - fmt.Print/Printf/Println (stdout never meaningfully fails for a CLI);
//   - fmt.Fprint* writing directly to os.Stdout or os.Stderr;
//   - methods on *strings.Builder and *bytes.Buffer (documented to never
//     return a non-nil error).
func allowlisted(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	info := pass.Pkg.Info
	if id, ok := sel.X.(*ast.Ident); ok {
		if pn, ok := info.Uses[id].(*types.PkgName); ok {
			switch pn.Imported().Path() {
			case "fmt":
				switch sel.Sel.Name {
				case "Print", "Printf", "Println":
					return true
				case "Fprint", "Fprintf", "Fprintln":
					return len(call.Args) > 0 &&
						(isStdStream(info, call.Args[0]) || isSafeWriter(info, call.Args[0]))
				}
			}
			return false
		}
	}
	// Method call: check the receiver's type.
	return isSafeWriter(info, sel.X)
}

// isSafeWriter reports whether e's static type is *strings.Builder,
// *bytes.Buffer or a hash.Hash variant — writers documented to never return
// a non-nil error.
func isSafeWriter(info *types.Info, e ast.Expr) bool {
	if tn := typeName(info.Types[e].Type); tn != nil {
		switch tn.Pkg().Path() + "." + tn.Name() {
		case "strings.Builder", "bytes.Buffer", "hash.Hash", "hash.Hash32", "hash.Hash64":
			return true
		}
	}
	return false
}

// isStdStream reports whether e is the selector os.Stdout or os.Stderr.
func isStdStream(info *types.Info, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == "os" &&
		(sel.Sel.Name == "Stdout" || sel.Sel.Name == "Stderr")
}

// calleeName renders the called function for messages.
func calleeName(pass *Pass, call *ast.CallExpr) string {
	return pass.ExprString(call.Fun)
}
