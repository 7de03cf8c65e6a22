package vet

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// internalPanicPrefix marks a panic as a documented internal-invariant
// violation: a condition the library itself guarantees can never hold, so
// reaching it means Pythia has a bug (not that the caller misused the API).
const internalPanicPrefix = "pythia: internal"

// PanicPolicy forbids panic in library packages (everything outside cmd/ and
// examples/) unless the panic message is a string constant prefixed
// "pythia: internal" — the marker for documented invariant violations.
// API-misuse panics (argument validation, mode confusion) must either become
// error returns or be individually accepted with a pythia:allow
// panic-policy comment.
var PanicPolicy = &Analyzer{
	Name: "panic-policy",
	Doc:  "library panics must be documented invariant violations",
	Run:  runPanicPolicy,
}

func runPanicPolicy(pass *Pass) {
	if !isLibraryPackage(pass.Pkg.Path) {
		return
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok || id.Name != "panic" {
				return true
			}
			if _, builtin := pass.Pkg.Info.Uses[id].(*types.Builtin); !builtin {
				return true
			}
			if len(call.Args) != 1 {
				return true
			}
			msg, constant := panicMessage(pass, call.Args[0])
			switch {
			case !constant:
				pass.Reportf(call.Pos(), "panic with non-constant message in library code (use a %q-prefixed literal or return an error)", internalPanicPrefix)
			case !strings.HasPrefix(msg, internalPanicPrefix):
				pass.Reportf(call.Pos(), "panic %q in library code is not marked %q (make it an invariant panic or return an error)", truncate(msg, 40), internalPanicPrefix)
			}
			return true
		})
	}
}

// panicMessage extracts the leading string constant of a panic argument:
// a literal, a literal concatenation, or the format string of fmt.Sprintf /
// fmt.Errorf. constant is false when no leading literal can be determined.
func panicMessage(pass *Pass, arg ast.Expr) (msg string, constant bool) {
	switch e := ast.Unparen(arg).(type) {
	case *ast.BasicLit:
		if s, err := strconv.Unquote(e.Value); err == nil {
			return s, true
		}
	case *ast.BinaryExpr:
		// "prefix" + dynamic: judge by the leftmost operand.
		return panicMessage(pass, e.X)
	case *ast.CallExpr:
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok {
				if pn, ok := pass.Pkg.Info.Uses[id].(*types.PkgName); ok &&
					pn.Imported().Path() == "fmt" && len(e.Args) > 0 &&
					(sel.Sel.Name == "Sprintf" || sel.Sel.Name == "Errorf" || sel.Sel.Name == "Sprint") {
					return panicMessage(pass, e.Args[0])
				}
			}
		}
	}
	return "", false
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
