package vet

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoroutineLifecycle requires every `go` statement in library packages to
// be *joined*: the spawner (or a drain path of the same type) must be able
// to wait for the goroutine to exit, via
//
//   - a sync.WaitGroup: the goroutine calls Done and the spawning function
//     (or the body itself) calls Add; or
//   - a join channel: the goroutine closes or sends on a channel that is
//     received from — by the spawning function (the inline drain handshake)
//     or, for a channel stored in a named type's field, by any function in
//     the package (the Close/drain method pattern: `stop`/`done` fields
//     signalled in run and received in close).
//
// A goroutine that merely *receives* a quit/stop signal (a select on a
// quit channel, ranging over its work channel) can be told to stop but
// nobody can tell when it has: Close returns while the goroutine still
// runs — the bug class behind the PR 9 lifecycle review, where a
// quit-signalled manager goroutine outlived its session's drain. Such
// goroutines are flagged with a join-specific message. Untracked
// goroutines (no signal, no join) remain the PR 5 drain-leak class. When
// the callee is a named function its body is resolved through the call
// graph and checked the same way; a goroutine whose body cannot be seen
// statically (a function value) is flagged.
//
// Deliberately detached goroutines carry a "pythia:detached" annotation —
// on the line above the `go` statement or in the enclosing function's doc
// comment — with a justification.
var GoroutineLifecycle = &Analyzer{
	Name: "goroutine-lifecycle",
	Doc:  "library goroutines must be joined on drain (and may be quit-signalled), or annotated pythia:detached",
	Run:  runGoroutineLifecycle,
}

// tie levels, weakest first: untracked, stoppable-but-unjoined, joined.
const (
	tieNone = iota
	tieSignalled
	tieJoined
)

func runGoroutineLifecycle(pass *Pass) {
	if !isLibraryPackage(pass.Pkg.Path) {
		return
	}
	for _, file := range pass.Pkg.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if hasAnnotation(fd.Doc, "detached") {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				gs, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if detachedAt(pass.Pkg, file, gs) {
					return true
				}
				switch goroutineTie(pass, fd, gs) {
				case tieJoined:
				case tieSignalled:
					pass.Reportf(gs.Pos(),
						"goroutine is quit-signalled but never joined: nothing waits for it to exit, so a drain can return while it still runs (close or send on a done channel a drain path receives from, or tie it to a WaitGroup; annotate pythia:detached if the leak is deliberate)")
				default:
					pass.Reportf(gs.Pos(),
						"goroutine is not tied to a WaitGroup, a quit/stop channel, or a join channel the spawner waits on (annotate pythia:detached with a justification if the leak is deliberate)")
				}
				return true
			})
			checkRetryLoops(pass, fd)
		}
	}
}

// checkRetryLoops flags unjittered, unbounded retry loops: an uncounted
// `for` (no init/post — `for {}` or `for cond {}`) whose body sleeps a
// compile-time constant duration and never touches a channel. Such a loop
// retries forever in lockstep — it cannot be told to stop (no quit/ctx
// select) and a fleet of them hammers the contended resource at the exact
// same cadence (no backoff, no jitter). A computed Sleep argument is taken
// as backoff (transport.Park's capped exponential delay is the house
// pattern); a select or channel receive anywhere in the loop is taken as a
// quit check. Counted loops are bounded retries and stay legal.
func checkRetryLoops(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		loop, ok := n.(*ast.ForStmt)
		if !ok || loop.Init != nil || loop.Post != nil {
			return true
		}
		if !sleepsConstant(pass.Pkg, loop.Body) || receivesFromChannel(pass.Pkg, loop.Body) {
			return true
		}
		pass.Reportf(loop.Pos(),
			"unbounded retry loop sleeps a constant interval with no quit/ctx check (add jittered backoff and select on a done channel, or bound the attempts)")
		return true
	})
}

// sleepsConstant reports a time.Sleep call in body whose argument is a
// compile-time constant — the signature of a fixed-cadence retry, as
// opposed to a computed backoff delay.
func sleepsConstant(pkg *Package, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return !found
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Sleep" {
			return !found
		}
		fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
			return !found
		}
		if tv, typed := pkg.Info.Types[call.Args[0]]; typed && tv.Value != nil {
			found = true
		}
		return !found
	})
	return found
}

// detachedAt reports a "pythia:detached" comment block ending on the line
// just above the go statement (or trailing on the same line). The
// annotation may sit anywhere in the block, so a multi-line justification
// still counts.
func detachedAt(pkg *Package, file *ast.File, gs *ast.GoStmt) bool {
	goLine := pkg.Fset.Position(gs.Pos()).Line
	for _, cg := range file.Comments {
		if !hasAnnotation(cg, "detached") {
			continue
		}
		line := pkg.Fset.Position(cg.End()).Line
		if line == goLine || line == goLine-1 {
			return true
		}
	}
	return false
}

// goroutineTie classifies the lifecycle tie of the goroutine spawned by
// gs: joined (exit observable), signalled only (stoppable but nothing
// waits for the exit), or untracked.
func goroutineTie(pass *Pass, fd *ast.FuncDecl, gs *ast.GoStmt) int {
	var body *ast.BlockStmt
	bodyPkg := pass.Pkg
	switch fun := ast.Unparen(gs.Call.Fun).(type) {
	case *ast.FuncLit:
		body = fun.Body
	default:
		_ = fun
		if callee := StaticCallee(pass.Pkg.Info, gs.Call); callee != nil {
			if node := pass.Facts.Graph().NodeOf(callee); node != nil {
				body = node.Decl.Body
				bodyPkg = node.Pkg
			}
		}
	}
	if body == nil {
		return tieNone // body invisible: require the annotation
	}
	if callsWaitGroupMethod(bodyPkg, body, "Done") &&
		(callsWaitGroupMethod(pass.Pkg, fd.Body, "Add") || callsWaitGroupMethod(bodyPkg, body, "Add")) {
		return tieJoined
	}
	if signalsJoin(pass, bodyPkg, body, fd, gs) {
		return tieJoined
	}
	if receivesFromChannel(bodyPkg, body) {
		return tieSignalled
	}
	return tieNone
}

// receivesFromChannel reports a channel receive anywhere in body: a <-ch
// expression, a select statement, or ranging over a channel. Any of these
// gives the spawner a way to signal or starve the goroutine.
func receivesFromChannel(pkg *Package, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.SelectStmt:
			found = true
		case *ast.RangeStmt:
			if t := pkg.Info.Types[n.X].Type; t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

func callsWaitGroupMethod(pkg *Package, body *ast.BlockStmt, method string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if ok && sel.Sel.Name == method && isWaitGroup(pkg.Info.Types[sel.X].Type) {
			found = true
		}
		return !found
	})
	return found
}

// isWaitGroup reports sync.WaitGroup (possibly behind a pointer).
func isWaitGroup(t types.Type) bool {
	tn := typeName(t)
	return tn != nil && tn.Pkg().Path() == "sync" && tn.Name() == "WaitGroup"
}

// signalsJoin reports that the goroutine closes or sends on a channel
// somebody waits on: the enclosing function (the inline join-handshake
// pattern, `done := make(chan ...); go func() { ...; close(done) }();
// <-done`) or — when the channel is a field of a named type — any function
// in the spawning or body package (the Close/drain method pattern, where
// run closes l.done and close receives from it).
func signalsJoin(pass *Pass, bodyPkg *Package, body *ast.BlockStmt, fd *ast.FuncDecl, gs *ast.GoStmt) bool {
	signalled := make(map[string]bool)
	fields := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			signalled[exprString(bodyPkg, n.Chan)] = true
			if k := fieldChanKey(bodyPkg, n.Chan); k != "" {
				fields[k] = true
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
				if _, builtin := bodyPkg.Info.Uses[id].(*types.Builtin); builtin {
					signalled[exprString(bodyPkg, n.Args[0])] = true
					if k := fieldChanKey(bodyPkg, n.Args[0]); k != "" {
						fields[k] = true
					}
				}
			}
		}
		return true
	})
	if len(signalled) == 0 {
		return false
	}
	tied := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == gs {
			return false // the goroutine's own receives don't join it
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && signalled[exprString(pass.Pkg, n.X)] {
				tied = true
			}
		case *ast.RangeStmt:
			if t := pass.Pkg.Info.Types[n.X].Type; t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok && signalled[exprString(pass.Pkg, n.X)] {
					tied = true
				}
			}
		}
		return !tied
	})
	if tied || len(fields) == 0 {
		return tied
	}
	// The drain path for a field channel may live anywhere in the package
	// (typically a Close/close method); the goroutine's own body does not
	// count as its joiner.
	if packageReceivesField(pass.Pkg, fields, body) {
		return true
	}
	return bodyPkg != pass.Pkg && packageReceivesField(bodyPkg, fields, body)
}

// fieldChanKey returns a stable "pkg.Type.field" key when expr selects a
// channel field of a named type (through a pointer or not); "" otherwise.
func fieldChanKey(pkg *Package, expr ast.Expr) string {
	sel, ok := ast.Unparen(expr).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	t := pkg.Info.Types[sel.X].Type
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + sel.Sel.Name
}

// packageReceivesField reports a receive (or channel range) over any of
// the field-channel keys anywhere in pkg, outside the goroutine body
// itself.
func packageReceivesField(pkg *Package, fields map[string]bool, body *ast.BlockStmt) bool {
	found := false
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if found {
				return false
			}
			if n != nil && n.Pos() >= body.Pos() && n.End() <= body.End() {
				return false // inside the goroutine body: not a joiner
			}
			switch n := n.(type) {
			case *ast.UnaryExpr:
				if n.Op == token.ARROW && fields[fieldChanKey(pkg, n.X)] {
					found = true
				}
			case *ast.RangeStmt:
				if t := pkg.Info.Types[n.X].Type; t != nil {
					if _, ok := t.Underlying().(*types.Chan); ok && fields[fieldChanKey(pkg, n.X)] {
						found = true
					}
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}
