package vet

import (
	"go/ast"
	"go/types"
	"strings"
)

// LockDiscipline checks mutex usage in every package that locks a
// sync.Mutex / sync.RWMutex (internal/core, internal/events, the simulated
// runtimes). Two rules, both over the lock regions atomic-mix and
// lock-order use (lockRegionsIn):
//
//  1. pairing — every Lock()/RLock() must have a matching same-function
//     Unlock()/RUnlock() on the same receiver, either deferred or called
//     later in the function (conditional unlock paths count);
//  2. no submission under a lock — calling back into the oracle
//     (core.Thread Submit/SubmitAt) while holding a lock couples the
//     caller's locking protocol to the oracle's per-event cost and is a
//     deadlock hazard once the oracle itself synchronises. The held region
//     ends at the first matching release at the same or a shallower block
//     depth, so an early-return `if done { mu.Unlock(); return }` does not
//     end it for the fall-through path (a deferred or missing release runs
//     it to the end of the function).
//
// Function literals are independent scopes: a goroutine body must satisfy
// the discipline on its own.
var LockDiscipline = &Analyzer{
	Name: "lock-discipline",
	Doc:  "Lock/Unlock pairing and no Thread.Submit under a held lock",
	Run:  runLockDiscipline,
}

func runLockDiscipline(pass *Pass) {
	for _, fd := range funcDecls(pass.Pkg) {
		if fd.Body != nil {
			checkLockScope(pass, fd.Name.Name, fd.Body)
		}
	}
}

// checkLockScope analyses one function-like body, recursing into nested
// function literals as separate scopes.
func checkLockScope(pass *Pass, name string, body *ast.BlockStmt) {
	var submits []*ast.SelectorExpr
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkLockScope(pass, name+" (func literal)", n.Body)
			return false
		case *ast.CallExpr:
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if ok && (sel.Sel.Name == "Submit" || sel.Sel.Name == "SubmitAt") &&
				isOracleThread(pass.Pkg.Info.Types[sel.X].Type) {
				submits = append(submits, sel)
			}
		}
		return true
	})
	for _, r := range pass.Facts.lockRegions(pass.Pkg, body) {
		lock, unlock := "Lock", "Unlock"
		if r.rlock {
			lock, unlock = "RLock", "RUnlock"
		}
		switch {
		case r.deferred:
			pass.Reportf(r.start, "%s: deferred %s.%s() acquires a lock at function exit", name, r.recv, lock)
		case !r.released:
			pass.Reportf(r.start, "%s: %s.%s() without a matching same-function %s", name, r.recv, lock, unlock)
		}
		for _, sub := range submits {
			if r.covers(sub.Pos()) {
				pass.Reportf(sub.Pos(), "%s: Thread.%s called while holding %s (no oracle submission under a lock)",
					name, sub.Sel.Name, r.recv)
			}
		}
	}
}

// isSyncMutex reports whether t is sync.Mutex or sync.RWMutex (possibly via
// pointer).
func isSyncMutex(t types.Type) bool {
	tn := typeName(t)
	return tn != nil && tn.Pkg().Path() == "sync" && (tn.Name() == "Mutex" || tn.Name() == "RWMutex")
}

// isOracleThread reports whether t is the oracle thread handle
// (internal/core.Thread, aliased as pythia.Thread), possibly via pointer.
func isOracleThread(t types.Type) bool {
	tn := typeName(t)
	return tn != nil && tn.Name() == "Thread" &&
		(strings.HasSuffix(tn.Pkg().Path(), "internal/core") || strings.HasSuffix(tn.Pkg().Path(), "/pythia"))
}
