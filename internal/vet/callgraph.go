package vet

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file is the first half of the shared analysis foundation (the other
// is flow.go): a module-wide static call graph over the type-checked ASTs.
// The concurrency analyzers (atomic-mix, goroutine-lifecycle, lock-order)
// are call-graph-aware — a lock held in one function extends over the
// functions it calls, and a goroutine body may live in a named function —
// so per-function syntax checks alone cannot see the PR 5 bug classes they
// target.
//
// The graph is deliberately static and conservative:
//
//   - nodes are the declared functions and methods of the module (one per
//     *types.Func that has a FuncDecl);
//   - edges are direct calls — package functions, qualified pkg.Func calls
//     and concrete method calls resolved through go/types. Interface
//     method calls and calls through function values resolve to no node
//     (the callee set is unknown), and function literals are separate
//     execution contexts, not inlined into their enclosing declaration.
//
// Missing edges make the dependent analyzers miss findings, never invent
// them, which is the right failure mode for a gating tool.

// CallGraph is the module-wide static call graph.
type CallGraph struct {
	// nodes maps each declared function object to its node.
	nodes map[*types.Func]*CallNode
}

// CallNode is one declared function or method of the module.
type CallNode struct {
	// Fn is the function object.
	Fn *types.Func
	// Decl is the declaration carrying the body.
	Decl *ast.FuncDecl
	// Pkg is the package declaring the function.
	Pkg *Package
	// Calls are the direct static call sites within Decl's body, in
	// source order. Callees outside the module have no node.
	Calls []CallSite
	// callers is the reverse adjacency (module-internal callers only).
	callers []*CallSite
}

// CallSite is one static call expression inside a caller's body.
type CallSite struct {
	// Caller is the node containing the call.
	Caller *CallNode
	// Callee is the resolved callee object (may have no node when it is
	// declared outside the module or has no body).
	Callee *types.Func
	// Call is the call expression itself.
	Call *ast.CallExpr
	// Pos locates the call.
	Pos token.Pos
	// InFuncLit reports that the call site sits inside a function literal
	// nested in Caller — it executes when the literal runs, not when the
	// enclosing function does, so region-based analyses must skip it.
	InFuncLit bool
	// Async reports a `go f()` statement: the callee runs on a fresh
	// goroutine holding no locks, so lock regions at the spawn site do not
	// extend into it (and its acquisitions are not nested under them).
	Async bool
}

// BuildCallGraph constructs the static call graph of the module.
func BuildCallGraph(m *Module) *CallGraph {
	g := &CallGraph{nodes: make(map[*types.Func]*CallNode)}
	for _, pkg := range m.Packages {
		for _, fd := range funcDecls(pkg) {
			if fd.Body == nil {
				continue
			}
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			g.nodes[fn] = &CallNode{Fn: fn, Decl: fd, Pkg: pkg}
		}
	}
	for _, node := range g.nodes {
		g.collectCalls(node)
	}
	for _, node := range g.nodes {
		for i := range node.Calls {
			site := &node.Calls[i]
			if callee := g.nodes[site.Callee]; callee != nil {
				callee.callers = append(callee.callers, site)
			}
		}
	}
	return g
}

// collectCalls fills node.Calls with the body's static call sites.
func (g *CallGraph) collectCalls(node *CallNode) {
	info := node.Pkg.Info
	goCalls := make(map[*ast.CallExpr]bool)
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			goCalls[g.Call] = true
		}
		return true
	})
	var walk func(n ast.Node, inLit bool)
	walk = func(n ast.Node, inLit bool) {
		ast.Inspect(n, func(c ast.Node) bool {
			switch c := c.(type) {
			case *ast.FuncLit:
				walk(c.Body, true)
				return false
			case *ast.CallExpr:
				if callee := StaticCallee(info, c); callee != nil {
					node.Calls = append(node.Calls, CallSite{
						Caller:    node,
						Callee:    callee,
						Call:      c,
						Pos:       c.Pos(),
						InFuncLit: inLit,
						Async:     goCalls[c],
					})
				}
			}
			return true
		})
	}
	walk(node.Decl.Body, false)
	sort.SliceStable(node.Calls, func(i, j int) bool {
		return node.Calls[i].Pos < node.Calls[j].Pos
	})
}

// StaticCallee resolves a call expression to its callee function object:
// package functions, qualified pkg.Func references and concrete method
// calls. Interface method calls, builtin calls, type conversions and calls
// through function values yield nil.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil
			}
			f, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil
			}
			// An interface method has no body anywhere in the module; the
			// dynamic callee set is unknown, so resolve to nothing.
			if recv := f.Type().(*types.Signature).Recv(); recv != nil {
				if types.IsInterface(recv.Type()) {
					return nil
				}
			}
			return f
		}
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f // pkg-qualified function reference
		}
	}
	return nil
}

// NodeOf returns the node of a function object, nil when the function is
// not declared (with a body) in the module.
func (g *CallGraph) NodeOf(fn *types.Func) *CallNode {
	if fn == nil {
		return nil
	}
	return g.nodes[fn]
}

// Callers returns the module-internal call sites that target fn.
func (g *CallGraph) Callers(fn *types.Func) []*CallSite {
	if n := g.nodes[fn]; n != nil {
		return n.callers
	}
	return nil
}

// Nodes yields every node sorted by position (deterministic iteration for
// reporting).
func (g *CallGraph) Nodes() []*CallNode {
	out := make([]*CallNode, 0, len(g.nodes))
	for _, n := range g.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Decl.Pos() < out[j].Decl.Pos() })
	return out
}

// ModuleFacts carries the analysis state shared by every Pass of one
// RunAnalyzers call: the call graph, plus per-module caches computed on
// first use by the analyzers that need them (lock-order folds its pair
// table once, not once per package).
type ModuleFacts struct {
	// Mod is the module under analysis.
	Mod *Module

	graph *CallGraph

	// regions caches the lock regions of every function body, shared by
	// lock-discipline, atomic-mix and lock-order (see lockorder.go).
	regions map[*ast.BlockStmt][]lockRegion

	// lockOrderDiags caches the module-wide lock-order computation, keyed
	// by package path (see lockorder.go).
	lockOrderDiags map[string][]Diagnostic
}

// NewModuleFacts returns an empty fact store for m.
func NewModuleFacts(m *Module) *ModuleFacts {
	return &ModuleFacts{Mod: m}
}

// Graph returns the call graph, building it on first use.
func (f *ModuleFacts) Graph() *CallGraph {
	if f.graph == nil {
		f.graph = BuildCallGraph(f.Mod)
	}
	return f.graph
}
