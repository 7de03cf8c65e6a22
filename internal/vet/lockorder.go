package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LockOrder flags cross-function lock-order inversions: somewhere in the
// module lock B is acquired while A is held, and somewhere else A is
// acquired while B is held. Per-function acquisition pairs are folded
// through the static call graph, so an inversion hidden behind a helper
// (f holds A and calls g, which locks B; h holds B and locks A) is found
// even though no single function ever touches both locks — the
// accept/drain shutdown race in PR 5 was exactly a cross-function
// ordering bug that intraprocedural checks could not see.
//
// Lock identity is class-based (declaring type + field name, or package +
// variable name for globals), not instance-based: two instances of the
// same class locked AB and BA are reported even though a particular pair
// of instances might never deadlock. Same-class nesting (hand-over-hand)
// is not reported, since the class gives no order between instances.
//
// The analyzer computes its pair table once per module (cached in
// ModuleFacts) and emits each package's share of the findings.
var LockOrder = &Analyzer{
	Name: "lock-order",
	Doc:  "no AB/BA lock-order inversions across the static call graph",
	Run:  runLockOrder,
}

func runLockOrder(pass *Pass) {
	facts := pass.Facts
	if facts.lockOrderDiags == nil {
		facts.lockOrderDiags = computeLockOrder(facts)
	}
	for _, d := range facts.lockOrderDiags[pass.Pkg.Path] {
		pass.report(d)
	}
}

// ---------------------------------------------------------------------------
// Shared lock-region machinery (also used by lock-discipline and atomic-mix).

// lockRegion is one held span of a mutex inside one function body.
// Function literals are separate execution contexts and get their own
// region lists.
type lockRegion struct {
	class    string    // module-wide identity, e.g. "server.Server.mu"; "" for a local mutex
	recv     string    // receiver spelling, e.g. "s.mu"
	rlock    bool      // RLock/RUnlock region
	deferred bool      // the acquisition itself is deferred to function exit
	released bool      // a matching release follows the acquisition or is deferred
	start    token.Pos // acquisition site
	end      token.Pos // matching release, or scope end for deferred/missing
}

// covers reports whether pos falls inside the held span.
func (r lockRegion) covers(pos token.Pos) bool { return pos > r.start && pos < r.end }

// lockRegions returns the held regions of body, computing them on first use.
func (f *ModuleFacts) lockRegions(pkg *Package, body *ast.BlockStmt) []lockRegion {
	if got, ok := f.regions[body]; ok {
		return got
	}
	if f.regions == nil {
		f.regions = make(map[*ast.BlockStmt][]lockRegion)
	}
	r := lockRegionsIn(pkg, body)
	f.regions[body] = r
	return r
}

// lockRegionsIn computes the held regions of body, treating nested
// function literals as opaque (their regions belong to the literal, not
// to this body).
//
// An acquisition's region ends at the first matching release at the same
// or shallower block depth. A release buried deeper — the early-return
// `if done { mu.Unlock(); return }` idiom — does not close the region for
// the fall-through path; when only such releases exist the region runs to
// the last of them (or, with none at all, to the end of the body, which
// also covers deferred unlocks).
func lockRegionsIn(pkg *Package, body *ast.BlockStmt) []lockRegion {
	// Block nesting intervals, for computing the depth of each op.
	var blocks []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.BlockStmt, *ast.CaseClause, *ast.CommClause:
			blocks = append(blocks, n)
		}
		return true
	})
	depthOf := func(pos token.Pos) int {
		d := 0
		for _, b := range blocks {
			if pos > b.Pos() && pos < b.End() {
				d++
			}
		}
		return d
	}

	type acquireRelease struct {
		pos      token.Pos
		depth    int
		class    string
		recv     string
		kind     string // "Lock", "RLock", "Unlock", "RUnlock"
		deferred bool
	}
	var ops []acquireRelease
	var collect func(n ast.Node, deferred bool)
	collect = func(n ast.Node, deferred bool) {
		ast.Inspect(n, func(c ast.Node) bool {
			switch c := c.(type) {
			case *ast.FuncLit:
				return false
			case *ast.DeferStmt:
				collect(c.Call, true)
				return false
			case *ast.CallExpr:
				sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				switch sel.Sel.Name {
				case "Lock", "Unlock", "RLock", "RUnlock":
					if !isSyncMutex(pkg.Info.Types[sel.X].Type) {
						return true
					}
					ops = append(ops, acquireRelease{
						pos:      c.Pos(),
						depth:    depthOf(c.Pos()),
						class:    lockClassOf(pkg, sel.X),
						recv:     exprString(pkg, sel.X),
						kind:     sel.Sel.Name,
						deferred: deferred,
					})
				}
			}
			return true
		})
	}
	collect(body, false)
	sort.Slice(ops, func(i, j int) bool { return ops[i].pos < ops[j].pos })

	var regions []lockRegion
	for _, op := range ops {
		var want string
		switch op.kind {
		case "Lock":
			want = "Unlock"
		case "RLock":
			want = "RUnlock"
		default:
			continue
		}
		end := token.NoPos
		var lastDeep token.Pos
		released := false
		for _, rel := range ops {
			if rel.kind != want || rel.class != op.class || rel.recv != op.recv {
				continue
			}
			if rel.deferred {
				released = true
				continue
			}
			if rel.pos <= op.pos {
				continue
			}
			released = true
			if rel.depth <= op.depth {
				end = rel.pos
				break
			}
			lastDeep = rel.pos
		}
		if end == token.NoPos {
			end = body.End()
			if lastDeep != token.NoPos {
				end = lastDeep
			}
		}
		regions = append(regions, lockRegion{
			class:    op.class,
			recv:     op.recv,
			rlock:    op.kind == "RLock",
			deferred: op.deferred,
			released: released,
			start:    op.pos,
			end:      end,
		})
	}
	return regions
}

// lockClassOf names the module-wide identity class of a mutex expression:
// "pkg.Type.field" for struct-field mutexes, "pkg.var" for the package's
// own package-level mutexes. Any other mutex (a local variable, another
// package's variable) has no class the analyzers track: "".
func lockClassOf(pkg *Package, e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		// Field mutex: identify by the declaring struct type.
		if tn := typeName(pkg.Info.Types[e.X].Type); tn != nil {
			return tn.Pkg().Name() + "." + tn.Name() + "." + e.Sel.Name
		}
	case *ast.Ident:
		if v, ok := pkg.Info.Uses[e].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Name() + "." + e.Name
		}
	}
	return ""
}

// baseOf returns the receiver base of a selector chain (s.mu -> s,
// t.o.c.mu -> t.o.c) or the expression itself.
func baseOf(e ast.Expr) ast.Expr {
	if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
		return sel.X
	}
	return e
}

// ---------------------------------------------------------------------------
// Module-wide pair folding.

// lockPair is one observed "B acquired while A held" site.
type lockPair struct {
	held, acquired string
	pos            token.Pos
	pkg            *Package
	via            string // non-empty when B is reached through a call chain
}

// computeLockOrder folds per-function acquisition pairs through the call
// graph and returns the inversion diagnostics grouped by package path.
func computeLockOrder(facts *ModuleFacts) map[string][]Diagnostic {
	graph := facts.Graph()
	nodes := graph.Nodes()

	// transAcquires: every lock class a function may acquire, directly or
	// through the functions it (transitively, statically) calls.
	memo := make(map[*types.Func]map[string]bool)
	onStack := make(map[*types.Func]bool)
	var trans func(fn *types.Func) map[string]bool
	trans = func(fn *types.Func) map[string]bool {
		if got, ok := memo[fn]; ok {
			return got
		}
		node := graph.NodeOf(fn)
		if node == nil || onStack[fn] {
			return nil
		}
		onStack[fn] = true
		defer func() { onStack[fn] = false }()
		out := make(map[string]bool)
		for _, r := range facts.lockRegions(node.Pkg, node.Decl.Body) {
			if r.class != "" {
				out[r.class] = true
			}
		}
		for i := range node.Calls {
			site := &node.Calls[i]
			if site.InFuncLit || site.Async {
				continue // executes when the literal/goroutine runs, not on this call
			}
			for class := range trans(site.Callee) {
				out[class] = true
			}
		}
		memo[fn] = out
		return out
	}

	// Collect ordered pairs: for every held region, every other class
	// acquired inside it — directly or via a static call.
	var pairs []lockPair
	for _, node := range nodes {
		regions := facts.lockRegions(node.Pkg, node.Decl.Body)
		for _, held := range regions {
			if held.class == "" {
				continue // a local mutex orders nothing outside its function
			}
			for _, inner := range regions {
				if inner.class != "" && inner.class != held.class && held.covers(inner.start) {
					pairs = append(pairs, lockPair{
						held: held.class, acquired: inner.class,
						pos: inner.start, pkg: node.Pkg,
					})
				}
			}
			for i := range node.Calls {
				site := &node.Calls[i]
				if site.InFuncLit || site.Async || !held.covers(site.Pos) {
					continue
				}
				for class := range trans(site.Callee) {
					if class == held.class {
						continue
					}
					pairs = append(pairs, lockPair{
						held: held.class, acquired: class,
						pos: site.Pos, pkg: node.Pkg,
						via: site.Callee.Name(),
					})
				}
			}
		}
	}

	// Keep the earliest site per ordered (held, acquired) pair so the
	// report (and the baseline) stays stable as unrelated code moves.
	sort.SliceStable(pairs, func(i, j int) bool { return pairs[i].pos < pairs[j].pos })
	first := make(map[[2]string]lockPair)
	for _, p := range pairs {
		key := [2]string{p.held, p.acquired}
		if _, ok := first[key]; !ok {
			first[key] = p
		}
	}

	out := make(map[string][]Diagnostic)
	emit := func(p, q lockPair) {
		via := ""
		if p.via != "" {
			via = fmt.Sprintf(" (via call to %s)", p.via)
		}
		d := Diagnostic{
			Pos: p.pkg.Fset.Position(p.pos),
			Message: fmt.Sprintf(
				"lock-order inversion: %s acquired while holding %s%s, but %s acquires %s while holding %s",
				p.acquired, p.held, via, relPosition(facts.Mod.Root, q.pkg.Fset.Position(q.pos)), p.held, p.acquired),
		}
		out[p.pkg.Path] = append(out[p.pkg.Path], d)
	}
	seen := make(map[[2]string]bool)
	for key, p := range first {
		rev := [2]string{key[1], key[0]}
		q, inverted := first[rev]
		if !inverted {
			continue
		}
		ordered := key
		if ordered[0] > ordered[1] {
			ordered = rev
		}
		if seen[ordered] {
			continue
		}
		seen[ordered] = true
		emit(p, q)
		emit(q, p)
	}
	return out
}
