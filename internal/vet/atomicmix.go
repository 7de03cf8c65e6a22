package vet

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// AtomicMix flags struct fields with an inconsistent synchronization
// discipline — the Submit/Health and accept/drain race classes from the
// PR 5 review. Two rules, both over every access to the unexported fields
// of the package's structs:
//
//  1. A field accessed through sync/atomic in one place and by a plain
//     load or store in another. Mixing the two is a data race even when
//     the plain access sits under a mutex, because the atomic side does
//     not take that mutex.
//
//  2. A field written under a mutex in one place and accessed outside any
//     region of that mutex elsewhere. Lock coverage is call-graph-aware:
//     a helper documented "caller holds mu" counts as covered when every
//     static call site in the module holds mu (or is itself such a
//     helper), so the flushLocked pattern does not false-positive.
//
// Suppressors, all in the "miss rather than invent" direction:
//
//   - accesses through a receiver that is a local, not-yet-published value
//     (constructor initialization before the value escapes);
//   - fields of sync.* / sync/atomic types (self-synchronizing);
//   - exported fields (cross-package accesses are out of scope);
//   - fields with no lock-covered write at all (rule 2 cannot tell
//     single-goroutine state from a missing lock, so it stays silent).
//
// Justified exceptions go in the baseline with a comment.
var AtomicMix = &Analyzer{
	Name: "atomic-mix",
	Doc:  "one synchronization discipline per struct field (atomic xor plain, locked xor not)",
	Run:  runAtomicMix,
}

// fieldAccess is one syntactic access to a tracked field.
type fieldAccess struct {
	pos         token.Pos
	pkg         *Package
	fn          *types.Func // enclosing declared function (nil in a literal)
	write       bool
	atomic      bool // performed through a sync/atomic function
	unpublished bool // receiver is a local value that has not escaped yet
	direct      *classSet
	topLevel    bool // outside any function literal (fn coverage applies)
}

func runAtomicMix(pass *Pass) {
	fields := packageStructFields(pass.Pkg)
	if len(fields) == 0 {
		return
	}
	am := newAtomicMixer(pass.Facts)
	accesses := make(map[*types.Var][]fieldAccess)
	for _, fd := range funcDecls(pass.Pkg) {
		if fd.Body == nil {
			continue
		}
		fn, _ := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
		am.collectAccesses(pass.Pkg, fd, fn, fields, accesses)
	}

	names := make([]*types.Var, 0, len(accesses))
	for f := range accesses {
		names = append(names, f)
	}
	sort.Slice(names, func(i, j int) bool { return names[i].Pos() < names[j].Pos() })
	for _, f := range names {
		accs := accesses[f]
		sort.Slice(accs, func(i, j int) bool { return accs[i].pos < accs[j].pos })
		am.checkField(pass, fields[f], accs)
	}
}

// checkField applies both mixing rules to one field's accesses.
func (am *atomicMixer) checkField(pass *Pass, display string, accs []fieldAccess) {
	var firstAtomic *fieldAccess
	for i := range accs {
		if accs[i].atomic {
			firstAtomic = &accs[i]
			break
		}
	}

	// Rule 1: atomic somewhere, plain elsewhere.
	if firstAtomic != nil {
		for i := range accs {
			a := &accs[i]
			if a.atomic || a.unpublished {
				continue
			}
			kind := "load"
			if a.write {
				kind = "store"
			}
			pass.Reportf(a.pos,
				"field %s is accessed via sync/atomic at %s but by a plain %s here (one discipline per field)",
				display, am.relPos(firstAtomic), kind)
		}
		return // rule 2 would double-report the same sites
	}

	// Rule 2: written under a mutex somewhere, accessed outside it elsewhere.
	// A class becomes a guard candidate only on strong evidence that the
	// author meant it to guard this field: a write directly inside one of
	// its regions (an explicit lock in the same function), or propagated
	// coverage by a mutex living on the same struct as the field. Coverage
	// merely inherited from distant callers of an unrelated struct (a stack
	// cursor whose methods happen to run under a client's lock) nominates
	// nothing.
	ownerPrefix := pass.Pkg.Types.Name() + "." + strings.SplitN(display, ".", 2)[0] + "."
	guards := make(map[string]bool)
	covs := make([]*classSet, len(accs))
	for i := range accs {
		a := &accs[i]
		if a.unpublished {
			continue
		}
		covs[i] = a.direct
		if a.topLevel && a.fn != nil {
			covs[i] = covs[i].union(am.fnCoverage(a.fn))
		}
		if a.write {
			for c := range a.direct.m {
				guards[c] = true
			}
			for c := range covs[i].m {
				if strings.HasPrefix(c, ownerPrefix) {
					guards[c] = true
				}
			}
		}
	}
	if len(guards) == 0 {
		return
	}
	// Consistent discipline: some candidate covers every access.
	for class := range guards {
		all := true
		for i := range accs {
			if !accs[i].unpublished && !covs[i].has(class) {
				all = false
				break
			}
		}
		if all {
			return
		}
	}
	// Dominant guard: the candidate covering the most accesses (ties break
	// lexicographically for deterministic output).
	type scored struct {
		class string
		n     int
	}
	var best scored
	for class := range guards {
		n := 0
		for i := range accs {
			if accs[i].unpublished || covs[i].has(class) {
				n++
			}
		}
		if n > best.n || (n == best.n && (best.class == "" || class < best.class)) {
			best = scored{class, n}
		}
	}
	var example string
	for i := range accs {
		a := &accs[i]
		if !a.unpublished && a.write && covs[i] != nil && !covs[i].universal && covs[i].m[best.class] {
			example = am.relPos(a)
			break
		}
	}
	for i := range accs {
		a := &accs[i]
		if a.unpublished || covs[i].has(best.class) {
			continue
		}
		kind := "read"
		if a.write {
			kind = "written"
		}
		pass.Reportf(a.pos,
			"field %s is written under %s at %s but %s here without it (lock it, or make every access atomic)",
			display, best.class, example, kind)
	}
}

// ---------------------------------------------------------------------------
// Access collection.

// collectAccesses records every access to a tracked field inside fd.
func (am *atomicMixer) collectAccesses(pkg *Package, fd *ast.FuncDecl, fn *types.Func,
	fields map[*types.Var]string, out map[*types.Var][]fieldAccess) {
	unpub := am.unpublishedLocals(pkg, fd)

	var visit func(body *ast.BlockStmt, topLevel bool)
	visit = func(body *ast.BlockStmt, topLevel bool) {
		regions := am.facts.lockRegions(pkg, body)
		atomicSels := make(map[*ast.SelectorExpr]bool)
		writeSels := make(map[*ast.SelectorExpr]bool)
		markWrite := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				writeSels[sel] = true
			}
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.CallExpr:
				if isAtomicCall(pkg, n) {
					for _, arg := range n.Args {
						if u, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && u.Op == token.AND {
							if sel, ok := ast.Unparen(u.X).(*ast.SelectorExpr); ok {
								atomicSels[sel] = true
							}
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					markWrite(lhs)
				}
			case *ast.IncDecStmt:
				markWrite(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					// The address escapes; treat as a write unless it feeds a
					// sync/atomic call (classified above).
					markWrite(n.X)
				}
			}
			return true
		})
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				visit(n.Body, false)
				return false
			case *ast.SelectorExpr:
				sel, ok := pkg.Info.Selections[n]
				if !ok || sel.Kind() != types.FieldVal {
					return true
				}
				fv, ok := sel.Obj().(*types.Var)
				if !ok {
					return true
				}
				if _, tracked := fields[fv]; !tracked {
					return true
				}
				a := fieldAccess{
					pos:      n.Sel.Pos(),
					pkg:      pkg,
					fn:       fn,
					write:    writeSels[n],
					atomic:   atomicSels[n],
					direct:   classesCovering(regions, n.Pos()),
					topLevel: topLevel,
				}
				if base, ok := ast.Unparen(baseOf(n)).(*ast.Ident); ok {
					if v, ok := pkg.Info.Uses[base].(*types.Var); ok && unpub[v] {
						a.unpublished = true
					}
				}
				out[fv] = append(out[fv], a)
			}
			return true
		})
	}
	visit(fd.Body, true)
}

// packageStructFields returns the trackable fields of the package's struct
// declarations mapped to their "Type.field" display names.
func packageStructFields(pkg *Package) map[*types.Var]string {
	out := make(map[*types.Var]string)
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
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, fld := range st.Fields.List {
					for _, name := range fld.Names {
						v, ok := pkg.Info.Defs[name].(*types.Var)
						if !ok || v.Exported() || isSyncType(v.Type()) {
							continue
						}
						out[v] = ts.Name.Name + "." + name.Name
					}
				}
			}
		}
	}
	return out
}

// isSyncType reports a type declared in sync or sync/atomic (Mutex,
// WaitGroup, Once, atomic.Bool, ...): these synchronize themselves.
func isSyncType(t types.Type) bool {
	tn := typeName(t)
	return tn != nil && (tn.Pkg().Path() == "sync" || tn.Pkg().Path() == "sync/atomic")
}

// isAtomicCall reports a call to a sync/atomic package function.
func isAtomicCall(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := pkg.Info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == "sync/atomic"
}

// ---------------------------------------------------------------------------
// Lock-coverage sets and their call-graph propagation.

// classSet is a set of lock classes; universal is the ⊤ element ("covered
// whatever the guard is"), used for unpublished-receiver call sites.
type classSet struct {
	universal bool
	m         map[string]bool
}

var universalSet = &classSet{universal: true}
var emptySet = &classSet{}

func (s *classSet) has(c string) bool { return s.universal || s.m[c] }

func (s *classSet) union(o *classSet) *classSet {
	if s.universal || o.universal {
		return universalSet
	}
	if len(o.m) == 0 {
		return s
	}
	if len(s.m) == 0 {
		return o
	}
	m := make(map[string]bool, len(s.m)+len(o.m))
	for c := range s.m {
		m[c] = true
	}
	for c := range o.m {
		m[c] = true
	}
	return &classSet{m: m}
}

func (s *classSet) intersect(o *classSet) *classSet {
	if s.universal {
		return o
	}
	if o.universal {
		return s
	}
	m := make(map[string]bool)
	for c := range s.m {
		if o.m[c] {
			m[c] = true
		}
	}
	if len(m) == 0 {
		return emptySet
	}
	return &classSet{m: m}
}

// classesCovering returns the classes whose regions cover pos. A local
// mutex has no class: it guards nothing outside its function.
func classesCovering(regions []lockRegion, pos token.Pos) *classSet {
	var m map[string]bool
	for _, r := range regions {
		if r.class != "" && r.covers(pos) {
			if m == nil {
				m = make(map[string]bool)
			}
			m[r.class] = true
		}
	}
	if m == nil {
		return emptySet
	}
	return &classSet{m: m}
}

// atomicMixer carries the per-module caches of the analyzer.
type atomicMixer struct {
	facts   *ModuleFacts
	unpub   map[*ast.FuncDecl]map[*types.Var]bool
	cov     map[*types.Func]*classSet
	onStack map[*types.Func]bool
}

func newAtomicMixer(facts *ModuleFacts) *atomicMixer {
	return &atomicMixer{
		facts:   facts,
		unpub:   make(map[*ast.FuncDecl]map[*types.Var]bool),
		cov:     make(map[*types.Func]*classSet),
		onStack: make(map[*types.Func]bool),
	}
}

// fnCoverage computes the lock classes guaranteed to be held whenever fn
// is entered: the intersection, over every static call site in the module,
// of the classes held at that site (plus the caller's own guaranteed
// coverage). A function with no static call sites — an API entry point —
// has no coverage. Cycles resolve optimistically; a too-generous answer
// only suppresses findings.
func (am *atomicMixer) fnCoverage(fn *types.Func) *classSet {
	if got, ok := am.cov[fn]; ok {
		return got
	}
	if am.onStack[fn] {
		return universalSet
	}
	graph := am.facts.Graph()
	sites := graph.Callers(fn)
	if graph.NodeOf(fn) == nil || len(sites) == 0 {
		am.cov[fn] = emptySet
		return emptySet
	}
	am.onStack[fn] = true
	defer func() { am.onStack[fn] = false }()

	cov := universalSet
	for _, site := range sites {
		var sc *classSet
		switch {
		case site.InFuncLit || site.Async:
			sc = emptySet // runs outside the caller's regions
		case am.siteReceiverUnpublished(site):
			sc = universalSet
		default:
			caller := site.Caller
			sc = classesCovering(am.facts.lockRegions(caller.Pkg, caller.Decl.Body), site.Pos)
			sc = sc.union(am.fnCoverage(caller.Fn))
		}
		cov = cov.intersect(sc)
		if !cov.universal && len(cov.m) == 0 {
			break
		}
	}
	am.cov[fn] = cov
	return cov
}

// siteReceiverUnpublished reports a method call whose receiver is a local,
// not-yet-published value of the caller (constructor wiring: the callee
// cannot race with anything).
func (am *atomicMixer) siteReceiverUnpublished(site *CallSite) bool {
	sel, ok := ast.Unparen(site.Call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return false
	}
	caller := site.Caller
	v, ok := caller.Pkg.Info.Uses[id].(*types.Var)
	if !ok {
		return false
	}
	return am.unpublishedLocals(caller.Pkg, caller.Decl)[v]
}

// unpublishedLocals finds the locals of fd initialized from a fresh value
// (composite literal, &composite, new, make, a same-package New*
// constructor, or plain var declaration). They suppress findings only, so
// possible later escapes — and a New* that hands out shared state — are
// acceptable inaccuracies.
func (am *atomicMixer) unpublishedLocals(pkg *Package, fd *ast.FuncDecl) map[*types.Var]bool {
	if got, ok := am.unpub[fd]; ok {
		return got
	}
	out := make(map[*types.Var]bool)
	fresh := func(e ast.Expr) bool {
		switch e := ast.Unparen(e).(type) {
		case *ast.CompositeLit:
			return true
		case *ast.UnaryExpr:
			_, ok := ast.Unparen(e.X).(*ast.CompositeLit)
			return e.Op == token.AND && ok
		case *ast.CallExpr:
			if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
				if _, builtin := pkg.Info.Uses[id].(*types.Builtin); builtin {
					return id.Name == "new" || id.Name == "make"
				}
				if f, ok := pkg.Info.Uses[id].(*types.Func); ok &&
					f.Pkg() == pkg.Types && strings.HasPrefix(f.Name(), "New") {
					return true
				}
			}
		}
		return false
	}
	if fd.Body != nil {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE || len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, lhs := range n.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || !fresh(n.Rhs[i]) {
						continue
					}
					if v, ok := pkg.Info.Defs[id].(*types.Var); ok {
						out[v] = true
					}
				}
			case *ast.DeclStmt:
				gd, ok := n.Decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					return true
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok || len(vs.Values) != 0 {
						continue // zero-value declarations only
					}
					for _, name := range vs.Names {
						if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
							out[v] = true
						}
					}
				}
			}
			return true
		})
	}
	am.unpub[fd] = out
	return out
}

// relPos formats an access as a root-relative file:line cross-reference.
func (am *atomicMixer) relPos(a *fieldAccess) string {
	return relPosition(am.facts.Mod.Root, a.pkg.Fset.Position(a.pos))
}
