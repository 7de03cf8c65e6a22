package vet

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the second half of the shared analysis foundation (the
// other is callgraph.go): a conservative intraprocedural value-flow and
// guard tracker over one function body. The untrusted-size analyzer uses
// it to decide whether an integer that originated at a decode source (a
// wire cursor read, an encoding/binary call, a Parse* frame field) can
// reach an allocation-sizing sink without passing a bound check.
//
// The tracker is deliberately simple — values are identified by their
// source spelling, statements are processed in source order, and a guard
// anywhere before a use is taken to dominate it. The approximations only
// suppress findings, never invent them:
//
//   - taint: an assignment whose right-hand side contains a source call or
//     a tainted value taints the left-hand side; any other assignment to
//     the same spelling kills the taint. Conversions and arithmetic
//     propagate taint (int(n), n*4 are as attacker-controlled as n).
//   - guards: a relational comparison (<, <=, >, >=) mentioning a tainted
//     value inside an if or switch condition marks it guarded from the
//     comparison onward, as does clamping through the min/max builtins.
//     Comparisons against the literal 0 do not count — `n > 0` rejects
//     nothing an attacker cares about.
//   - selector prefixes: when a composite value is tainted (o, decoded
//     from a frame), every selection from it (o.Count) is tainted too.
//
// Position order stands in for dominance: a guard in a branch that does
// not actually dominate the sink will be trusted anyway. That trade keeps
// the tracker a few hundred lines and errs toward silence, which is the
// right failure mode for a gating analyzer.

// flowKind classifies one flow event.
type flowKind uint8

const (
	flowTaint flowKind = iota // name becomes tainted (carries src)
	flowKill                  // name is overwritten with clean data
	flowGuard                 // name passed a bound comparison
)

// flowEvent is one state change of one tracked spelling, in source order.
type flowEvent struct {
	pos  token.Pos
	kind flowKind
	name string
	src  string // taint events: human-readable source, e.g. "binary.BigEndian.Uint32"
}

// SourceClassifier decides whether a call expression produces untrusted
// data and names the source for diagnostics.
type SourceClassifier func(pass *Pass, call *ast.CallExpr) (src string, ok bool)

// FlowFacts is the computed taint/guard state of one function body.
type FlowFacts struct {
	pass   *Pass
	events []flowEvent
}

// TaintedName names a spelling that is untrusted from the top of the body
// on — by where it comes from (a parameter), not by a call in the body.
type TaintedName struct{ Name, Src string }

// TrackFlow walks one function body in source order and records taint,
// kill and guard events for every simple spelling (identifiers and
// selector chains). sources classifies the taint origins; entry lists what
// is already tainted when the body starts.
func TrackFlow(pass *Pass, body *ast.BlockStmt, sources SourceClassifier, entry ...TaintedName) *FlowFacts {
	ff := &FlowFacts{pass: pass}
	for _, e := range entry {
		ff.events = append(ff.events, flowEvent{pos: body.Pos(), kind: flowTaint, name: e.Name, src: e.Src})
	}
	ff.walk(body, sources)
	return ff
}

func (ff *FlowFacts) walk(body *ast.BlockStmt, sources SourceClassifier) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A literal is a separate execution context; its taints and
			// guards do not interleave with the enclosing body's order.
			return false
		case *ast.AssignStmt:
			ff.assign(n, sources)
		case *ast.DeclStmt:
			if gd, ok := n.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						ff.valueSpec(vs, sources)
					}
				}
			}
		case *ast.IfStmt:
			ff.cond(n.Cond)
		case *ast.SwitchStmt:
			if n.Tag == nil {
				for _, cl := range n.Body.List {
					if cc, ok := cl.(*ast.CaseClause); ok {
						for _, e := range cc.List {
							ff.cond(e)
						}
					}
				}
			}
		case *ast.ForStmt:
			if n.Cond != nil {
				ff.cond(n.Cond)
			}
		case *ast.CallExpr:
			ff.taintByPointer(n, sources)
		}
		return true
	})
}

// assign processes one assignment statement: taints or kills each LHS
// depending on the matching RHS.
func (ff *FlowFacts) assign(as *ast.AssignStmt, sources SourceClassifier) {
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		// n, err := f(): every LHS inherits the one RHS's taint.
		src, tainted := ff.exprTaint(as.Rhs[0], sources, as.Pos())
		for _, lhs := range as.Lhs {
			ff.setLHS(lhs, src, tainted, as.Pos())
		}
		return
	}
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) {
			break
		}
		src, tainted := ff.exprTaint(as.Rhs[i], sources, as.Pos())
		// Compound assignment (n += x) keeps the LHS's own taint alive.
		if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
			if s, t := ff.taintAt(ff.spelling(lhs), as.Pos()); t {
				src, tainted = s, true
			}
		}
		ff.setLHS(lhs, src, tainted, as.Pos())
	}
}

// valueSpec processes `var n = expr` declarations.
func (ff *FlowFacts) valueSpec(vs *ast.ValueSpec, sources SourceClassifier) {
	for i, name := range vs.Names {
		if i < len(vs.Values) {
			src, tainted := ff.exprTaint(vs.Values[i], sources, vs.Pos())
			ff.setLHS(name, src, tainted, vs.Pos())
		}
	}
}

// setLHS records a taint or kill event for one assignment target.
func (ff *FlowFacts) setLHS(lhs ast.Expr, src string, tainted bool, pos token.Pos) {
	name := ff.spelling(lhs)
	if name == "" || name == "_" {
		return
	}
	if tainted {
		ff.events = append(ff.events, flowEvent{pos: pos, kind: flowTaint, name: name, src: src})
	} else {
		ff.events = append(ff.events, flowEvent{pos: pos, kind: flowKill, name: name})
	}
}

// taintByPointer taints x when a source call receives &x (binary.Read
// decodes into its argument).
func (ff *FlowFacts) taintByPointer(call *ast.CallExpr, sources SourceClassifier) {
	src, ok := sources(ff.pass, call)
	if !ok {
		return
	}
	for _, arg := range call.Args {
		if un, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && un.Op == token.AND {
			name := ff.spelling(un.X)
			if name != "" {
				ff.events = append(ff.events, flowEvent{pos: call.Pos(), kind: flowTaint, name: name, src: src})
			}
		}
	}
}

// cond scans a condition for relational comparisons mentioning tainted
// spellings and records guard events. min/max clamps are handled in
// exprTaint (a clamped value stops being interesting, not the variable).
func (ff *FlowFacts) cond(cond ast.Expr) {
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch be.Op {
		case token.LSS, token.LEQ, token.GTR, token.GEQ:
		default:
			return true
		}
		// A comparison against the literal 0 is a sign check, not a bound.
		if isZeroLiteral(be.X) || isZeroLiteral(be.Y) {
			return true
		}
		for _, side := range []ast.Expr{be.X, be.Y} {
			ff.guardNamesIn(side, be.OpPos)
		}
		return true
	})
}

// guardNamesIn records a guard event for every tainted spelling mentioned
// inside e (including through conversions and arithmetic: `n*4 > limit`
// bounds n).
func (ff *FlowFacts) guardNamesIn(e ast.Expr, pos token.Pos) {
	ast.Inspect(e, func(n ast.Node) bool {
		ne, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		switch ne.(type) {
		case *ast.Ident, *ast.SelectorExpr:
			name := ff.spelling(ne)
			if _, tainted := ff.taintAt(name, pos); tainted {
				ff.events = append(ff.events, flowEvent{pos: pos, kind: flowGuard, name: name})
			}
			// Do not descend into a selector's base: guarding o.Count
			// guards that field path, not everything selected from o.
			_, isSel := ne.(*ast.SelectorExpr)
			return !isSel
		}
		return true
	})
}

// exprTaint reports whether e carries taint at pos: it contains a source
// call or mentions a tainted spelling, and is not a min/max clamp over a
// constant bound.
func (ff *FlowFacts) exprTaint(e ast.Expr, sources SourceClassifier, pos token.Pos) (src string, tainted bool) {
	found := ""
	ast.Inspect(e, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if s, ok := sources(ff.pass, n); ok {
				found = s
				return false
			}
			// Clamping through the min/max builtins sanitizes the value.
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && (id.Name == "min" || id.Name == "max") {
				if _, builtin := ff.pass.Pkg.Info.Uses[id].(*types.Builtin); builtin {
					return false
				}
			}
		case *ast.Ident, *ast.SelectorExpr:
			ne := n.(ast.Expr)
			name := ff.spelling(ne)
			if s, t := ff.taintAt(name, pos); t {
				found = s
				return false
			}
			_, isSel := ne.(*ast.SelectorExpr)
			return !isSel
		}
		return true
	})
	return found, found != ""
}

// taintAt reports the taint state of one spelling just before pos,
// replaying the event list in source order. Selector chains inherit taint
// from a tainted prefix (o tainted makes o.Count tainted) unless the
// chain itself was killed or guarded more recently.
func (ff *FlowFacts) taintAt(name string, pos token.Pos) (src string, tainted bool) {
	if name == "" {
		return "", false
	}
	type state struct {
		src     string
		tainted bool
		guarded bool
	}
	best := state{}
	resolved := false
	for _, prefix := range spellingPrefixes(name) {
		st := state{}
		seen := false
		for _, ev := range ff.events {
			if ev.pos >= pos || ev.name != prefix {
				continue
			}
			seen = true
			switch ev.kind {
			case flowTaint:
				st = state{src: ev.src, tainted: true}
			case flowKill:
				st = state{}
			case flowGuard:
				st.guarded = true
			}
		}
		if seen {
			// The most specific spelling with any recorded state wins:
			// killing/guarding o.Count overrides o's taint for o.Count.
			best = st
			resolved = true
		}
		if resolved && prefix == name {
			break
		}
	}
	if best.tainted && !best.guarded {
		return best.src, true
	}
	return "", false
}

// Tainted reports whether expression e is tainted and unguarded at its own
// position, returning the originating source description.
func (ff *FlowFacts) Tainted(e ast.Expr) (src string, ok bool) {
	e = ast.Unparen(e)
	// Look through conversions and unary/binary arithmetic: make([]T, n*4)
	// is sized by n.
	switch t := e.(type) {
	case *ast.Ident, *ast.SelectorExpr:
		return ff.taintAt(ff.spelling(t.(ast.Expr)), e.Pos())
	case *ast.CallExpr:
		// Type conversion or builtin over a tainted value.
		if len(t.Args) == 1 {
			return ff.Tainted(t.Args[0])
		}
	case *ast.BinaryExpr:
		if s, ok := ff.Tainted(t.X); ok {
			return s, true
		}
		return ff.Tainted(t.Y)
	case *ast.UnaryExpr:
		return ff.Tainted(t.X)
	}
	return "", false
}

// spelling renders an identifier or selector chain ("n", "o.Count",
// "c.hdr.n"); other expressions yield "".
func (ff *FlowFacts) spelling(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := ff.spelling(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.StarExpr:
		inner := ff.spelling(e.X)
		if inner == "" {
			return ""
		}
		return "*" + inner
	}
	return ""
}

// spellingPrefixes returns the selector prefixes of a spelling from
// shortest to longest: "a.b.c" -> ["a", "a.b", "a.b.c"].
func spellingPrefixes(name string) []string {
	var out []string
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			out = append(out, name[:i])
		}
	}
	return append(out, name)
}

// isZeroLiteral reports whether e is the integer literal 0.
func isZeroLiteral(e ast.Expr) bool {
	bl, ok := ast.Unparen(e).(*ast.BasicLit)
	return ok && bl.Kind == token.INT && bl.Value == "0"
}
