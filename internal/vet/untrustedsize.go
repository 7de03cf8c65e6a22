package vet

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// UntrustedSize flags integers that originate at a wire/file decode source
// and reach an allocation-sizing sink without a dominating bound check —
// the bug class behind the PR 5 MaxPredictions incident, where an 8-byte
// PredictSequence frame could demand a multi-GiB prediction buffer because
// the count field went from the frame straight into the oracle's horizon
// allocation.
//
// Sources (see untrustedSource): encoding/binary reads (ByteOrder
// accessors, Read, the varint readers), cursor reads in a package named
// "wire" (the u8/u16/u32/u64/str payload accessors), the wire Parse*
// decoders whose results are raw frame fields, and wire message values —
// the structs the wire codec decodes frames into. A message is untrusted
// wherever it was filled in: a function that takes one as a parameter (the
// daemon's request handlers) starts with it tainted, and a call handed the
// address of one (Decode, Exchange, the client's call helper) taints it.
//
// Sinks (see runUntrustedSize): make() length/capacity arguments,
// io.ReadFull / io.ReadAtLeast buffers sized by a tainted slice bound,
// io.CopyN counts, oracle Thread.PredictSequence / PredictDurationUntil
// horizons (the core allocates the full horizon up front — exactly the
// PR 5 allocation), and the ring geometry handed to transport.MapRings
// (it sizes the ring table and every ring's slot window).
//
// A value stops being a finding once it passes any relational comparison
// against a non-zero bound, or a min/max clamp (see flow.go for the
// dominance approximation). Functions annotated "pythia:trusted-input"
// are skipped entirely — the escape hatch for decoders whose inputs are
// validated by construction (document why at the annotation).
var UntrustedSize = &Analyzer{
	Name: "untrusted-size",
	Doc:  "wire/file decoded integers must pass a bound check before sizing an allocation",
	Run:  runUntrustedSize,
}

func runUntrustedSize(pass *Pass) {
	for _, fd := range funcDecls(pass.Pkg) {
		if fd.Body == nil || hasAnnotation(fd.Doc, "trusted-input") {
			continue
		}
		var params []TaintedName
		for _, field := range fd.Type.Params.List {
			if isWireMessage(pass.Pkg.Info.TypeOf(field.Type)) {
				for _, name := range field.Names {
					params = append(params, TaintedName{name.Name, "wire message parameter " + name.Name})
				}
			}
		}
		ff := TrackFlow(pass, fd.Body, untrustedSource, params...)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			checkSizeSink(pass, ff, call)
			return true
		})
	}
}

// checkSizeSink reports tainted, unguarded size arguments at the known
// allocation-sizing sinks.
func checkSizeSink(pass *Pass, ff *FlowFacts, call *ast.CallExpr) {
	info := pass.Pkg.Info
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if _, builtin := info.Uses[fun].(*types.Builtin); builtin && fun.Name == "make" {
			// make(T, len) / make(T, len, cap): every size argument counts.
			for _, arg := range call.Args[1:] {
				reportTaintedSize(pass, ff, arg, "make")
			}
		}
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if pn, ok := info.Uses[id].(*types.PkgName); ok {
				switch pn.Imported().Path() + "." + fun.Sel.Name {
				case "io.ReadFull", "io.ReadAtLeast":
					// The buffer argument's slice bound sizes the read.
					if len(call.Args) >= 2 {
						reportSliceBound(pass, ff, call.Args[1], "io."+fun.Sel.Name)
					}
				case "io.CopyN":
					if len(call.Args) == 3 {
						reportTaintedSize(pass, ff, call.Args[2], "io.CopyN")
					}
				}
				// The geometry argument sizes the ring table and each
				// ring's slot window.
				if pn.Imported().Name() == "transport" && fun.Sel.Name == "MapRings" && len(call.Args) == 2 {
					reportTaintedSize(pass, ff, call.Args[1], "transport.MapRings")
				}
				return
			}
		}
		// Oracle horizon sinks: PredictSequence(n) and
		// PredictDurationUntil(id, maxDistance) allocate their full
		// horizon up front in the core.
		if isOracleThread(info.Types[fun.X].Type) {
			switch fun.Sel.Name {
			case "PredictSequence":
				if len(call.Args) == 1 {
					reportTaintedSize(pass, ff, call.Args[0], "Thread.PredictSequence")
				}
			case "PredictDurationUntil":
				if len(call.Args) == 2 {
					reportTaintedSize(pass, ff, call.Args[1], "Thread.PredictDurationUntil")
				}
			}
		}
	}
}

// reportTaintedSize reports arg when it is tainted and unguarded.
func reportTaintedSize(pass *Pass, ff *FlowFacts, arg ast.Expr, sink string) {
	if src, ok := ff.Tainted(arg); ok {
		pass.Reportf(arg.Pos(),
			"size %s from untrusted source %s reaches %s without a dominating bound check (clamp or validate it first)",
			pass.ExprString(arg), src, sink)
	}
}

// reportSliceBound reports tainted bounds of a buf[:n]-style argument.
func reportSliceBound(pass *Pass, ff *FlowFacts, arg ast.Expr, sink string) {
	se, ok := ast.Unparen(arg).(*ast.SliceExpr)
	if !ok {
		// A whole-slice argument: flag it when the slice value itself was
		// made from a tainted size (already reported at the make site).
		return
	}
	for _, bound := range []ast.Expr{se.High, se.Max} {
		if bound != nil {
			reportTaintedSize(pass, ff, bound, sink)
		}
	}
}

// untrustedSource classifies decode calls that yield attacker- or
// file-controlled integers.
func untrustedSource(pass *Pass, call *ast.CallExpr) (string, bool) {
	info := pass.Pkg.Info

	// A call handed the address of a wire message decodes a frame into it
	// (taintByPointer then taints the variable).
	for _, arg := range call.Args {
		if un, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && un.Op == token.AND {
			if _, lit := ast.Unparen(un.X).(*ast.CompositeLit); !lit && isWireMessage(info.TypeOf(un.X)) {
				return "wire message " + pass.ExprString(un.X), true
			}
		}
	}

	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}

	// Qualified calls: binary.* and wire.Parse*.
	if id, ok := sel.X.(*ast.Ident); ok {
		if pn, ok := info.Uses[id].(*types.PkgName); ok {
			switch pn.Imported().Path() {
			case "encoding/binary":
				switch sel.Sel.Name {
				case "Read", "ReadUvarint", "ReadVarint", "Uvarint", "Varint":
					return "binary." + sel.Sel.Name, true
				}
				return "", false
			}
			if pn.Imported().Name() == "wire" && strings.HasPrefix(sel.Sel.Name, "Parse") {
				return "wire." + sel.Sel.Name, true
			}
			return "", false
		}
	}

	// Method calls: ByteOrder accessors (binary.BigEndian.Uint32) and the
	// wire package's own cursor reads (u8/u16/u32/u64/str) — raw payload
	// bytes in both cases.
	if fn := StaticCallee(info, call); fn != nil && fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case "encoding/binary":
			switch fn.Name() {
			case "Uint16", "Uint32", "Uint64":
				return "binary." + fn.Name(), true
			}
		}
		if fn.Pkg().Name() == "wire" {
			switch fn.Name() {
			case "u8", "u16", "u32", "u64", "str":
				return "wire cursor " + fn.Name() + "()", true
			}
			if strings.HasPrefix(fn.Name(), "Parse") {
				return "wire." + fn.Name(), true
			}
		}
	}

	// Interface ByteOrder calls (binary.ByteOrder.Uint32 through an
	// interface value) resolve through Selections without a static callee.
	if s, ok := info.Selections[sel]; ok {
		if recv := s.Recv(); recv != nil {
			if named, ok := recv.(*types.Named); ok && named.Obj().Pkg() != nil &&
				named.Obj().Pkg().Path() == "encoding/binary" {
				switch sel.Sel.Name {
				case "Uint16", "Uint32", "Uint64":
					return "binary." + sel.Sel.Name, true
				}
			}
		}
	}
	return "", false
}

// isWireMessage reports whether t is (a pointer to) a frame payload as the
// wire codec decodes it: a type declared in a package named "wire" with the
// codec's field-walk method.
func isWireMessage(t types.Type) bool {
	tn := typeName(t)
	return tn != nil && tn.Pkg().Name() == "wire" &&
		types.NewMethodSet(types.NewPointer(tn.Type())).Lookup(tn.Pkg(), "walk") != nil
}
