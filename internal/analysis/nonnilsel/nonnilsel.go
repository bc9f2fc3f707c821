// Package nonnilsel flags functions that can hand a caller a nil
// selection vector. The engine's table bindings (internal/engine,
// `binding` in physical.go) read a nil []bat.Oid OID list as "all rows
// in storage order" — void-head semantics — so a select path that
// returns nil for an *empty* selection silently runs every operator
// above it over the whole table. This analyzer keeps that class of bug
// extinct:
//
//   - `return nil` at a []bat.Oid result position is flagged, unless
//     the statement also returns a non-nil error (error paths may and
//     should return a nil vector);
//   - a naked `return` in a function with a named []bat.Oid result is
//     flagged outright — the named result's zero value is nil, and
//     proving it was reassigned on every path is exactly the kind of
//     reasoning this analyzer exists to replace. Return the vector
//     explicitly: `return []bat.Oid{}, nil`;
//   - `return out` where out is a nil-origin local (`var out []bat.Oid`
//     with no initializer, only ever grown by self-appends) is flagged:
//     when nothing matched, nothing was appended, and the nil escapes.
//     Initialize with `out := []bat.Oid{}` instead.
package nonnilsel

import (
	"go/ast"
	"go/token"
	"go/types"

	"monetlite/internal/analysis/framework"
	"monetlite/internal/analysis/monet"
)

var Analyzer = &framework.Analyzer{
	Name: "nonnilsel",
	Doc:  "flag nil returns of []bat.Oid selection vectors (nil reads as \"all rows\" downstream)",
	Run:  run,
}

func run(pass *framework.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func)
			if !ok {
				continue
			}
			checkBody(pass, fn.Body, obj.Signature())
		}
	}
	return nil
}

// checkBody walks one function body, recursing into function literals
// with their own signatures (a return inside a closure belongs to the
// closure).
func checkBody(pass *framework.Pass, body *ast.BlockStmt, sig *types.Signature) {
	nilOrigin := collectNilOrigins(pass.TypesInfo, body)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if litSig, ok := types.Unalias(pass.TypesInfo.TypeOf(n)).(*types.Signature); ok {
				checkBody(pass, n.Body, litSig)
			}
			return false
		case *ast.ReturnStmt:
			checkReturn(pass, n, sig, nilOrigin)
		}
		return true
	})
}

// collectNilOrigins gathers the []bat.Oid locals declared without an
// initializer (`var out []bat.Oid`) whose only mutations are
// self-appends (`out = append(out, ...)`). Such a local is still nil
// whenever the appends never ran — the empty-selection case. Any other
// assignment (a make, a literal, a call result) removes the variable
// from the set.
func collectNilOrigins(info *types.Info, body *ast.BlockStmt) map[*types.Var]bool {
	origins := make(map[*types.Var]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // closure bodies are checked with their own scope
		}
		switch n := n.(type) {
		case *ast.ValueSpec:
			if len(n.Values) != 0 {
				return true
			}
			for _, id := range n.Names {
				if v, ok := info.Defs[id].(*types.Var); ok && monet.IsOidSlice(v.Type()) {
					origins[v] = true
				}
			}
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				v, ok := info.Uses[id].(*types.Var)
				if !ok || !origins[v] {
					continue
				}
				if i < len(n.Rhs) && isSelfAppend(info, n.Rhs[i], v) {
					continue // append(out, ...) keeps nil when nothing matched
				}
				delete(origins, v)
			}
		}
		return true
	})
	return origins
}

// isSelfAppend reports whether e is append(v, ...).
func isSelfAppend(info *types.Info, e ast.Expr, v *types.Var) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
		return false
	}
	arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	return ok && info.Uses[arg] == v
}

func checkReturn(pass *framework.Pass, ret *ast.ReturnStmt, sig *types.Signature, nilOrigin map[*types.Var]bool) {
	results := sig.Results()
	oidIdx := -1
	for i := 0; i < results.Len(); i++ {
		if monet.IsOidSlice(results.At(i).Type()) {
			oidIdx = i
			break
		}
	}
	if oidIdx < 0 {
		return
	}

	if len(ret.Results) == 0 {
		pass.Reportf(ret.Pos(), "naked return with named []bat.Oid result %q: the zero value is nil, which downstream reads as \"all rows\"; return the selection explicitly", resultName(results, oidIdx))
		return
	}
	if len(ret.Results) != results.Len() {
		return // single call-expr return; the callee is checked at its own returns
	}
	expr := ret.Results[oidIdx]
	nilLit := isNilLiteral(pass.TypesInfo, expr)
	origin := nilOriginVar(pass.TypesInfo, expr, nilOrigin)
	if !nilLit && origin == nil {
		return
	}
	// A nil vector alongside a non-nil error is the error convention;
	// nil alongside a nil error is the PR 5 bug class.
	for i := 0; i < results.Len(); i++ {
		if i != oidIdx && isErrorType(results.At(i).Type()) && !isNilLiteral(pass.TypesInfo, ret.Results[i]) {
			return
		}
	}
	if nilLit {
		pass.Reportf(expr.Pos(), "selection vector returned as nil on a non-error path: downstream operators read nil as \"all rows\"; return []bat.Oid{} for an empty selection")
		return
	}
	pass.Reportf(expr.Pos(), "selection vector %q starts nil (var with no initializer) and is only grown by append: an empty selection returns nil, which downstream reads as \"all rows\"; initialize it with []bat.Oid{}", origin.Name())
}

// nilOriginVar returns the variable behind e if it is one of the
// tracked nil-origin locals.
func nilOriginVar(info *types.Info, e ast.Expr, nilOrigin map[*types.Var]bool) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if v, ok := info.Uses[id].(*types.Var); ok && nilOrigin[v] {
		return v
	}
	return nil
}

func resultName(results *types.Tuple, i int) string {
	if name := results.At(i).Name(); name != "" {
		return name
	}
	return "_"
}

func isNilLiteral(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}

var errorType = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool {
	return types.Identical(t, errorType)
}
