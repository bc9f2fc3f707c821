// Package costcover keeps the engine's physical operators in step
// with its cost model. It activates only in packages shaped like the
// engine — an interface named physOp — and then enforces:
//
//   - costed operators are really costed: an implementer with a
//     `cost costmodel.Breakdown` field must have that field set
//     somewhere in the package (composite-literal key or assignment);
//     a cost field nothing writes means the planner grew an operator
//     without teaching the cost model about it.
//   - calibratable operators have stable kinds: if predicted()
//     returns a stored breakdown (not the zero literal), the
//     operator feeds costmodel.Residuals, which keys residuals by
//     kindOf(label()). Its label() must therefore contain a string
//     literal with a non-empty prefix before any % verb — a purely
//     dynamic label (fmt.Sprintf("%v", ...) or delegation with no
//     literal at all) would scatter one operator's residuals across
//     unbounded keys and starve the self-tuning feed.
//   - no raw pricing: engine code must never price a Breakdown
//     directly against a machine (Breakdown.Total / Breakdown.Millis).
//     Raw machine pricing bypasses costmodel.Model and with it the
//     learned per-operator-kind corrections, so a calibrated host
//     would plan some decisions on corrected numbers and others on
//     uncorrected ones. Every pricing site goes through
//     Model.Nanos/Model.Millis; deliberate raw comparisons (simulator
//     cross-checks) carry //monet:allow costcover.
//
// An operator's traffic needs no rule of its own: a stage's prediction
// and its EXPLAIN ANALYZE bytes derive from one memory-access
// description (costmodel.Access), so they cannot drift apart.
package costcover

import (
	"go/ast"
	"go/types"
	"strings"

	"monetlite/internal/analysis/framework"
	"monetlite/internal/analysis/monet"
)

var Analyzer = &framework.Analyzer{
	Name: "costcover",
	Doc:  "physOp cost fields must be set, calibratable labels must be stable, and Breakdowns are priced through the model",
	Run:  run,
}

func run(pass *framework.Pass) error {
	iface := findInterface(pass.Pkg, "physOp")
	if iface == nil {
		return nil // not an engine-shaped package
	}
	checkRawPricing(pass)
	for _, named := range implementers(pass.Pkg, iface) {
		checkCostField(pass, named)
		checkLabelStability(pass, named)
	}
	return nil
}

// checkRawPricing flags calls that price a costmodel.Breakdown
// directly against a machine — Breakdown.Total or Breakdown.Millis.
// Inside the engine every such site must go through costmodel.Model
// (Nanos/Millis), which applies the learned per-operator-kind
// corrections on top of the machine's analytical cost; a raw call
// silently ignores calibration.
func checkRawPricing(pass *framework.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || (sel.Sel.Name != "Total" && sel.Sel.Name != "Millis") {
				return true
			}
			t := pass.TypesInfo.TypeOf(sel.X)
			if t == nil {
				return true
			}
			if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if monet.IsNamed(t, "costmodel", "Breakdown") {
				pass.Reportf(call.Pos(),
					"raw Breakdown.%s pricing bypasses costmodel.Model: the learned per-kind corrections never apply at this site; price through Model.Nanos/Model.Millis (or //monet:allow costcover for a deliberate simulator cross-check)",
					sel.Sel.Name)
			}
			return true
		})
	}
}

// findInterface returns the interface type named name declared at
// package scope, or nil.
func findInterface(pkg *types.Package, name string) *types.Interface {
	obj := pkg.Scope().Lookup(name)
	if obj == nil {
		return nil
	}
	iface, _ := obj.Type().Underlying().(*types.Interface)
	return iface
}

// implementers returns the package-scope named struct types whose
// value or pointer type implements iface.
func implementers(pkg *types.Package, iface *types.Interface) []*types.Named {
	var out []*types.Named
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if ok && !tn.IsAlias() {
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isStruct := named.Underlying().(*types.Struct); !isStruct {
				continue
			}
			if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
				out = append(out, named)
			}
		}
	}
	return out
}

// checkCostField verifies that an implementer with a cost
// costmodel.Breakdown field has that field set somewhere in the
// package.
func checkCostField(pass *framework.Pass, named *types.Named) {
	st := named.Underlying().(*types.Struct)
	hasCost := false
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() == "cost" && monet.IsNamed(f.Type(), "costmodel", "Breakdown") {
			hasCost = true
			break
		}
	}
	if !hasCost {
		return
	}
	if costFieldSet(pass, named) {
		return
	}
	pass.Reportf(named.Obj().Pos(),
		"operator %s has a cost costmodel.Breakdown field that nothing in the package sets: the planner produces it with a zero prediction, so EXPLAIN compares actuals against nothing; cost it in the planner or drop the field",
		named.Obj().Name())
}

// costFieldSet scans the package for `cost:` composite-literal keys
// on the type or assignments through a T/*T-typed expression to a
// field named cost.
func costFieldSet(pass *framework.Pass, named *types.Named) bool {
	found := false
	isT := func(t types.Type) bool {
		if t == nil {
			return false
		}
		if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
			t = ptr.Elem()
		}
		n, ok := types.Unalias(t).(*types.Named)
		return ok && n.Obj() == named.Obj()
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if found {
				return false
			}
			switch n := n.(type) {
			case *ast.CompositeLit:
				if !isT(pass.TypesInfo.TypeOf(n)) {
					return true
				}
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "cost" {
							found = true
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
					if ok && sel.Sel.Name == "cost" && isT(pass.TypesInfo.TypeOf(sel.X)) {
						found = true
					}
				}
			}
			return true
		})
	}
	return found
}

// checkLabelStability flags calibratable operators (predicted()
// returns a stored breakdown) whose label() carries no stable literal
// prefix for kindOf to key residuals on.
func checkLabelStability(pass *framework.Pass, named *types.Named) {
	pred := methodDecl(pass, named, "predicted")
	if pred == nil || !calibratable(pred) {
		return
	}
	lab := methodDecl(pass, named, "label")
	if lab == nil {
		return
	}
	stable := false
	ast.Inspect(lab.Body, func(n ast.Node) bool {
		if stable {
			return false
		}
		if bl, ok := n.(*ast.BasicLit); ok && bl.Kind.String() == "STRING" {
			text := strings.Trim(bl.Value, "`\"")
			if prefix, _, _ := strings.Cut(text, "%"); strings.TrimSpace(prefix) != "" {
				stable = true
			}
		}
		return true
	})
	if !stable {
		pass.Reportf(lab.Pos(),
			"operator %s feeds the calibration residuals (predicted() returns a stored breakdown) but label() has no stable literal prefix: kindOf would key its residuals on unbounded dynamic strings; start the label with a fixed operator name",
			named.Obj().Name())
	}
}

// methodDecl finds the declaration of the method with the given name
// on T or *T.
func methodDecl(pass *framework.Pass, named *types.Named, name string) *ast.FuncDecl {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name != name || fn.Recv == nil || len(fn.Recv.List) == 0 {
				continue
			}
			t := pass.TypesInfo.TypeOf(fn.Recv.List[0].Type)
			if t == nil {
				continue
			}
			if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if n, ok := types.Unalias(t).(*types.Named); ok && n.Obj() == named.Obj() {
				return fn
			}
		}
	}
	return nil
}

// calibratable reports whether predicted()'s returns include anything
// beyond the zero costmodel.Breakdown{} literal.
func calibratable(pred *ast.FuncDecl) bool {
	result := false
	ast.Inspect(pred.Body, func(n ast.Node) bool {
		r, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, e := range r.Results {
			cl, isLit := ast.Unparen(e).(*ast.CompositeLit)
			if !isLit || len(cl.Elts) > 0 {
				result = true
			}
		}
		return true
	})
	return result
}
