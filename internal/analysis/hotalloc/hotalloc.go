// Package hotalloc enforces the zero-alloc contract of functions
// annotated //monet:kernel — the dsm *Pos pipeline kernels, the core
// radix-cluster region kernels, the agg grouping table's fold and
// merge runs. The paper's remedy for the memory bottleneck only works while these
// inner loops stay allocation-free and cache-resident, so inside a
// kernel the analyzer flags:
//
//   - make/new inside a loop (an allocation per iteration);
//   - append inside a loop whose destination is provably an
//     unpreallocated local (`var dst []T`, `dst := []T{}`, or a
//     capacity-less make([]T, 0)) — appending into a caller-owned
//     buffer (a parameter, receiver field, or a reslice of either) is
//     the intended idiom and stays legal;
//   - closures created inside a loop that capture loop state (each
//     iteration heap-allocates the closure and its captures);
//   - any call into package fmt (formatting allocates; cold error
//     paths may justify one with //monet:allow hotalloc);
//   - string concatenation (non-constant + on strings);
//   - implicit interface boxing: a concrete value passed where the
//     callee takes an interface, converted to an interface type, or
//     assigned to an interface variable.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"monetlite/internal/analysis/framework"
	"monetlite/internal/analysis/monet"
)

var Analyzer = &framework.Analyzer{
	Name: "hotalloc",
	Doc:  "flag heap allocations inside //monet:kernel functions",
	Run:  run,
}

func run(pass *framework.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil && monet.IsKernel(fn) {
				k := &kernel{pass: pass, inits: collectInits(pass.TypesInfo, fn)}
				k.check(fn)
			}
		}
	}
	return nil
}

type kernel struct {
	pass *framework.Pass
	// inits maps each local variable to its initializer (nil for a
	// `var x []T` declaration without one), for the append-prealloc
	// origin analysis.
	inits map[*types.Var]ast.Expr
}

// collectInits records, for every local defined in fn, the expression
// it was initialized from.
func collectInits(info *types.Info, fn *ast.FuncDecl) map[*types.Var]ast.Expr {
	inits := make(map[*types.Var]ast.Expr)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					if v, ok := info.Defs[id].(*types.Var); ok {
						inits[v] = n.Rhs[i]
					}
				}
			}
		case *ast.ValueSpec:
			for i, id := range n.Names {
				v, ok := info.Defs[id].(*types.Var)
				if !ok {
					continue
				}
				if i < len(n.Values) {
					inits[v] = n.Values[i]
				} else {
					inits[v] = nil // `var x []T`: starts nil
				}
			}
		}
		return true
	})
	return inits
}

// check walks the kernel body tracking the enclosing loops.
func (k *kernel) check(fn *ast.FuncDecl) {
	var loops []ast.Node
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loops = append(loops, n)
			ast.Inspect(loopBody(n), visit)
			// Loop headers (init/cond/post/range expression) run with
			// the loop's own cadence; inspect them at this depth too.
			for _, h := range loopHeader(n) {
				ast.Inspect(h, visit)
			}
			loops = loops[:len(loops)-1]
			return false
		case *ast.FuncLit:
			if len(loops) > 0 {
				if cap := k.capturedLoopVar(n, loops); cap != "" {
					k.pass.Reportf(n.Pos(), "closure inside kernel loop captures loop state (%s): allocates per iteration; hoist the closure or inline the body", cap)
				}
			}
			return true // closure bodies obey kernel rules too
		case *ast.CallExpr:
			k.checkCall(n, len(loops) > 0)
		case *ast.BinaryExpr:
			if n.Op == token.ADD && k.isString(n) && !k.isConst(n) {
				k.pass.Reportf(n.Pos(), "string concatenation allocates in kernel; kernels operate on codes and positions, not strings")
			}
		case *ast.AssignStmt:
			k.checkAssignBoxing(n)
		}
		return true
	}
	ast.Inspect(fn.Body, visit)
}

func loopBody(n ast.Node) *ast.BlockStmt {
	switch n := n.(type) {
	case *ast.ForStmt:
		return n.Body
	case *ast.RangeStmt:
		return n.Body
	}
	return nil
}

func loopHeader(n ast.Node) []ast.Node {
	var hs []ast.Node
	switch n := n.(type) {
	case *ast.ForStmt:
		for _, h := range []ast.Node{n.Init, n.Cond, n.Post} {
			if h != nil {
				hs = append(hs, h)
			}
		}
	case *ast.RangeStmt:
		hs = append(hs, n.X)
	}
	return hs
}

func (k *kernel) checkCall(call *ast.CallExpr, inLoop bool) {
	info := k.pass.TypesInfo

	// Builtins: make/new per iteration, append without prealloc.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new":
				if inLoop {
					k.pass.Reportf(call.Pos(), "%s inside kernel loop allocates per iteration; hoist the buffer out of the loop or take it from the caller", b.Name())
				}
			case "append":
				if inLoop && len(call.Args) > 0 {
					if origin, bad := k.unpreallocated(call.Args[0], 0); bad {
						k.pass.Reportf(call.Pos(), "append in kernel loop grows %s, which is never preallocated: each growth reallocates and copies; size the buffer up front (make with capacity) or append into a caller-owned buffer", origin)
					}
				}
			}
			return
		}
	}

	// Conversion to an interface type: T(x) boxes.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		k.checkConversionBoxing(call, tv.Type)
		return
	}

	fn := monet.Callee(info, call)
	if monet.IsPkgFunc(fn, "fmt") {
		k.pass.Reportf(call.Pos(), "fmt.%s allocates (formatting, interface boxing) inside a kernel; build errors outside the kernel or justify a cold path with //monet:allow hotalloc", fn.Name())
		return
	}

	// Implicit boxing at the call boundary: concrete argument, interface
	// parameter.
	sigType := info.TypeOf(call.Fun)
	if sigType == nil {
		return
	}
	sig, ok := sigType.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		pi := i
		if sig.Variadic() && pi >= params.Len()-1 {
			if call.Ellipsis != token.NoPos {
				continue // slice passed through, no per-element boxing here
			}
			pi = params.Len() - 1
		}
		if pi >= params.Len() || pi < 0 {
			break
		}
		pt := params.At(pi).Type()
		if sig.Variadic() && pi == params.Len()-1 {
			if sl, ok := pt.Underlying().(*types.Slice); ok {
				pt = sl.Elem()
			}
		}
		k.reportBoxing(arg, pt)
	}
}

func (k *kernel) checkConversionBoxing(call *ast.CallExpr, to types.Type) {
	if len(call.Args) == 1 {
		k.reportBoxing(call.Args[0], to)
	}
}

func (k *kernel) checkAssignBoxing(n *ast.AssignStmt) {
	if len(n.Lhs) != len(n.Rhs) {
		return
	}
	for i, lhs := range n.Lhs {
		lt := k.pass.TypesInfo.TypeOf(lhs)
		if lt == nil {
			continue
		}
		k.reportBoxing(n.Rhs[i], lt)
	}
}

// reportBoxing flags a concrete non-nil value landing in an interface
// slot.
func (k *kernel) reportBoxing(arg ast.Expr, to types.Type) {
	if to == nil {
		return
	}
	if _, isIface := to.Underlying().(*types.Interface); !isIface {
		return
	}
	tv, ok := k.pass.TypesInfo.Types[arg]
	if !ok || tv.Type == nil || tv.IsNil() || tv.Type == types.Typ[types.Invalid] {
		return
	}
	if _, argIface := tv.Type.Underlying().(*types.Interface); argIface {
		return // interface-to-interface: no new allocation
	}
	if _, isFunc := ast.Unparen(arg).(*ast.FuncLit); isFunc {
		return // a func literal is not boxing; the closure rule covers it
	}
	k.pass.Reportf(arg.Pos(), "%s boxed into interface %s allocates in kernel; keep kernel data monomorphic", tv.Type, to)
}

// unpreallocated reports whether the append destination is a local
// slice that provably starts without capacity: declared `var x []T`,
// initialized from an empty composite literal, or from a make with
// neither length nor capacity. Parameters, receiver fields, globals,
// reslices of any of those, and capacity-carrying makes are fine.
func (k *kernel) unpreallocated(e ast.Expr, depth int) (origin string, bad bool) {
	if depth > 10 {
		return "", false
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		v, ok := k.pass.TypesInfo.Uses[e].(*types.Var)
		if !ok {
			return "", false
		}
		init, isLocal := k.inits[v]
		if !isLocal {
			return "", false // parameter, receiver, global: caller-owned
		}
		if init == nil {
			return e.Name + " (declared without an initializer, starts nil)", true
		}
		if from, bad := k.unpreallocated(init, depth+1); bad {
			return e.Name + " (initialized from " + from + ")", true
		}
		return "", false
	case *ast.CompositeLit:
		return "an empty literal", len(e.Elts) == 0
	case *ast.CallExpr:
		id, ok := ast.Unparen(e.Fun).(*ast.Ident)
		if !ok {
			return "", false
		}
		if b, ok := k.pass.TypesInfo.Uses[id].(*types.Builtin); !ok || b.Name() != "make" {
			return "", false // result of another kernel call: assume managed
		}
		if len(e.Args) >= 3 {
			return "", false // explicit capacity
		}
		if len(e.Args) == 2 && !k.isZeroConst(e.Args[1]) {
			return "", false // non-zero length is a preallocation
		}
		return "a capacity-less make", true
	case *ast.SliceExpr:
		return k.unpreallocated(e.X, depth+1)
	}
	return "", false
}

func (k *kernel) isZeroConst(e ast.Expr) bool {
	tv, ok := k.pass.TypesInfo.Types[e]
	return ok && tv.Value != nil && tv.Value.String() == "0"
}

func (k *kernel) isString(n *ast.BinaryExpr) bool {
	t := k.pass.TypesInfo.TypeOf(n)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func (k *kernel) isConst(n ast.Expr) bool {
	tv, ok := k.pass.TypesInfo.Types[n]
	return ok && tv.Value != nil
}

// capturedLoopVar returns the name of a variable declared inside one
// of the enclosing loops (loop variable or body local) that the
// closure references, or "" if the closure captures no loop state.
func (k *kernel) capturedLoopVar(lit *ast.FuncLit, loops []ast.Node) string {
	info := k.pass.TypesInfo
	captured := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true // declared inside the closure itself
		}
		for _, loop := range loops {
			if v.Pos() >= loop.Pos() && v.Pos() < loop.End() {
				captured = v.Name()
				return false
			}
		}
		return true
	})
	return captured
}
