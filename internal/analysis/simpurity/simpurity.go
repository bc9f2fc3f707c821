// Package simpurity enforces the two-world discipline around the
// cache simulator handle (*memsim.Sim): instrumented runs (sim != nil)
// model a single 1999 CPU and must stay strictly serial and fully
// mirrored, while native runs (sim == nil) must never touch the
// simulator. Concretely, inside a branch where some sim is provably
// non-nil it flags goroutine spawns, core worker-pool fan-outs
// (ForEach/ForMorsels or passing a core.Options that is not a direct
// core.Serial()), and calls to the native-only dsm *Pos kernels
// (which mirror nothing into the simulator); inside a branch where a
// sim is provably nil it flags method calls on that sim — a
// guaranteed nil dereference.
//
// The pattern this keeps honest is the touch mirror: one stage code
// path for both worlds, where the instrumented half is a touch pass
// guarded by `if sim != nil` that replays the kernel's reads into the
// simulator, followed — outside that branch — by the same native
// kernel call the uninstrumented run makes:
//
//	if sim != nil {
//		mirror(sim, col, pos) // Touch every position the kernel reads
//	}
//	rows = dsm.KeepRangePos(col, lo, hi, pos, rows)
//
// internal/core splits instead of mirroring: each join phase and
// radix-cluster pass has a native kernel and a simulated one, and
// every operator tests sim once, at entry, before choosing between
// them. The early-return rule below covers that shape.
//
// Nil-ness is tracked lexically: `if sim != nil`, `if sim == nil`,
// && conjunctions, negated disjunctions (the else of
// `sim != nil || n <= 1` proves sim == nil), and early-return
// branches (`if sim == nil { return ... }` proves sim != nil below).
package simpurity

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"monetlite/internal/analysis/framework"
	"monetlite/internal/analysis/monet"
)

var Analyzer = &framework.Analyzer{
	Name: "simpurity",
	Doc:  "keep sim != nil paths strictly serial and mirrored; keep sim method calls out of native-only paths",
	Run:  run,
}

// fanOutFuncs are the core worker-pool entry points; calling one in
// an instrumented region spawns goroutines.
var fanOutFuncs = map[string]bool{"ForEach": true, "ForMorsels": true, "forEachIndex": true}

// facts maps a sim expression key to its proven nil-ness in the
// current region: true = non-nil (instrumented), false = nil (native).
type facts map[string]bool

func (f facts) anyNonNil() bool {
	for _, nonNil := range f {
		if nonNil {
			return true
		}
	}
	return false
}

func merged(base, add facts) facts {
	if len(add) == 0 {
		return base
	}
	out := make(facts, len(base)+len(add))
	for k, v := range base {
		out[k] = v
	}
	for k, v := range add {
		out[k] = v
	}
	return out
}

func run(pass *framework.Pass) error {
	w := &walker{pass: pass}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				w.block(fn.Body.List, facts{})
			}
		}
	}
	return nil
}

type walker struct {
	pass *framework.Pass
}

// block walks a statement list, narrowing facts after early-exit ifs:
// once `if sim == nil { return ... }` has been passed, the remainder
// of the block runs with sim proven non-nil.
func (w *walker) block(stmts []ast.Stmt, env facts) {
	for _, s := range stmts {
		w.stmt(s, env)
		if ifs, ok := s.(*ast.IfStmt); ok && ifs.Else == nil && terminates(ifs.Body) {
			_, elseFacts := w.classify(ifs.Cond)
			env = merged(env, elseFacts)
		}
	}
}

func (w *walker) stmt(s ast.Stmt, env facts) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		w.block(s.List, env)
	case *ast.IfStmt:
		w.stmt(s.Init, env)
		w.exprs(s.Cond, env)
		bodyFacts, elseFacts := w.classify(s.Cond)
		w.block(s.Body.List, merged(env, bodyFacts))
		if s.Else != nil {
			w.stmt(s.Else, merged(env, elseFacts))
		}
	case *ast.ForStmt:
		w.stmt(s.Init, env)
		w.exprs(s.Cond, env)
		w.stmt(s.Post, env)
		w.block(s.Body.List, env)
	case *ast.RangeStmt:
		w.exprs(s.X, env)
		w.block(s.Body.List, env)
	case *ast.SwitchStmt:
		w.stmt(s.Init, env)
		w.exprs(s.Tag, env)
		w.block(s.Body.List, env)
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init, env)
		w.stmt(s.Assign, env)
		w.block(s.Body.List, env)
	case *ast.SelectStmt:
		w.block(s.Body.List, env)
	case *ast.CaseClause:
		for _, e := range s.List {
			w.exprs(e, env)
		}
		w.block(s.Body, env)
	case *ast.CommClause:
		w.stmt(s.Comm, env)
		w.block(s.Body, env)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, env)
	case *ast.GoStmt:
		if env.anyNonNil() {
			w.pass.Reportf(s.Pos(), "goroutine spawned in an instrumented (sim != nil) branch; sim runs model one CPU and must stay strictly serial")
		}
		w.exprs(s.Call, env)
	case *ast.DeferStmt:
		w.exprs(s.Call, env)
	default:
		// Leaf statements (expressions, assignments, returns, sends,
		// declarations): scan their expressions.
		w.exprs(s, env)
	}
}

// exprs scans an expression tree (or leaf statement) for calls,
// entering closure bodies with the surrounding facts — a closure in a
// native-only region still must not touch the simulator.
func (w *walker) exprs(n ast.Node, env facts) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(c ast.Node) bool {
		switch c := c.(type) {
		case *ast.FuncLit:
			w.block(c.Body.List, env)
			return false
		case *ast.CallExpr:
			w.call(c, env)
		}
		return true
	})
}

func (w *walker) call(call *ast.CallExpr, env facts) {
	fn := monet.Callee(w.pass.TypesInfo, call)
	if fn == nil {
		return
	}

	// Nil-deref direction: sim.Method() where this region proved sim nil.
	if sig := fn.Signature(); sig.Recv() != nil && monet.IsSimPtr(sig.Recv().Type()) {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if k := exprKey(w.pass.TypesInfo, sel.X); k != "" {
				if nonNil, known := env[k]; known && !nonNil {
					w.pass.Reportf(call.Pos(), "sim.%s called in a native-only (sim == nil) branch: guaranteed nil dereference; move the charge into the instrumented path", fn.Name())
				}
			}
		}
	}

	if !env.anyNonNil() {
		return
	}
	// Serial-purity direction: fan-outs and native-only kernels are
	// barred from instrumented regions.
	if monet.IsPkgFunc(fn, "core") && fanOutFuncs[fn.Name()] {
		w.pass.Reportf(call.Pos(), "core.%s fans out over the worker pool inside a sim != nil branch; instrumented runs must stay strictly serial", fn.Name())
		return
	}
	if monet.IsPkgFunc(fn, "dsm") && strings.HasSuffix(fn.Name(), "Pos") {
		w.pass.Reportf(call.Pos(), "native-only kernel dsm.%s called in a sim != nil branch; it mirrors nothing into the simulator — replay its reads in a touch pass and call it outside the branch", fn.Name())
		return
	}
	if sig := fn.Signature(); sig != nil {
		params := sig.Params()
		for i, arg := range call.Args {
			pi := i
			if sig.Variadic() && pi >= params.Len() {
				pi = params.Len() - 1
			}
			if pi >= params.Len() {
				break
			}
			if monet.IsOptions(params.At(pi).Type()) && !isSerialCall(w.pass.TypesInfo, arg) {
				w.pass.Reportf(arg.Pos(), "core.Options passed in a sim != nil branch must be a direct core.Serial(); instrumented runs must stay strictly serial")
			}
		}
	}
}

// isSerialCall reports whether e is a direct core.Serial() call.
func isSerialCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := monet.Callee(info, call)
	return monet.IsPkgFunc(fn, "core") && fn.Name() == "Serial"
}

// classify derives nil-ness facts from a branch condition: facts that
// hold inside the body, and facts that hold when the condition is
// false (the else branch, or the rest of the block after an early
// exit).
func (w *walker) classify(cond ast.Expr) (bodyFacts, elseFacts facts) {
	switch e := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		switch e.Op {
		case token.NEQ, token.EQL:
			k, ok := w.simNilComparison(e)
			if !ok {
				return nil, nil
			}
			if e.Op == token.NEQ {
				return facts{k: true}, facts{k: false}
			}
			return facts{k: false}, facts{k: true}
		case token.LAND:
			// a && b: both hold in the body; the negation proves nothing.
			bx, _ := w.classify(e.X)
			by, _ := w.classify(e.Y)
			return merged(bx, by), nil
		case token.LOR:
			// a || b: the body proves nothing; ¬(a||b) = ¬a && ¬b.
			_, ex := w.classify(e.X)
			_, ey := w.classify(e.Y)
			return nil, merged(ex, ey)
		}
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			b, el := w.classify(e.X)
			return el, b
		}
	}
	return nil, nil
}

// simNilComparison matches `simExpr OP nil` (either side) where
// simExpr has type *memsim.Sim and a stable key.
func (w *walker) simNilComparison(e *ast.BinaryExpr) (key string, ok bool) {
	info := w.pass.TypesInfo
	for _, pair := range [2][2]ast.Expr{{e.X, e.Y}, {e.Y, e.X}} {
		simSide, nilSide := pair[0], pair[1]
		if id, isIdent := ast.Unparen(nilSide).(*ast.Ident); !isIdent || id.Name != "nil" {
			continue
		}
		t := info.TypeOf(simSide)
		if t == nil || !monet.IsSimPtr(t) {
			continue
		}
		if k := exprKey(info, simSide); k != "" {
			return k, true
		}
	}
	return "", false
}

// exprKey canonicalizes an ident or selector chain (sim, ctx.sim,
// o.ctx.sim) so the same variable compares equal across mentions;
// anything else gets no key and therefore no facts.
func exprKey(info *types.Info, e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		if obj == nil {
			return ""
		}
		return fmt.Sprintf("v%p", obj)
	case *ast.SelectorExpr:
		base := exprKey(info, e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	}
	return ""
}

// terminates reports whether a block certainly transfers control away
// (return, branch, or panic as its last statement).
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}
