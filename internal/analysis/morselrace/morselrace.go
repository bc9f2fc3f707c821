// Package morselrace is a domain-specific race detector for the
// engine's worker-pool idiom. The contract of core.ForEach,
// core.ForEachSpan, core.ForMorsels, core.forEachIndex and the engine's
// forMorsels wrappers is that the body closure touches only state
// local to its identifier parameters (worker slot, morsel index,
// task index); everything else the closure captures is shared across
// concurrently running workers. The analyzer flags stores to captured
// state inside a worker body unless it can prove one of:
//
//   - the store is indexed by an expression derived (transitively,
//     via the function's definition chains) from an identifier
//     parameter — the per-worker-slot / per-morsel pattern, e.g.
//     counts[w] = c or errs[m] = err;
//   - the store goes through a local alias of such a slot — the
//     per-worker arena pattern, e.g. cur := counts[w]; cur[d]++;
//   - a mu.Lock() on a sync.Mutex/RWMutex dominates the store within
//     the closure's control-flow graph.
//
// Raw `go func(...){...}(...)` statements get the same treatment with
// the literal's parameters (and the per-iteration loop variables of
// enclosing loops, per Go ≥1.22 semantics) as identifier seeds.
//
// Known soft spots, on purpose: method calls on captured receivers
// are not analyzed (mutating methods like append-style setters can
// hide a race; the dynamic -race CI job remains the backstop for
// those), and stores whose destination is reached through a call
// result are skipped. Both trade missed exotic races for zero noise
// on the engine's real fan-outs.
package morselrace

import (
	"go/ast"
	"go/token"
	"go/types"

	"monetlite/internal/analysis/framework"
	"monetlite/internal/analysis/framework/ssa"
	"monetlite/internal/analysis/monet"
)

var Analyzer = &framework.Analyzer{
	Name: "morselrace",
	Doc:  "flag writes to shared captured state inside worker-pool closures",
	Run:  run,
}

func run(pass *framework.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			c := &checker{
				pass:     pass,
				info:     pass.TypesInfo,
				defs:     ssa.Definitions(pass.TypesInfo, fn.Body),
				litSeeds: make(map[*ast.FuncLit]map[*types.Var]bool),
			}
			c.scan(fn.Body)
		}
	}
	return nil
}

type checker struct {
	pass *framework.Pass
	info *types.Info
	// defs is the enclosing function's flow-insensitive definition
	// set; seeds and aliases resolve against it.
	defs *ssa.DefSet
	// litSeeds records the identifier seeds of every recognized
	// worker-body literal, so a body nested inside another body
	// unions the enclosing identifiers into its own.
	litSeeds map[*ast.FuncLit]map[*types.Var]bool
}

// scan walks a function body keeping a node stack, dispatching every
// recognized worker body to check.
func (c *checker) scan(body *ast.BlockStmt) {
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.CallExpr:
			if lit, ids, ok := c.workerBody(n); ok {
				c.check(lit, ids, stack)
			}
		case *ast.GoStmt:
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				c.check(lit, c.goSeeds(lit, stack), stack)
			}
		}
		return true
	})
}

// workerBody matches call against the engine's fan-out vocabulary and
// returns the body literal plus its identifier parameters.
func (c *checker) workerBody(call *ast.CallExpr) (*ast.FuncLit, []*types.Var, bool) {
	var name string
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	default:
		return nil, nil, false
	}
	pool, ok := monet.WorkerPools[name]
	if !ok || monet.Callee(c.info, call) == nil {
		return nil, nil, false
	}
	if pool.BodyArg >= len(call.Args) {
		return nil, nil, false
	}
	lit, ok := ast.Unparen(call.Args[pool.BodyArg]).(*ast.FuncLit)
	if !ok {
		return nil, nil, false // body passed by name: analyzed where the literal is written
	}
	params := litParams(c.info, lit)
	var ids []*types.Var
	for _, i := range pool.IDParams {
		if i < len(params) && params[i] != nil {
			ids = append(ids, params[i])
		}
	}
	return lit, ids, true
}

// goSeeds returns the identifier seeds for a raw goroutine body: all
// of the literal's parameters (values passed at launch are snapshots)
// plus the per-iteration variables of enclosing for/range statements.
func (c *checker) goSeeds(lit *ast.FuncLit, stack []ast.Node) []*types.Var {
	seeds := litParams(c.info, lit)
	for _, n := range stack {
		switch n := n.(type) {
		case *ast.ForStmt:
			if init, ok := n.Init.(*ast.AssignStmt); ok && init.Tok == token.DEFINE {
				for _, l := range init.Lhs {
					if id, ok := l.(*ast.Ident); ok {
						if v, ok := c.info.Defs[id].(*types.Var); ok {
							seeds = append(seeds, v)
						}
					}
				}
			}
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{n.Key, n.Value} {
				if id, ok := e.(*ast.Ident); ok {
					if v, ok := c.info.Defs[id].(*types.Var); ok {
						seeds = append(seeds, v)
					}
				}
			}
		}
	}
	return seeds
}

func litParams(info *types.Info, lit *ast.FuncLit) []*types.Var {
	var out []*types.Var
	if lit.Type.Params == nil {
		return out
	}
	for _, field := range lit.Type.Params.List {
		for _, name := range field.Names {
			v, _ := info.Defs[name].(*types.Var)
			out = append(out, v)
		}
	}
	return out
}

// check analyzes one worker-body literal: every store in it (and in
// plain nested closures, which run inline on the same worker) must be
// provably local to the identifier seeds.
func (c *checker) check(lit *ast.FuncLit, ids []*types.Var, stack []ast.Node) {
	seeds := make(map[*types.Var]bool, len(ids))
	for _, v := range ids {
		if v != nil {
			seeds[v] = true
		}
	}
	// A worker body nested inside another worker body inherits the
	// enclosing identifiers: state exclusive to the outer unit stays
	// exclusive inside the inner fan-out.
	for _, n := range stack {
		if outer, ok := n.(*ast.FuncLit); ok {
			for v := range c.litSeeds[outer] {
				seeds[v] = true
			}
		}
	}
	c.litSeeds[lit] = seeds

	derived := c.defs.Derived(seeds)
	flow := ssa.Build(c.info, lit.Body)
	locks := lockSites(c.info, flow, lit.Body)

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Nested worker bodies and goroutine launches get their
			// own pass with their own (richer) seed set; don't
			// second-guess their stores here.
			if c.isOwnBody(n, stack) {
				return false
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				c.store(lit, lhs, n, derived, flow, locks)
			}
		case *ast.IncDecStmt:
			c.store(lit, n.X, n, derived, flow, locks)
		}
		return true
	})
}

// isOwnBody reports whether inner is itself a recognized worker body
// or goroutine body somewhere under the scanned function (it will be
// — or was — visited by scan with its own seeds).
func (c *checker) isOwnBody(inner *ast.FuncLit, stack []ast.Node) bool {
	if _, ok := c.litSeeds[inner]; ok {
		return true
	}
	// Not yet visited: peek at the parent chain cheaply by matching
	// the literal against worker-pool calls and go statements in the
	// enclosing body.
	found := false
	for _, n := range stack {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.CallExpr:
				if l, _, ok := c.workerBody(m); ok && l == inner {
					found = true
				}
			case *ast.GoStmt:
				if l, ok := ast.Unparen(m.Call.Fun).(*ast.FuncLit); ok && l == inner {
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// store checks one assignment/incdec target inside worker body lit.
func (c *checker) store(lit *ast.FuncLit, lhs ast.Expr, node ast.Node, derived map[*types.Var]bool, flow *ssa.Func, locks []ssa.Site) {
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name == "_" {
		return
	}
	p, ok := ssa.ResolvePath(c.info, lhs)
	if !ok || p.Root == nil {
		return // store through a call result or similar: out of scope
	}
	captured := !ssa.DeclaredWithin(p.Root, lit)

	// Any identifier-derived index along the access path proves the
	// destination exclusive to this unit of work.
	for _, idx := range p.Indices {
		if c.defs.Mentions(idx, derived) {
			return
		}
	}
	// A non-bare store through a root that is itself derived from an
	// identifier (row := grid[i]; row[0] = ...) lands in
	// unit-exclusive memory. Bare stores never qualify: they write
	// the variable's own (shared, if captured) slot, and `total +=
	// vals[i]` mentioning an id does not make total exclusive.
	if !p.BareVar && derived[p.Root] {
		return
	}

	if !captured {
		if p.BareVar {
			return // rebinding a closure-local variable
		}
		// Writing through a local root: fine unless the root aliases
		// captured state without a unit-local index in the chain.
		if shared, via := c.aliasesShared(lit, p.Root, derived, 0); shared {
			c.pass.Reportf(node.Pos(),
				"store through %s inside a worker body: %s aliases captured %s without a worker/morsel-derived index, so concurrent workers write the same memory; take the alias through an id-indexed slot (e.g. %s[w]) or annotate //monet:allow morselrace",
				p.Root.Name(), p.Root.Name(), via, via)
		}
		return
	}

	// Captured destination. A dominating Lock() makes it safe.
	if c.lockDominated(flow, locks, node) {
		return
	}

	assign, _ := node.(*ast.AssignStmt)
	switch {
	case p.BareVar && assign != nil && assign.Tok == token.ASSIGN && c.selfAppend(assign, p.Root):
		c.pass.Reportf(node.Pos(),
			"append to captured %s inside a worker body grows a shared slice concurrently; give each unit its own slot (%s[w] = append(%s[w], ...)) with a merge after the join, or guard with a mutex",
			p.Root.Name(), p.Root.Name(), p.Root.Name())
	case p.BareVar:
		c.pass.Reportf(node.Pos(),
			"write to captured %s inside a worker body: concurrent workers race on it; make it per-unit state indexed by the worker/morsel id, or guard with a mutex",
			p.Root.Name())
	case len(p.Indices) > 0:
		c.pass.Reportf(node.Pos(),
			"write to captured %s inside a worker body is not indexed by a worker/morsel id: the index is shared across workers; derive it from an id parameter or annotate //monet:allow morselrace with the exclusivity argument",
			p.Root.Name())
	default:
		c.pass.Reportf(node.Pos(),
			"write through captured %s inside a worker body: the destination is shared across workers; route it through a per-worker slot or guard with a mutex",
			p.Root.Name())
	}
}

// aliasesShared reports whether var v (local to worker body lit) may
// alias captured memory reached without any derived index, returning
// the captured root's name. Definitions from calls, fresh allocations
// and literals are treated as non-aliasing (lenient by design: the
// alias proof is only needed to accuse, and false accusations cost
// more than the -race backstop misses).
func (c *checker) aliasesShared(lit *ast.FuncLit, v *types.Var, derived map[*types.Var]bool, depth int) (bool, string) {
	if depth > 4 {
		return false, ""
	}
	for _, rhs := range c.defs.Defs(v) {
		if rhs == nil {
			continue
		}
		e := ast.Unparen(rhs)
		if ue, ok := e.(*ast.UnaryExpr); ok && ue.Op == token.AND {
			e = ast.Unparen(ue.X) // &x[i] aliases exactly what x[i] is
		}
		p, ok := ssa.ResolvePath(c.info, e)
		if !ok || p.Root == nil {
			continue // call result / fresh allocation / literal
		}
		localIdx := false
		for _, idx := range p.Indices {
			if c.defs.Mentions(idx, derived) {
				localIdx = true
				break
			}
		}
		if localIdx {
			continue // alias of an id-indexed slot: unit-local
		}
		if derived[p.Root] {
			continue // alias of something already unit-local
		}
		if !ssa.DeclaredWithin(p.Root, lit) {
			return true, p.Root.Name() // captured root, no unit-local index
		}
		if sub, via := c.aliasesShared(lit, p.Root, derived, depth+1); sub {
			return true, via
		}
	}
	return false, ""
}

// selfAppend reports whether assign is `v = append(v, ...)`.
func (c *checker) selfAppend(assign *ast.AssignStmt, v *types.Var) bool {
	if len(assign.Rhs) != 1 {
		return false
	}
	call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" {
		return false
	}
	arg, ok := ssa.ResolvePath(c.info, call.Args[0])
	return ok && arg.Root == v
}

// lockSites collects the mu.Lock() call sites in body.
func lockSites(info *types.Info, flow *ssa.Func, body *ast.BlockStmt) []ssa.Site {
	var out []ssa.Site
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && monet.IsSyncLock(info, call) {
			if s, ok := flow.SiteOf(call); ok {
				out = append(out, s)
			}
		}
		return true
	})
	return out
}

func (c *checker) lockDominated(flow *ssa.Func, locks []ssa.Site, node ast.Node) bool {
	s, ok := flow.SiteOf(node)
	if !ok {
		return false
	}
	for _, l := range locks {
		if flow.Dominates(l, s) {
			return true
		}
	}
	return false
}
