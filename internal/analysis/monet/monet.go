// Package monet holds the small shared vocabulary of the monetvet
// analyzers: how a function is marked as a hot kernel, which packages
// the engine treats as hot, and how the engine's load-bearing types
// (memsim.Sim, bat.Oid, core.Options) are recognized.
//
// Types and packages are identified by package *name* plus type name
// rather than full import path, so the analyzers work unchanged on
// the real tree (monetlite/internal/memsim) and on the analysistest
// fixture stubs (testdata/src/memsim). Within this module those names
// are unambiguous.
package monet

import (
	"go/ast"
	"go/types"
	"strings"
)

// KernelDirective marks a function whose body must stay
// allocation-free and cache-resident: the dsm *Pos kernels, the core
// radix-cluster scatter kernels, the agg grouping table's fold and
// merge runs. The hotalloc analyzer enforces it.
const KernelDirective = "monet:kernel"

// IsKernel reports whether fn carries a //monet:kernel directive in
// its doc comment.
func IsKernel(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == KernelDirective || strings.HasPrefix(text, KernelDirective+" ") {
			return true
		}
	}
	return false
}

// HotPackages are the packages whose inner loops carry the engine's
// throughput; noreflect bans reflection-driven constructs here
// outright.
var HotPackages = map[string]bool{
	"core":    true,
	"dsm":     true,
	"agg":     true,
	"hashtab": true,
	"sel":     true,
	"scan":    true,
	"sortx":   true,
}

// OrderedPackages are the packages that construct results, OID lists,
// group orders and merge orders; detorder bans iteration-order-
// dependent constructs here because any of them can silently break
// the byte-identical-at-any-worker-count guarantee.
var OrderedPackages = map[string]bool{
	"engine": true,
	"agg":    true,
	"dsm":    true,
}

// Callee resolves the static callee of call, or nil for calls through
// function values, type conversions, and builtins.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if fid, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = fid
		}
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// IsPkgFunc reports whether fn is a package-level function (or method)
// of a package with the given name.
func IsPkgFunc(fn *types.Func, pkgName string) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Name() == pkgName
}

// IsNamed reports whether t (after unaliasing) is the named type
// pkgName.typeName.
func IsNamed(t types.Type, pkgName, typeName string) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == typeName && obj.Pkg() != nil && obj.Pkg().Name() == pkgName
}

// IsSimPtr reports whether t is *memsim.Sim, the simulator handle
// whose nil-ness separates instrumented from native execution.
func IsSimPtr(t types.Type) bool {
	ptr, ok := types.Unalias(t).(*types.Pointer)
	return ok && IsNamed(ptr.Elem(), "memsim", "Sim")
}

// IsOidSlice reports whether t is []bat.Oid, the selection-vector
// type for which nil and empty mean different things to consumers.
func IsOidSlice(t types.Type) bool {
	sl, ok := types.Unalias(t).(*types.Slice)
	return ok && IsNamed(sl.Elem(), "bat", "Oid")
}

// IsOptions reports whether t is core.Options, the worker-pool
// fan-out configuration.
func IsOptions(t types.Type) bool {
	return IsNamed(t, "core", "Options")
}

// A WorkerPool describes one of the engine's fan-out entry points:
// which argument is the worker-body closure, and which of that
// closure's parameters are per-unit identifiers (worker slot, morsel
// index, partition/task index). A store inside the body that is
// indexed by a value derived from an identifier parameter is
// worker-local by the pool's contract; anything else it writes to
// captured state is a candidate race.
type WorkerPool struct {
	// BodyArg is the zero-based index of the closure argument among
	// the call's non-receiver arguments.
	BodyArg int
	// IDParams are the zero-based closure-parameter indices that
	// identify the unit of work (all of them are exclusive per
	// concurrent invocation).
	IDParams []int
}

// WorkerPools maps the fan-out functions of internal/core and
// internal/engine — recognized by bare function/method name, like the
// rest of monetvet's vocabulary, so fixture stubs work — to the shape
// of their worker bodies.
var WorkerPools = map[string]WorkerPool{
	// core: ForEach(workers, n, body func(w, i int))
	"ForEach": {BodyArg: 2, IDParams: []int{0, 1}},
	// core: ForEachSpan(workers, n, rec, body func(w, i int))
	"ForEachSpan": {BodyArg: 3, IDParams: []int{0, 1}},
	// core: ForMorsels(workers, n, body func(m, lo, hi int))
	"ForMorsels": {BodyArg: 2, IDParams: []int{0, 1, 2}},
	// core: forEachIndex(workers, n, body func(w, i int))
	"forEachIndex": {BodyArg: 2, IDParams: []int{0, 1}},
	// engine: (*execCtx).forMorsels(n, body func(w, m, lo, hi int))
	"forMorsels": {BodyArg: 1, IDParams: []int{0, 1, 2, 3}},
	// engine: (*execCtx).forMorselsErr(n, body func(w, m, lo, hi int) error)
	"forMorselsErr": {BodyArg: 1, IDParams: []int{0, 1, 2, 3}},
}

// IsSyncLock reports whether call is mu.Lock() on a sync.Mutex or
// sync.RWMutex (write lock only — RLock does not license stores).
func IsSyncLock(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Lock" {
		return false
	}
	t := info.TypeOf(sel.X)
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return IsNamed(t, "sync", "Mutex") || IsNamed(t, "sync", "RWMutex")
}
