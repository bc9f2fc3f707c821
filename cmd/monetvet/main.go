// monetvet is the engine's static-analysis suite: nine analyzers that
// mechanically enforce the invariants the paper reproduction depends
// on. Six are syntactic/type-based:
//
//   - hotalloc: no per-iteration allocation in hot-package loops
//   - detorder: deterministic result and merge order
//   - simpurity: strictly-serial fully-mirrored instrumented runs
//   - nonnilsel: non-nil selection vectors
//   - noreflect: no reflection in the hot packages
//   - proffree: nil-guarded profiling hooks in kernel loops
//
// Three are deep analyzers built on the framework's SSA-lite layer
// (CFG + dominators + taint, internal/analysis/framework/ssa):
//
//   - morselrace: writes to shared captured variables inside worker
//     closures must be indexed by a worker/morsel/partition id, go
//     through a per-worker arena, or be lock-dominated
//   - kernalloc: interprocedural allocation-freedom proofs for
//     //monet:kernel functions (escapes, boxing, maps, growing
//     appends, allocating callees)
//   - costcover: physical operators and the cost model stay in
//     lockstep (cost fields really set, stable calibration labels,
//     no raw Breakdown pricing)
//
// It runs two ways:
//
//	go vet -vettool=$(pwd)/monetvet ./...   # unitchecker protocol, used by CI
//	monetvet ./...                          # standalone, for local iteration
//
// The standalone form also supports machine-readable output and a
// committed findings baseline (CI fails only on NEW findings):
//
//	monetvet -json ./...
//	monetvet -baseline .monetvet-baseline.json ./...
//	monetvet -baseline .monetvet-baseline.json -write-baseline ./...
//
// A finding is suppressed with a justified comment on the offending
// line (or the line above):
//
//	//monet:allow <analyzer>[,<analyzer>] <justification>
package main

import (
	"monetlite/internal/analysis/costcover"
	"monetlite/internal/analysis/detorder"
	"monetlite/internal/analysis/framework"
	"monetlite/internal/analysis/hotalloc"
	"monetlite/internal/analysis/kernalloc"
	"monetlite/internal/analysis/morselrace"
	"monetlite/internal/analysis/nonnilsel"
	"monetlite/internal/analysis/noreflect"
	"monetlite/internal/analysis/proffree"
	"monetlite/internal/analysis/simpurity"
)

func main() {
	framework.VetMain([]*framework.Analyzer{
		hotalloc.Analyzer,
		detorder.Analyzer,
		simpurity.Analyzer,
		nonnilsel.Analyzer,
		noreflect.Analyzer,
		proffree.Analyzer,
		morselrace.Analyzer,
		kernalloc.Analyzer,
		costcover.Analyzer,
	})
}
