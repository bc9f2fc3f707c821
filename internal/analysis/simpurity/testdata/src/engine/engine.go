// Fixture for the simpurity analyzer: instrumented (sim != nil)
// regions must stay serial and mirrored; native (sim == nil) regions
// must never touch the simulator.
package engine

import (
	"core"
	"dsm"
	"memsim"
)

func work() {}

func useOpts(o core.Options, n int) {}

func spawnInSim(sim *memsim.Sim) {
	if sim != nil {
		go work() // want "goroutine spawned in an instrumented"
	}
	go work() // no facts here: not flagged
}

func fanOutInSim(sim *memsim.Sim) {
	if sim != nil {
		core.ForEach(2, 8, func(w, i int) {}) // want "fans out over the worker pool"
	}
	core.ForEach(2, 8, func(w, i int) {})
}

func morselsInSim(sim *memsim.Sim) {
	if sim != nil {
		core.ForMorsels(2, 8, func(m, lo, hi int) {}) // want "fans out over the worker pool"
	}
}

func nativeKernelInSim(sim *memsim.Sim, pos []int32) []int32 {
	if sim != nil {
		return dsm.FilterRangePos(pos) // want "native-only kernel dsm.FilterRangePos"
	}
	return dsm.FilterRangePos(pos)
}

// touchMirror pins the intended shape: the instrumented half of a
// stage is a touch pass inside the branch; the kernel call after it is
// shared with native runs.
func touchMirror(sim *memsim.Sim, pos []int32) []int32 {
	if sim != nil {
		sim.Read(0, 8)
	}
	return dsm.FilterRangePos(pos)
}

// Materialize has no Pos suffix: calling it under sim is the intended
// mirrored path.
func materializeInSim(sim *memsim.Sim, pos []int32) []int32 {
	if sim != nil {
		return dsm.Materialize(pos)
	}
	return pos
}

func optionsInSim(sim *memsim.Sim, opt core.Options) {
	if sim != nil {
		useOpts(opt, 1)              // want "must be a direct core.Serial"
		useOpts(core.Parallel(4), 1) // want "must be a direct core.Serial"
		useOpts(core.Serial(), 1)
	}
	useOpts(opt, 1)
}

func nilDeref(sim *memsim.Sim) {
	if sim == nil {
		sim.AddCPU(1, 2) // want "guaranteed nil dereference"
	}
}

// instrumentedCharge pins the intended mirrored-charge shape.
func instrumentedCharge(sim *memsim.Sim) {
	if sim != nil {
		sim.AddCPU(1, 2)
		sim.Read(0, 8)
	}
}

// earlyReturn pins flow narrowing: after the sim == nil early exit,
// the remainder of the function is an instrumented region.
func earlyReturn(sim *memsim.Sim) {
	if sim == nil {
		return
	}
	go work() // want "goroutine spawned in an instrumented"
}

// orNegation pins ¬(a||b) = ¬a && ¬b: the else branch of
// `sim != nil || n <= 1` proves sim == nil.
func orNegation(sim *memsim.Sim, n int) {
	if sim != nil || n <= 1 {
		work()
	} else {
		sim.AddCPU(1, 2) // want "guaranteed nil dereference"
	}
}

// fieldSim pins selector-chain tracking (ctx.sim-style handles).
type ctx struct{ sim *memsim.Sim }

func fieldSim(c *ctx) {
	if c.sim != nil {
		go work() // want "goroutine spawned in an instrumented"
	}
}

// closureInherits pins that a closure body inherits the region facts
// of its surrounding branch.
func closureInherits(sim *memsim.Sim) func() {
	if sim == nil {
		return func() {
			sim.AddCPU(1, 2) // want "guaranteed nil dereference"
		}
	}
	return work
}

func allowedSpawn(sim *memsim.Sim) {
	if sim != nil {
		//monet:allow simpurity replay goroutine drains a recorded trace, charges nothing
		go work()
	}
}
