package engine

import (
	"fmt"
	"math"

	"monetlite/internal/bat"
	"monetlite/internal/costmodel"
	"monetlite/internal/dsm"
	"monetlite/internal/hashtab"
)

// The HashProbe stage is §3.4.4's B = 0 case inside the pipeline: when
// a join's inner input (its right side) and the hash table over it fit
// L2, partitioning can only add passes, so the join becomes one
// non-breaking stage of the outer input's pipeline. At run start the
// stage executes the inner input once and builds one bucket-chained
// hashtab.Table over its key. Per vector it gathers the outer key
// through its binding, checks it against uint32, probes the table
// (hashtab.ProbeVec) and hands the stages above it aligned (outer row,
// inner row) vectors, in outer row order and each row's matches in
// chain order; an outer row without a match drops out. Inner-side
// bindings resolve their positions through the inner rows, so the
// refilters, sinks and Limit above the stage read both sides without a
// join index, key BATs or remapped OID lists ever existing.

// probeStage is a pipeline's HashProbe stage.
type probeStage struct {
	build     physOp  // the inner input, executed once per run
	buildRows float64 // its estimated rows
	probeIdx  int     // binding owning the outer key
	buildIdx  int     // inner-fragment binding owning the inner key
	probeCol  *dsm.Column
	buildCol  *dsm.Column
	probeName string
	buildName string
	at        int // filters before the stage; they see outer rows only
	cost      costmodel.Breakdown
}

// probeFootprint is the bytes a HashProbe stage keeps resident for an
// inner input of rows rows: its 8-byte (row, key) pairs, one 4-byte
// chain entry per pair and the 4-byte bucket heads of the native table
// that runs (hashtab.NativeBuckets) — §3.4.4's "inner relation plus
// hash table".
func probeFootprint(rows float64) float64 {
	n := int(math.Ceil(rows))
	return float64(12*n + 4*hashtab.NativeBuckets(n))
}

func (s *probeStage) label() string { return "HashProbe" }

func (s *probeStage) detail() string {
	return fmt.Sprintf("%s = %s  build~%.0f rows (%s)", s.probeName, s.buildName,
		s.buildRows, fmtBytes(probeFootprint(s.buildRows)))
}

func (s *probeStage) predicted() costmodel.Breakdown { return s.cost }

// buildAccess is the HashProbe[build] phase over nb inner rows:
// gathering the inner keys into the 8-byte pairs, then initializing and
// linking the table — its chain entries and bucket heads, the
// probeFootprint beyond the pairs.
func (s *probeStage) buildAccess(nb float64, model *costmodel.Model) [3]access {
	g := gatherAccess(nb, s.buildCol, 8, model)
	return [3]access{g[0], g[1],
		{Pattern: costmodel.Sweep, Write: true, Count: probeFootprint(nb) - 8*nb, Width: 1}}
}

// probeAccess is the HashProbe stage over np outer rows against a build
// of nb inner rows: gathering the outer keys into the vector and np
// chain walks, an 8-byte pair each, that miss only where the resident
// footprint outgrows a cache (none when it fits L1). CPU is the Th
// model's per-probe hash work wh plus one w'h for the single cluster.
func (s *probeStage) probeAccess(np, nb float64, model *costmodel.Model) [2]access {
	c := model.M.Cost
	return [2]access{gatherAccess(np, s.probeCol, 0, model)[0],
		{Pattern: costmodel.Probe, Count: np, Width: 8, Region: probeFootprint(nb), CPU: np*c.Wh + c.WhClus}}
}

// probeTable is one run's build side: the inner fragment's bindings,
// its (row, key) pairs and the table over them, all owned by the run.
type probeTable struct {
	binds []binding
	pairs *bat.Pairs
	tab   *hashtab.Table
}

// buildTable executes the inner input and builds the run's table over
// its key; the pairs' heads are inner row indices.
func (s *probeStage) buildTable(ctx *execCtx) (*probeTable, error) {
	if s.probeCol.Enc != nil {
		return nil, fmt.Errorf("engine: join column %s is dictionary-encoded", s.probeName)
	}
	in, err := ctx.exec(s.build)
	if err != nil {
		return nil, err
	}
	if in.rows() > math.MaxInt32 {
		return nil, fmt.Errorf("engine: %d inner rows overflow a hash probe's int32 positions", in.rows())
	}
	var ph *OpStats
	if ctx.prof != nil {
		ph = ctx.prof.beginPhase("HashProbe[build]", s.buildName)
	}
	pairs, err := materializeJoinColumn(ctx, in.binds[s.buildIdx], s.buildCol, s.buildName)
	if err != nil {
		return nil, err
	}
	tab := hashtab.New(pairs.Len(), hashtab.Identity)
	tab.Build(ctx.sim, pairs)
	if ctx.sim != nil {
		ctx.sim.AddCPU(1, ctx.machine.Cost.WhClus)
	}
	if ph != nil {
		nb := int64(pairs.Len())
		ph.InRows = nb
		d := s.buildAccess(float64(nb), ctx.model)
		read, written := bytesOf(d[:]...)
		ctx.prof.endPhase(ph, nb, read, written)
	}
	return &probeTable{binds: in.binds, pairs: pairs, tab: tab}, nil
}

// probeVec runs the HashProbe stage over one vector of outer rows and
// passes its matches on through the stages above it, in sub-vectors of
// at most r.vec pairs. It reports whether the morsel reached the
// pipeline's Limit.
func (r *pipeRun) probeVec(a *pipeArena, rows []int32, ch *pipeChunk) (bool, error) {
	s, sim := r.op.probe, r.ctx.sim
	pos, err := a.positions(r.binds, s.probeIdx, rows)
	if err != nil {
		return false, err
	}
	if sim != nil {
		r.ctx.mirror(s.probeCol, pos)
		sim.AddCPU(len(pos), r.ctx.machine.Cost.Wh)
	}
	a.jkeys = dsm.AppendIntsPos(a.jkeys[:0], s.probeCol, pos)
	keys := a.jkeys32[:len(a.jkeys)]
	for i, v := range a.jkeys {
		if v < 0 || v > math.MaxUint32 {
			return false, outsideUint32(v, s.probeName)
		}
		keys[i] = uint32(v)
	}
	if ch.stageRows != nil {
		ch.probed += int64(len(rows))
	}
	var c hashtab.Cursor
	for c.Key < len(keys) {
		n := r.table.tab.ProbeVec(sim, r.table.pairs, keys, rows, &c, a.prow[:r.vec], a.brow[:r.vec])
		if ch.stageRows != nil {
			ch.matched += int64(n)
		}
		if done, err := r.flush(a, a.prow[:n], a.brow[:n], s.at, ch); done || err != nil {
			return done, err
		}
	}
	return false, nil
}

// refilterPairs runs a refilter stage above the HashProbe over aligned
// (outer row, inner row) vectors, compacting both to the pairs whose
// binding position passes.
func (r *pipeRun) refilterPairs(a *pipeArena, f *resolvedFilter, prow, brow []int32) ([]int32, []int32, error) {
	pos, err := a.positions(r.binds, f.bindIdx, r.rowsOf(f.bindIdx, prow, brow))
	if err != nil {
		return nil, nil, err
	}
	if r.ctx.sim != nil && f.kind != fMiss {
		r.ctx.mirror(f.col, pos)
	}
	idx := a.sel[:len(pos)]
	for i := range idx {
		idx[i] = int32(i)
	}
	kept := f.keep(pos, idx)
	for k, j := range kept {
		prow[k], brow[k] = prow[j], brow[j]
	}
	return prow[:len(kept)], brow[:len(kept)], nil
}

// rowsOf picks the row vector binding bi resolves through: the inner
// rows for a binding of the HashProbe's inner input, else the outer
// rows.
func (r *pipeRun) rowsOf(bi int, rows, brows []int32) []int32 {
	if bi >= r.nProbe {
		return brows
	}
	return rows
}
