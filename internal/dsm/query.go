package dsm

import (
	"fmt"

	"monetlite/internal/agg"
	"monetlite/internal/bat"
	"monetlite/internal/memsim"
)

// SelectRange returns the OIDs of rows whose numeric column value lies
// in [lo, hi]: a scan-select over the decomposed column (optimal
// locality; the §3.2 low-selectivity access path). Native runs take a
// fast path with no per-element simulator check, direct typed-slice
// access, and an output preallocated from a sampled selectivity.
func (t *Table) SelectRange(sim *memsim.Sim, column string, lo, hi int64) ([]bat.Oid, error) {
	c, err := t.Column(column)
	if err != nil {
		return nil, err
	}
	if c.Enc != nil {
		return nil, fmt.Errorf("dsm: SelectRange on encoded column %q; use SelectStringRange", column)
	}
	if sim == nil {
		return nativeSelectRange(c, lo, hi), nil
	}
	c.Vec.Bind(sim)
	out := []bat.Oid{} // empty results stay non-nil, like every select path
	for i := 0; i < c.Vec.Len(); i++ {
		c.Vec.Touch(sim, i)
		if v := c.Vec.Int(i); v >= lo && v <= hi {
			out = append(out, bat.Oid(i))
		}
	}
	sim.AddCPU(c.Vec.Len(), sim.Machine().Cost.WScanBUN/4)
	return out, nil
}

// SamplePositions returns up to 1024 evenly spaced positions of an
// n-row column: the deterministic probe set behind every selectivity
// and group-count estimate (here and in the engine's planner).
func SamplePositions(n int) []int {
	if n <= 0 {
		return nil
	}
	step := (n + 1023) / 1024
	if step < 1 {
		step = 1
	}
	out := make([]int, 0, (n+step-1)/step)
	for i := 0; i < n; i += step {
		out = append(out, i)
	}
	return out
}

// estimateCap probes up to 1024 evenly spaced positions of an n-row
// column through the test predicate and sizes an output slice from the
// matching fraction (with slack, clamped to [16, n]) — so a scan
// almost never reallocates while small results stay small.
func estimateCap(n int, test func(i int) bool) int {
	if n <= 0 {
		return 0
	}
	step := (n + 1023) / 1024
	match, probes := 0, 0
	for i := 0; i < n; i += step {
		probes++
		if test(i) {
			match++
		}
	}
	cap := n / probes * match
	cap += cap / 8
	if cap < 16 {
		cap = 16
	}
	if cap > n {
		cap = n
	}
	return cap
}

// nativeSelectRange is the uninstrumented scan-select: one tight loop
// per physical width, no Touch, preallocated output.
//
//monet:kernel
func nativeSelectRange(c *Column, lo, hi int64) []bat.Oid {
	switch v := c.Vec.(type) {
	case *bat.I8Vec:
		return selectSlice(v.V, lo, hi)
	case *bat.I16Vec:
		return selectSlice(v.V, lo, hi)
	case *bat.I32Vec:
		return selectSlice(v.V, lo, hi)
	case *bat.I64Vec:
		return selectSlice(v.V, lo, hi)
	default:
		n := c.Vec.Len()
		//monet:allow kernalloc non-escaping capacity-estimate predicate, stack-allocated; the scan loop itself is allocation-free
		out := make([]bat.Oid, 0, estimateCap(n, func(i int) bool {
			x := c.Vec.Int(i)
			return x >= lo && x <= hi
		}))
		for i := 0; i < n; i++ {
			if x := c.Vec.Int(i); x >= lo && x <= hi {
				out = append(out, bat.Oid(i))
			}
		}
		return out
	}
}

// selectSlice scans one typed slice, emitting the OIDs of matches.
// Widths narrower than the bounds clamp correctly because the
// comparison widens each element.
//
//monet:kernel
func selectSlice[T int8 | int16 | int32 | int64](vals []T, lo, hi int64) []bat.Oid {
	//monet:allow kernalloc non-escaping capacity-estimate predicate, stack-allocated; the scan loop itself is allocation-free
	out := make([]bat.Oid, 0, estimateCap(len(vals), func(i int) bool {
		x := int64(vals[i])
		return x >= lo && x <= hi
	}))
	for i, v := range vals {
		if x := int64(v); x >= lo && x <= hi {
			out = append(out, bat.Oid(i))
		}
	}
	return out
}

// SelectString returns the OIDs of rows whose string column equals
// value. On an encoded column the predicate is re-mapped to a 1-byte
// code comparison — "a selection on a string 'MAIL' can be re-mapped
// to a selection on a byte with value 3" (§3.1) — so the scan never
// decodes.
func (t *Table) SelectString(sim *memsim.Sim, column, value string) ([]bat.Oid, error) {
	c, err := t.Column(column)
	if err != nil {
		return nil, err
	}
	if c.Enc == nil {
		sv, ok := c.Vec.(*bat.StrVec)
		if !ok {
			return nil, fmt.Errorf("dsm: column %q is not a string column", column)
		}
		out := []bat.Oid{}
		for i := 0; i < sv.Len(); i++ {
			sv.Touch(sim, i)
			if sv.Str(i) == value {
				out = append(out, bat.Oid(i))
			}
		}
		return out, nil
	}
	code, ok := c.Enc.Code(value)
	if !ok {
		// Value outside the dictionary: an empty — and, like every
		// select result, non-nil — OID list. A nil here would read as
		// "all rows" to consumers that treat nil OID lists as the
		// unfiltered identity (dsm.GroupAggregate, engine bindings).
		return []bat.Oid{}, nil
	}
	if sim == nil {
		return nativeSelectCode(c, code), nil
	}
	c.Vec.Bind(sim)
	out := []bat.Oid{}
	for i := 0; i < c.Vec.Len(); i++ {
		c.Vec.Touch(sim, i)
		if codeOf(c, i) == code {
			out = append(out, bat.Oid(i))
		}
	}
	sim.AddCPU(c.Vec.Len(), sim.Machine().Cost.WScanBUN/4)
	return out, nil
}

// nativeSelectCode is the uninstrumented byte-code equality scan: the
// re-mapped string predicate on the 1-/2-byte code column, as one
// tight loop with preallocated output.
//
//monet:kernel
func nativeSelectCode(c *Column, code int64) []bat.Oid {
	switch v := c.Vec.(type) {
	case *bat.I8Vec:
		return selectEqSlice(v.V, int8(code))
	case *bat.I16Vec:
		return selectEqSlice(v.V, int16(code))
	default:
		n := c.Vec.Len()
		//monet:allow kernalloc non-escaping capacity-estimate predicate, stack-allocated; the scan loop itself is allocation-free
		out := make([]bat.Oid, 0, estimateCap(n, func(i int) bool { return codeOf(c, i) == code }))
		for i := 0; i < n; i++ {
			if codeOf(c, i) == code {
				out = append(out, bat.Oid(i))
			}
		}
		return out
	}
}

// selectEqSlice scans one typed code slice for equality, emitting the
// OIDs of matches. The target is pre-narrowed to the slice's element
// type, so each comparison is a single machine-width compare (codes
// are stored with wraparound, and narrowing the unsigned code value
// applies the same wraparound).
//
//monet:kernel
func selectEqSlice[T int8 | int16](vals []T, code T) []bat.Oid {
	//monet:allow kernalloc non-escaping capacity-estimate predicate, stack-allocated; the scan loop itself is allocation-free
	out := make([]bat.Oid, 0, estimateCap(len(vals), func(i int) bool { return vals[i] == code }))
	for i, v := range vals {
		if v == code {
			out = append(out, bat.Oid(i))
		}
	}
	return out
}

// CodeAt reads the unsigned dictionary code at position i of an
// encoded column — the value the §3.1 predicate re-mapping compares.
func CodeAt(c *Column, i int) int64 { return codeOf(c, i) }

// CodeWrap returns the modulus that undoes the signed storage of a
// column's code vector (0 when the stored value is already unsigned):
// a negative stored value v decodes to v + CodeWrap. The single source
// of the wraparound invariant, shared by every code reader.
func CodeWrap(c *Column) int64 {
	switch c.Vec.Type() {
	case bat.TI8:
		return 1 << 8
	case bat.TI16:
		return 1 << 16
	}
	return 0
}

// codeOf reads the unsigned dictionary code at position i.
func codeOf(c *Column, i int) int64 {
	v := c.Vec.Int(i)
	if v < 0 {
		v += CodeWrap(c)
	}
	return v
}

// GatherFloat reconstructs the float values of the given OIDs by
// positional lookup — the void-column tuple-reconstruction join whose
// cost §3.1 calls effectively eliminated.
func (t *Table) GatherFloat(sim *memsim.Sim, column string, oids []bat.Oid) ([]float64, error) {
	c, err := t.Column(column)
	if err != nil {
		return nil, err
	}
	fv, ok := c.Vec.(*bat.F64Vec)
	if !ok {
		return nil, fmt.Errorf("dsm: column %q is not a float column", column)
	}
	fv.Bind(sim)
	out := make([]float64, len(oids))
	for i, o := range oids {
		pos, ok := t.Head.Position(o)
		if !ok {
			return nil, fmt.Errorf("dsm: OID %d outside table", o)
		}
		fv.Touch(sim, pos)
		out[i] = fv.Float(pos)
	}
	return out, nil
}

// GatherInt reconstructs integer/date values of the given OIDs.
func (t *Table) GatherInt(sim *memsim.Sim, column string, oids []bat.Oid) ([]int64, error) {
	c, err := t.Column(column)
	if err != nil {
		return nil, err
	}
	c.Vec.Bind(sim)
	out := make([]int64, len(oids))
	for i, o := range oids {
		pos, ok := t.Head.Position(o)
		if !ok {
			return nil, fmt.Errorf("dsm: OID %d outside table", o)
		}
		c.Vec.Touch(sim, pos)
		out[i] = c.Vec.Int(pos)
	}
	return out, nil
}

// GatherString reconstructs (and decodes) string values of the given
// OIDs. Decoding happens only here, at result materialization.
func (t *Table) GatherString(sim *memsim.Sim, column string, oids []bat.Oid) ([]string, error) {
	c, err := t.Column(column)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(oids))
	for i, o := range oids {
		pos, ok := t.Head.Position(o)
		if !ok {
			return nil, fmt.Errorf("dsm: OID %d outside table", o)
		}
		c.Vec.Touch(sim, pos)
		switch {
		case c.Enc != nil:
			out[i] = c.Enc.Decode(c.Vec.Int(pos))
		default:
			sv, ok := c.Vec.(*bat.StrVec)
			if !ok {
				return nil, fmt.Errorf("dsm: column %q is not a string column", column)
			}
			out[i] = sv.Str(pos)
		}
	}
	return out, nil
}

// AggregateRow is one row of a grouped aggregate result, with the
// group key decoded back to its string form when the key column is
// encoded.
type AggregateRow struct {
	Key   string
	Count int64
	Sum   float64
	Min   float64
	Max   float64
}

// GroupAggregate computes per-group aggregates of a measure expression
// over the qualifying OIDs (nil oids = all rows): the Monet-style plan
// for SELECT key, SUM(measure) ... GROUP BY key. Key must be a string
// (usually encoded) column; measure a float column. The measure can be
// transformed by expr (nil = identity), evaluated per tuple.
func (t *Table) GroupAggregate(sim *memsim.Sim, keyCol, measureCol string, oids []bat.Oid, expr func(float64) float64) ([]AggregateRow, error) {
	kc, err := t.Column(keyCol)
	if err != nil {
		return nil, err
	}
	mc, err := t.Column(measureCol)
	if err != nil {
		return nil, err
	}
	mv, ok := mc.Vec.(*bat.F64Vec)
	if !ok {
		return nil, fmt.Errorf("dsm: measure column %q is not float", measureCol)
	}
	kc.Vec.Bind(sim)
	mv.Bind(sim)

	// Materialize the qualifying (code, measure) pair columns; with nil
	// OIDs this is a pure scan, otherwise a positional gather.
	n := t.N
	if oids != nil {
		n = len(oids)
	}
	codes := make([]int16, n)
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		pos := i
		if oids != nil {
			p, ok := t.Head.Position(oids[i])
			if !ok {
				return nil, fmt.Errorf("dsm: OID %d outside table", oids[i])
			}
			pos = p
		}
		kc.Vec.Touch(sim, pos)
		mv.Touch(sim, pos)
		codes[i] = int16(codeOf(kc, pos))
		v := mv.Float(pos)
		if expr != nil {
			v = expr(v)
		}
		vals[i] = v
	}
	res, err := agg.HashGroup(sim, bat.NewI16(codes), bat.NewF64(vals))
	if err != nil {
		return nil, err
	}
	sorted := res.Sorted()
	rows := make([]AggregateRow, sorted.Groups())
	for i := range rows {
		key := fmt.Sprintf("%d", sorted.Key[i])
		if kc.Enc != nil {
			key = kc.Enc.Decode(sorted.Key[i])
		}
		rows[i] = AggregateRow{
			Key:   key,
			Count: sorted.Count[i],
			Sum:   sorted.Sum[i],
			Min:   sorted.Min[i],
			Max:   sorted.Max[i],
		}
	}
	return rows, nil
}

// ScanColumnStats runs the §3.1 motivating comparison for one column
// of this table: the simulated cost of aggregating that column when
// stored (a) inside N-ary records of the schema's full row width,
// (b) as an 8-byte BUN column, and (c) in its actual decomposed width
// (1 byte for an encoded shipmode). It returns the three stat sets.
func (t *Table) ScanColumnStats(m memsim.Machine, column string) (nsm, bun, dsmStats memsim.Stats, err error) {
	c, err := t.Column(column)
	if err != nil {
		return nsm, bun, dsmStats, err
	}
	width := c.Width()
	if width == 0 {
		width = 1
	}
	nsm, err = scanWidth(m, t.N, t.Schema.RowWidth())
	if err != nil {
		return nsm, bun, dsmStats, err
	}
	bun, err = scanWidth(m, t.N, bat.PairSize)
	if err != nil {
		return nsm, bun, dsmStats, err
	}
	dsmStats, err = scanWidth(m, t.N, width)
	return nsm, bun, dsmStats, err
}

// scanWidth simulates a one-field scan over n records of the given
// width (cold caches), like the Figure-3 experiment.
func scanWidth(m memsim.Machine, n, width int) (memsim.Stats, error) {
	sim, err := memsim.New(m)
	if err != nil {
		return memsim.Stats{}, err
	}
	base := sim.Alloc(n * width)
	sim.InvalidateCaches()
	for i := 0; i < n; i++ {
		sim.Read(base+uint64(i)*uint64(width), 1)
	}
	sim.AddCPU(n, m.Cost.WScanBUN)
	return sim.Stats(), nil
}
