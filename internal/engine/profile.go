package engine

import (
	"encoding/json"
	"fmt"
	"runtime/metrics"
	"strings"

	"monetlite/internal/core"
	"monetlite/internal/costmodel"
)

// Execution profiling (EXPLAIN ANALYZE): a profiled run collects, per
// physical operator — including each fused pipeline stage and each
// grouping phase — the actual wall time, input/output rows, bytes
// read+written (computed with the same width accounting the cost
// models charge, so predicted and actual are in the same units),
// allocation deltas, morsel count and per-worker busy time.
//
// The instrumentation contract:
//
//   - Zero cost when disabled. Every hook is a nil check on
//     execCtx.prof / execCtx.spans; the disabled branches are the
//     exact pre-profiling code paths, with no closures and no
//     allocations (pinned by TestProfileHooksDisabledZeroAlloc).
//   - Observation only. Profiling never changes the morsel
//     decomposition, merge orders or any result byte: a profiled run
//     is byte-identical to an unprofiled one at any worker count.

// Profile is the execution profile of one plan run, a tree of
// per-operator statistics mirroring the Explain() operator tree.
type Profile struct {
	Machine string   `json:"machine"`
	Workers int      `json:"workers"`
	TotalMS float64  `json:"total_ms"`
	Root    *OpStats `json:"root"`
	// Spans are the raw per-worker work-unit spans (morsels, grouping
	// tasks), ordered by start time — the trace-export feed.
	Spans []core.Span `json:"-"`

	model  *costmodel.Model
	rec    *core.SpanRecorder
	nodes  []*OpStats        // index == span tag
	stack  []*OpStats        // stack[0] is the sentinel
	allocs [2]metrics.Sample // cumulative heap bytes and objects, reused per read
}

// OpStats is one profiled node: a physical operator, a fused pipeline
// stage, or an operator-internal phase (grouping cluster/merge,
// default-projection reconstruction). Times and allocation deltas are
// inclusive of child nodes; SelfMS subtracts them back out. Traffic
// (BytesRead/BytesWritten) is the node's own, in cost-model width
// units — sum a subtree for inclusive traffic.
type OpStats struct {
	Op           string    `json:"op"`
	Detail       string    `json:"detail,omitempty"`
	Phase        bool      `json:"phase,omitempty"` // stage/phase node, not a plan operator
	PredictedMS  float64   `json:"predicted_ms,omitempty"`
	PredRatio    float64   `json:"pred_ratio,omitempty"` // actual/predicted
	ActualMS     float64   `json:"actual_ms"`
	SelfMS       float64   `json:"self_ms"`
	InRows       int64     `json:"in_rows"`
	OutRows      int64     `json:"out_rows"`
	BytesRead    int64     `json:"bytes_read"`
	BytesWritten int64     `json:"bytes_written"`
	AllocBytes   int64     `json:"alloc_bytes,omitempty"`
	Allocs       int64     `json:"allocs,omitempty"`
	Morsels      int       `json:"morsels,omitempty"`
	WorkerBusyMS []float64 `json:"worker_busy_ms,omitempty"`
	// Replanned is always empty: the engine no longer replans mid
	// query. It stays only because the benchmark's traced pass still
	// reads it for engine.replans_per_query.
	Replanned string     `json:"replanned,omitempty"`
	Kids      []*OpStats `json:"kids,omitempty"`

	tag      int
	startNS  int64
	actualNS int64
	op       physOp // nil for stage/phase nodes
}

func newProfile(model *costmodel.Model, workers int) *Profile {
	if workers < 1 {
		workers = 1
	}
	sentinel := &OpStats{Op: "query", Phase: true}
	p := &Profile{
		Machine: model.M.Name,
		Workers: workers,
		model:   model,
		rec:     core.NewSpanRecorder(workers),
		nodes:   []*OpStats{sentinel},
		stack:   []*OpStats{sentinel},
	}
	p.allocs[0].Name = "/gc/heap/allocs:bytes"
	p.allocs[1].Name = "/gc/heap/allocs:objects"
	return p
}

// heapAllocs reads the cumulative heap allocation counters through
// runtime/metrics, which — unlike runtime.ReadMemStats — does not stop
// the world.
func (p *Profile) heapAllocs() (bytes, objects int64) {
	metrics.Read(p.allocs[:])
	return int64(p.allocs[0].Value.Uint64()), int64(p.allocs[1].Value.Uint64())
}

// exec routes a child-operator execution through the profiler. The
// disabled path is a bare nil check — no allocations, no closures —
// so unprofiled runs execute exactly the pre-profiling code.
func (ctx *execCtx) exec(op physOp) (*fragment, error) {
	if ctx.prof == nil {
		return op.exec(ctx)
	}
	return ctx.prof.execOp(ctx, op)
}

// execOp times one operator execution, recording rows and allocation
// deltas, with child executions nesting into the stats tree.
func (p *Profile) execOp(ctx *execCtx, op physOp) (*fragment, error) {
	node := p.push(op.label(), op.detail(), op)
	node.PredictedMS = p.model.Millis(costmodel.KindOf(op.label()), op.predicted())
	b0, o0 := p.heapAllocs()
	node.startNS = p.rec.Clock()
	frag, err := op.exec(ctx)
	node.actualNS = p.rec.Clock() - node.startNS
	b1, o1 := p.heapAllocs()
	node.AllocBytes, node.Allocs = b1-b0, o1-o0
	if err == nil && frag != nil {
		node.OutRows = int64(frag.rows())
	}
	p.pop()
	return frag, err
}

// push opens a profiled node under the current one and points the span
// recorder's tag at it; pop closes it. Serial use only (operators
// execute their children serially; fan-outs happen inside one node).
func (p *Profile) push(label, detail string, op physOp) *OpStats {
	node := &OpStats{Op: label, Detail: detail, op: op, tag: len(p.nodes)}
	p.nodes = append(p.nodes, node)
	parent := p.stack[len(p.stack)-1]
	parent.Kids = append(parent.Kids, node)
	p.stack = append(p.stack, node)
	p.rec.SetTag(node.tag)
	return node
}

func (p *Profile) pop() {
	p.stack = p.stack[:len(p.stack)-1]
	p.rec.SetTag(p.stack[len(p.stack)-1].tag)
}

// beginPhase opens a phase node (a serial section inside the current
// operator — a grouping cluster pass, a merge, a pipeline stage
// summary). Callers must guard with ctx.prof != nil and close with
// endPhase.
func (p *Profile) beginPhase(label, detail string) *OpStats {
	node := p.push(label, detail, nil)
	node.Phase = true
	node.startNS = p.rec.Clock()
	return node
}

// endPhase closes a phase node with its output rows and its own
// traffic in cost-model width units.
func (p *Profile) endPhase(node *OpStats, outRows, read, written int64) {
	node.actualNS = p.rec.Clock() - node.startNS
	node.OutRows = outRows
	node.BytesRead = read
	node.BytesWritten = written
	p.pop()
}

// addStage attaches a pipeline-stage summary node (rows + traffic, no
// own timing: stages interleave per vector inside the pipeline's wall
// time) under the current node.
func (p *Profile) addStage(label, detail string, inRows, outRows, read, written int64) {
	node := p.push(label, detail, nil)
	node.Phase = true
	node.InRows = inRows
	node.OutRows = outRows
	node.BytesRead = read
	node.BytesWritten = written
	p.pop()
}

// finish resolves the collected tree: span attribution (morsel counts,
// per-worker busy time), derived times, input rows, traffic and
// predicted-vs-actual ratios.
func (p *Profile) finish() {
	p.TotalMS = float64(p.rec.Clock()) / 1e6
	p.Spans = p.rec.Spans()
	for _, s := range p.Spans {
		if int(s.Tag) >= len(p.nodes) {
			continue
		}
		node := p.nodes[s.Tag]
		node.Morsels++
		if node.WorkerBusyMS == nil {
			node.WorkerBusyMS = make([]float64, p.Workers)
		}
		if int(s.Worker) < len(node.WorkerBusyMS) {
			node.WorkerBusyMS[s.Worker] += float64(s.Dur) / 1e6
		}
	}
	sentinel := p.nodes[0]
	var walk func(n *OpStats)
	walk = func(n *OpStats) {
		var kidMS float64
		var inRows int64
		for _, k := range n.Kids {
			walk(k)
			kidMS += k.ActualMS
			if !k.Phase {
				inRows += k.OutRows
			}
		}
		n.ActualMS = float64(n.actualNS) / 1e6
		n.SelfMS = n.ActualMS - kidMS
		if n.SelfMS < 0 {
			n.SelfMS = 0
		}
		if n.InRows == 0 {
			n.InRows = inRows
		}
		if n.op != nil {
			p.opTraffic(n)
		}
		if n.PredictedMS > 0 && n.ActualMS > 0 {
			n.PredRatio = n.ActualMS / n.PredictedMS
		}
	}
	walk(sentinel)
	if len(sentinel.Kids) == 1 {
		p.Root = sentinel.Kids[0]
	} else {
		sentinel.actualNS = int64(p.TotalMS * 1e6)
		sentinel.ActualMS = p.TotalMS
		p.Root = sentinel
	}
}

// opTraffic fills a real operator node's own bytes read/written from
// its actual row counts, mirroring the width accounting of the cost
// formulas in cost.go (4-byte OID-list entries, stored column widths,
// 8-byte join pairs, the 16-byte aggregation feed) so predicted and
// actual traffic are directly comparable.
func (p *Profile) opTraffic(n *OpStats) {
	in, out := n.InRows, n.OutRows
	switch op := n.op.(type) {
	case *scanOp:
		n.InRows = int64(op.t.N) // a scan binds, it does not move bytes
	case *joinOp:
		// its join[materialize], join[<plan>] and join[remap] phases
		// carry the traffic: gathered join columns in, (row, value)
		// pairs, the join index and the remapped OID lists out
	case *projectOp:
		// a pass-through of materialized columns: no traffic
	case *orderByOp:
		w := int64(8)
		if op.col != nil {
			w = int64(op.col.Width())
		}
		n.BytesRead = in * w
		n.BytesWritten = out * 8 // the permutation rewrite
	case *pipelineOp:
		// its stage nodes carry the per-stage traffic
	case *limitOp:
		// slicing in place: no traffic
	}
}

// Residuals folds this profile's per-operator predicted-vs-actual
// pairs into the accumulator — the calibration feed. Only real plan
// operators with a cost-model prediction contribute. Kinds are
// normalized with costmodel.KindOf, the same labels model corrections
// are keyed by.
func (p *Profile) Residuals(acc *costmodel.Residuals) {
	var walk func(n *OpStats)
	walk = func(n *OpStats) {
		if !n.Phase && n.PredictedMS > 0 {
			acc.Observe(costmodel.KindOf(n.Op), n.PredictedMS, n.ActualMS)
		}
		for _, k := range n.Kids {
			walk(k)
		}
	}
	if p.Root != nil {
		walk(p.Root)
	}
}

// inclTraffic sums a node's own traffic with its phase/stage subtree —
// the operator's total byte movement, excluding distinct upstream
// operators (which annotate themselves).
func inclTraffic(n *OpStats) (read, written int64) {
	read, written = n.BytesRead, n.BytesWritten
	for _, k := range n.Kids {
		if !k.Phase {
			continue
		}
		r, w := inclTraffic(k)
		read += r
		written += w
	}
	return read, written
}

// annotate renders one node's EXPLAIN ANALYZE annotation.
func (p *Profile) annotate(n *OpStats) string {
	var sb strings.Builder
	sb.WriteString("[")
	if n.actualNS > 0 {
		fmt.Fprintf(&sb, "actual=%.2fms ", n.ActualMS)
	}
	if n.InRows != n.OutRows {
		fmt.Fprintf(&sb, "rows=%d→%d", n.InRows, n.OutRows)
	} else {
		fmt.Fprintf(&sb, "rows=%d", n.OutRows)
	}
	r, w := inclTraffic(n)
	fmt.Fprintf(&sb, " traffic=%s", fmtBytes(float64(r+w)))
	if n.WorkerBusyMS != nil {
		busy, nw := 0.0, 0
		for _, b := range n.WorkerBusyMS {
			if b > 0 {
				busy += b
				nw++
			}
		}
		if nw > 0 {
			fmt.Fprintf(&sb, " workers=%d×%.2fms", nw, busy/float64(nw))
		}
	}
	if n.PredictedMS > 0 && n.PredRatio > 0 {
		fmt.Fprintf(&sb, " (pred %.2fms ×%.2g off)", n.PredictedMS, n.PredRatio)
	}
	sb.WriteString("]")
	return sb.String()
}

// String renders the EXPLAIN ANALYZE tree: the operator tree with
// per-node actual time, rows, traffic, worker utilization and the
// predicted-vs-actual factor.
func (p *Profile) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "profile for %s  (total %.2f ms, %d workers)\n",
		p.Machine, p.TotalMS, p.Workers)
	if p.Root != nil {
		p.render(&sb, p.Root, "", "")
	}
	return sb.String()
}

func (p *Profile) render(sb *strings.Builder, n *OpStats, prefix, childPrefix string) {
	sb.WriteString(prefix)
	sb.WriteString(n.Op)
	if n.Detail != "" {
		sb.WriteString(" ")
		sb.WriteString(n.Detail)
	}
	sb.WriteString("  ")
	sb.WriteString(p.annotate(n))
	sb.WriteString("\n")
	for i, k := range n.Kids {
		if i == len(n.Kids)-1 {
			p.render(sb, k, childPrefix+"└─ ", childPrefix+"   ")
		} else {
			p.render(sb, k, childPrefix+"├─ ", childPrefix+"│  ")
		}
	}
}

// JSON serializes the profile tree (machine-readable analyze block).
func (p *Profile) JSON() ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}

// ---------------------------------------------------------------------
// Chrome-trace export: profiles serialize to the trace-event format
// chrome://tracing and Perfetto load — per-worker morsel spans on one
// row per worker, the operator intervals on a separate "operators"
// row, one process per query.

// TraceEvent is one entry of the Chrome trace event format.
type TraceEvent struct {
	Name string     `json:"name"`
	Cat  string     `json:"cat,omitempty"`
	Ph   string     `json:"ph"`
	TS   float64    `json:"ts"` // microseconds since trace epoch
	Dur  float64    `json:"dur,omitempty"`
	PID  int        `json:"pid"`
	TID  int        `json:"tid"`
	Args *TraceArgs `json:"args,omitempty"`
}

// TraceArgs carries the per-event detail (fixed fields: deterministic
// serialization, no map ordering involved).
type TraceArgs struct {
	Name        string  `json:"name,omitempty"`
	Rows        int64   `json:"rows,omitempty"`
	Unit        int     `json:"unit,omitempty"`
	PredictedMS float64 `json:"predicted_ms,omitempty"`
}

// TraceEvents renders the profile as Chrome trace events under the
// given process id (one pid per query when concatenating profiles) and
// process name.
func (p *Profile) TraceEvents(pid int, name string) []TraceEvent {
	events := []TraceEvent{{
		Name: "process_name", Ph: "M", PID: pid, TID: 0,
		Args: &TraceArgs{Name: name},
	}}
	for w := 0; w < p.Workers; w++ {
		events = append(events, TraceEvent{
			Name: "thread_name", Ph: "M", PID: pid, TID: w,
			Args: &TraceArgs{Name: fmt.Sprintf("worker %d", w)},
		})
	}
	opTID := p.Workers
	events = append(events, TraceEvent{
		Name: "thread_name", Ph: "M", PID: pid, TID: opTID,
		Args: &TraceArgs{Name: "operators"},
	})
	for _, n := range p.nodes {
		if n.actualNS <= 0 {
			continue
		}
		events = append(events, TraceEvent{
			Name: n.Op, Cat: "operator", Ph: "X",
			TS: float64(n.startNS) / 1e3, Dur: float64(n.actualNS) / 1e3,
			PID: pid, TID: opTID,
			Args: &TraceArgs{Rows: n.OutRows, PredictedMS: n.PredictedMS},
		})
	}
	for _, s := range p.Spans {
		label := "work"
		if int(s.Tag) < len(p.nodes) {
			label = p.nodes[s.Tag].Op
		}
		events = append(events, TraceEvent{
			Name: label, Cat: "morsel", Ph: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.Dur) / 1e3,
			PID: pid, TID: int(s.Worker),
			Args: &TraceArgs{Unit: int(s.Unit)},
		})
	}
	return events
}

// EncodeChromeTrace wraps trace events in the JSON object form the
// Chrome trace viewer expects.
func EncodeChromeTrace(events []TraceEvent) ([]byte, error) {
	return json.Marshal(struct {
		TraceEvents     []TraceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{TraceEvents: events, DisplayTimeUnit: "ms"})
}
