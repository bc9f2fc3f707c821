package core

import (
	"cmp"
	"slices"
	"time"
)

// Execution-span capture for the worker pool: when a profiling run
// wants to see how morsels were scheduled across workers (utilization,
// stragglers, gaps), it passes a SpanRecorder into ForEachSpan and
// gets back one Span per work unit. A nil recorder is the contract for
// "profiling disabled": ForEachSpan degrades to plain ForEach with no
// extra work and no allocations, so the hot path pays only a nil
// check.
//
// Recording never perturbs determinism — spans are observations, the
// decomposition and merge orders they observe are unchanged.

// Span is one unit of work executed by one worker: a half-open time
// interval relative to the recorder's epoch.
type Span struct {
	// Tag identifies which fan-out (operator, phase) the unit belongs
	// to; the recorder's owner assigns tags serially between fan-outs.
	Tag int32
	// Worker is the pool slot that ran the unit.
	Worker int32
	// Unit is the work-unit index within the fan-out (morsel or task).
	Unit int32
	// Start and Dur are nanoseconds since the recorder's epoch.
	Start int64
	Dur   int64
}

// SpanRecorder captures spans from parallel fan-outs. Each worker
// appends to its own slice — no locking — which is safe because
// worker slots are exclusive within a fan-out and fan-outs are
// separated by the pool's goroutine-join barrier. SetTag must only be
// called between fan-outs (serially), never while one is running.
type SpanRecorder struct {
	epoch     time.Time
	tag       int32
	perWorker [][]Span
}

// NewSpanRecorder returns a recorder for a pool of the given worker
// count, with its epoch set to now.
func NewSpanRecorder(workers int) *SpanRecorder {
	if workers < 1 {
		workers = 1
	}
	return &SpanRecorder{epoch: time.Now(), perWorker: make([][]Span, workers)}
}

// Workers returns the recorder's worker-slot count.
func (r *SpanRecorder) Workers() int { return len(r.perWorker) }

// SetTag labels all subsequently recorded spans. Serial use only:
// call between fan-outs, never during one.
func (r *SpanRecorder) SetTag(tag int) { r.tag = int32(tag) }

// Clock returns nanoseconds since the epoch.
func (r *SpanRecorder) Clock() int64 { return time.Since(r.epoch).Nanoseconds() }

// Record appends a span for worker w covering [start, now) for work
// unit `unit` under the current tag. Safe to call concurrently from
// distinct workers.
func (r *SpanRecorder) Record(w, unit int, start int64) {
	if w < 0 || w >= len(r.perWorker) {
		return // defensive: a fan-out wider than the recorded pool
	}
	r.perWorker[w] = append(r.perWorker[w], Span{
		Tag:    r.tag,
		Worker: int32(w),
		Unit:   int32(unit),
		Start:  start,
		Dur:    r.Clock() - start,
	})
}

// Spans merges every worker's spans into one slice ordered by
// (Start, Worker, Unit) — deterministic given the same recorded set.
// Call only between fan-outs.
func (r *SpanRecorder) Spans() []Span {
	total := 0
	for _, s := range r.perWorker {
		total += len(s)
	}
	out := make([]Span, 0, total)
	for _, s := range r.perWorker {
		out = append(out, s...)
	}
	slices.SortFunc(out, func(a, b Span) int {
		if c := cmp.Compare(a.Start, b.Start); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Worker, b.Worker); c != 0 {
			return c
		}
		return cmp.Compare(a.Unit, b.Unit)
	})
	return out
}

// ForEachSpan is ForEach with optional span capture: a nil recorder
// runs the plain fan-out (the disabled fast path — no closure, no
// allocation); otherwise every work unit is timed and recorded under
// the recorder's current tag.
func ForEachSpan(workers, n int, rec *SpanRecorder, body func(w, i int)) {
	if rec == nil {
		ForEach(workers, n, body)
		return
	}
	ForEach(workers, n, func(w, i int) {
		start := rec.Clock()
		body(w, i)
		rec.Record(w, i, start)
	})
}
