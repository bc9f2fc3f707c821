// Fixture for costcover: operator/cost lockstep in an engine-shaped
// package (declares physOp).
package engine

import "costmodel"

type physOp interface {
	label() string
	predicted() costmodel.Breakdown
}

// goodOp is fully wired: costed, stable label.
type goodOp struct {
	cost costmodel.Breakdown
}

func (o *goodOp) label() string                  { return "Good[scan]" }
func (o *goodOp) predicted() costmodel.Breakdown { return o.cost }

// uncostedOp carries a cost field that nothing in the package sets.
type uncostedOp struct { // want "operator uncostedOp has a cost costmodel.Breakdown field that nothing in the package sets"
	cost costmodel.Breakdown
}

func (o *uncostedOp) label() string                  { return "Uncosted" }
func (o *uncostedOp) predicted() costmodel.Breakdown { return o.cost }

// dynlabelOp is calibratable but its label is purely dynamic: the
// residual feed would see unbounded keys.
type dynlabelOp struct {
	inner physOp
	cost  costmodel.Breakdown
}

func (o *dynlabelOp) label() string { // want "operator dynlabelOp feeds the calibration residuals"
	return o.inner.label()
}
func (o *dynlabelOp) predicted() costmodel.Breakdown { return o.cost }

// zeroPredOp never feeds calibration (predicted returns the zero
// literal), so its dynamic label is fine.
type zeroPredOp struct {
	inner physOp
}

func (o *zeroPredOp) label() string                  { return o.inner.label() }
func (o *zeroPredOp) predicted() costmodel.Breakdown { return costmodel.Breakdown{} }

// partsLabelOp builds its label dynamically but anchors it with a
// literal operator name, like the real pipelineOp.
type partsLabelOp struct {
	extra string
	cost  costmodel.Breakdown
}

func (o *partsLabelOp) label() string {
	s := "Parts"
	s += "[" + o.extra + "]"
	return s
}
func (o *partsLabelOp) predicted() costmodel.Breakdown { return o.cost }

// adapterOp mirrors the real pipeStageOp: an explain-only wrapper
// that reports a zero prediction, so it needs no stable label.
type adapterOp struct {
	inner physOp
}

func (o *adapterOp) label() string                  { return o.inner.label() }
func (o *adapterOp) predicted() costmodel.Breakdown { return costmodel.Breakdown{} }

// rawPrice prices operators directly against the machine: both method
// names of the raw path are flagged — calibration corrections would
// silently not apply here.
func rawPrice(op physOp, m costmodel.Machine) float64 {
	ms := op.predicted().Millis(m) // want "raw Breakdown.Millis pricing bypasses costmodel.Model"
	ns := op.predicted().Total(m)  // want "raw Breakdown.Total pricing bypasses costmodel.Model"
	return ms + ns
}

// rawPriceAllowed mirrors the real simulator cross-check tests:
// comparing the uncorrected analytical prediction against measured
// stalls is deliberate, and documented via suppression.
func rawPriceAllowed(op physOp, m costmodel.Machine) float64 {
	//monet:allow costcover simulator cross-check compares the raw analytical prediction
	return op.predicted().Total(m)
}

// stopwatch has a Millis method of its own: only costmodel.Breakdown
// receivers are raw pricing.
type stopwatch struct{ ns float64 }

func (s stopwatch) Millis() float64 { return s.ns / 1e6 }

func elapsed() float64 { return stopwatch{ns: 1e6}.Millis() }

func buildGood(extra string) physOp {
	g := &goodOp{cost: costmodel.Breakdown{CPUNanos: 1}}
	d := &dynlabelOp{inner: g}
	d.cost = g.cost
	p := &partsLabelOp{extra: extra}
	p.cost = g.cost
	return d
}
