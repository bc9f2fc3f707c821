package costmodel

import (
	"fmt"
	"math"
	"strings"
)

// The unified pricing layer: every cost-consulting component (the
// engine's planner, EXPLAIN, the profiler) prices a Breakdown through
// Model rather than multiplying machine latencies directly, so a model
// carrying learned per-operator-kind corrections transparently bends
// every prediction — and every cost-based decision — toward observed
// reality. The correction table is keyed by the same normalized KindOf
// labels Residuals accumulates, closing the self-tuning loop:
//
//	profiled run → Residuals (mlquery -calib) → WithResiduals
//	(mlquery -learn) → corrected planning and prediction.

// maxCorrection bounds a learned per-kind correction factor: a single
// wild observation (clock glitch, cold page cache) must not be able to
// turn the model upside down.
const maxCorrection = 1024

// KindOf normalizes an operator label to its calibration kind:
// algorithm parameters (radix bits, join plan shape) are stripped, the
// algorithm name kept — "GroupAggregate[radix bits=10]" →
// "GroupAggregate[radix]", "Join[phash (B=8, P=2)]" → "Join[phash]".
// Residuals observations and Model corrections share this one
// normalization.
func KindOf(label string) string {
	base, inner, ok := strings.Cut(label, "[")
	if !ok {
		return label
	}
	inner = strings.TrimSuffix(inner, "]")
	if f := strings.Fields(inner); len(f) > 0 {
		inner = f[0]
	}
	return base + "[" + inner + "]"
}

// WithResiduals returns a copy of the model whose predictions are
// multiplied by each kind's geometric-mean actual/predicted ratio —
// the one learned residual round of the self-tuning loop. The
// residuals must have been observed on the same machine profile the
// model prices for (an Origin2000 correction table says nothing about
// a calibrated host).
func (m Model) WithResiduals(r *Residuals) (Model, error) {
	if r == nil {
		m.corr = nil
		return m, nil
	}
	if r.Machine != "" && m.M.Name != "" && r.Machine != m.M.Name {
		return m, fmt.Errorf("costmodel: residuals calibrated on %q cannot correct a %q model", r.Machine, m.M.Name)
	}
	corr := map[string]float64{}
	for _, k := range r.Kinds() {
		g := k.GeoMeanRatio()
		if math.IsNaN(g) || math.IsInf(g, 0) || g <= 0 {
			continue
		}
		if g > maxCorrection {
			g = maxCorrection
		}
		if g < 1/maxCorrection {
			g = 1 / maxCorrection
		}
		corr[k.Kind] = g
	}
	m.corr = corr
	return m, nil
}

// Correction returns the multiplicative factor applied to predictions
// of the given operator kind (1 when the model carries no evidence for
// it).
func (m Model) Correction(kind string) float64 {
	if c, ok := m.corr[kind]; ok {
		return c
	}
	return 1
}

// Corrections returns the learned (kind, factor) table, sorted by kind
// — the reporting form (mlquery's -json "machine" block).
func (m Model) Corrections() map[string]float64 {
	if len(m.corr) == 0 {
		return nil
	}
	out := make(map[string]float64, len(m.corr))
	for k, v := range m.corr {
		out[k] = v
	}
	return out
}

// Nanos prices a breakdown for one operator kind: the machine's
// per-event totals times the kind's learned correction. This is the
// pricing entry point every cost-consulting layer goes through
// (enforced for engine-shaped packages by monetvet's costcover).
func (m Model) Nanos(kind string, b Breakdown) float64 {
	return b.Total(m.M) * m.Correction(kind)
}

// Millis is Nanos in milliseconds.
func (m Model) Millis(kind string, b Breakdown) float64 {
	return m.Nanos(kind, b) / 1e6
}
